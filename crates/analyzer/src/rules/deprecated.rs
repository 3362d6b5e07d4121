//! Rule `deprecated-api`: APIs that went through their deprecation window
//! and have been **removed** must never come back — not as new call sites
//! (the compiler already rejects those) and, more importantly, not as
//! fresh *definitions* re-introducing the old shape under the old name.
//! The rule bans the names themselves, so a revival fails CI in the same
//! commit that writes it.
//!
//! Four shapes are policed, everywhere — library, binary and test code
//! alike (the removal left nothing for tests to pin):
//!
//! - **Constructors** (`Platform::new`, `FogSync::new`, removed in PR 7
//!   after deprecation in PR 2): both types are builder-only; any
//!   qualified `Type::new` path is flagged.
//! - **String-keyed `Metrics` mutators** (`.incr(…)`, `.incr_by(…)`,
//!   removed in PR 7 after deprecation in PR 4): the old registry hashed a
//!   string key per event and silently minted counters on typos. The
//!   explicit setters (`set_counter`/`set_gauge`/`set_summary`) remain for
//!   building read-compat views; event-shaped mutation goes through typed
//!   `swamp_obs::Obs` handles. `.observe(…)` / `.set_gauge(…)` are only
//!   flagged on a receiver literally named `metrics`, since both names
//!   also belong to the *new* API surface (`platform.observe()`,
//!   snapshot-derived views).
//! - **Removed getters** (`.sync_health(…)`, `.acks_refused(…)`,
//!   `.metrics(…)`, removed in PR 7): superseded by the one observe
//!   surface — `degraded_mode()` plus the typed `sync.*` gauges, the
//!   `cloud.acks_refused` counter, and `observe()` respectively. No
//!   workspace type may grow methods with these names again.
//! - **Removed raw store accessors**, superseded by the typed query
//!   surface (`Drive::query`): `.cloud_replica_mut(…)` on any receiver,
//!   and `.context(…)` / `.history(…)` on receivers conventionally naming
//!   a platform (`platform`, `p`, `shard`, `sp`).

use crate::lexer::{is_ident, is_path2, is_punct};
use crate::source::SourceFile;

use super::Finding;

pub const NAME: &str = "deprecated-api";

/// (type, method, replacement) — removed constructors, banned as
/// qualified paths everywhere.
const REMOVED_CONSTRUCTORS: &[(&str, &str, &str)] = &[
    (
        "Platform",
        "new",
        "Platform::builder(config).seed(seed).build()",
    ),
    ("FogSync", "new", "FogSync::builder(node, cloud)…build()"),
];

/// (method, replacement) — removed methods whose names are unambiguous in
/// the workspace, banned as `.method(` on any receiver.
const REMOVED_ANY_RECEIVER: &[(&str, &str)] = &[
    (
        "incr",
        "register a typed Counter on `swamp_obs::Obs` and `inc` through it",
    ),
    (
        "incr_by",
        "register a typed Counter on `swamp_obs::Obs` and `inc_by` through it",
    ),
    (
        "sync_health",
        "`degraded_mode()` plus the `sync.pending` / `sync.in_flight` gauges in `observe()`",
    ),
    (
        "acks_refused",
        "the `cloud.acks_refused` counter in `observe()`",
    ),
    ("metrics", "`observe()`"),
    (
        "cloud_replica_mut",
        "`Drive::query(QueryRequest::ReplicaSeqs)` for reads; mutation belongs inside the platform",
    ),
];

/// Removed `Metrics` mutators whose names collide with the new obs API;
/// flagged only on a receiver literally named `metrics`.
const REMOVED_METRICS_RECEIVER: &[&str] = &["observe", "set_gauge"];

/// Removed raw read accessors superseded by the typed query surface
/// (`Drive::query`). `context`/`history` also name live APIs
/// (`CloudStore::history`, broker/query contexts), so — like the
/// `metrics` receiver check — they are flagged only on receivers
/// conventionally naming a platform.
const REMOVED_PLATFORM_RECEIVER: &[(&str, &str)] = &[
    (
        "context",
        "`Drive::query(QueryRequest::Last { … })`, or the platform's public `broker` surface",
    ),
    (
        "history",
        "`Drive::query(QueryRequest::Range / SeriesDump / …)`, or the public `history` field",
    ),
];

/// Receiver idents the platform conventionally binds to in this
/// workspace. `self` is deliberately absent: other types' own
/// `context`/`history` methods may call each other through `self`.
const PLATFORM_RECEIVERS: &[&str] = &["platform", "p", "shard", "sp"];

pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        for (ty, method, replacement) in REMOVED_CONSTRUCTORS {
            if !is_path2(tokens, i, ty, method) {
                continue;
            }
            out.push(Finding::at(
                NAME,
                file,
                tokens[i].line,
                format!("removed API `{ty}::{method}` must not come back: use `{replacement}`"),
            ));
        }
    }
    // Method-shaped bans: `<recv> . <method> (`.
    for i in 0..tokens.len() {
        if !is_punct(tokens, i, '.') || !is_punct(tokens, i + 2, '(') {
            continue;
        }
        let line = tokens[i].line;
        if let Some((method, replacement)) = REMOVED_ANY_RECEIVER
            .iter()
            .find(|(m, _)| is_ident(tokens, i + 1, m))
        {
            out.push(Finding::at(
                NAME,
                file,
                line,
                format!("removed method `.{method}(…)` must not come back: use {replacement}"),
            ));
            continue;
        }
        let named = REMOVED_METRICS_RECEIVER
            .iter()
            .any(|m| is_ident(tokens, i + 1, m))
            && i > 0
            && is_ident(tokens, i - 1, "metrics");
        if named {
            out.push(Finding::at(
                NAME,
                file,
                line,
                "removed string-keyed `Metrics` mutation: register a typed \
                 handle on `swamp_obs::Obs`, record through it and read \
                 through `observe()`"
                    .to_owned(),
            ));
            continue;
        }
        let on_platform = i > 0
            && PLATFORM_RECEIVERS
                .iter()
                .any(|recv| is_ident(tokens, i - 1, recv));
        if on_platform {
            if let Some((method, replacement)) = REMOVED_PLATFORM_RECEIVER
                .iter()
                .find(|(m, _)| is_ident(tokens, i + 1, m))
            {
                out.push(Finding::at(
                    NAME,
                    file,
                    line,
                    format!(
                        "removed raw accessor `.{method}(…)` must not come back: use {replacement}"
                    ),
                ));
            }
        }
    }
}
