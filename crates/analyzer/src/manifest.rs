//! A minimal `Cargo.toml` reader: package name plus dependency names.
//!
//! This is not a TOML parser — it reads exactly the manifest idioms this
//! workspace uses (`[package] name = "…"`, `[dependencies]` entries in the
//! `name.workspace = true`, `name = "ver"` and `name = { … }` forms) and
//! ignores everything else. The layering rule only needs the dependency
//! *names*; versions, features and paths are irrelevant.

/// Parsed manifest facts.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    /// `[package] name`, empty for a virtual manifest.
    pub name: String,
    /// Dependency names from `[dependencies]`.
    pub deps: Vec<String>,
    /// Dependency names from `[dev-dependencies]` and `[build-dependencies]`.
    pub dev_deps: Vec<String>,
}

/// Parses manifest text. Infallible: unknown constructs are skipped.
pub fn parse(text: &str) -> Manifest {
    #[derive(PartialEq)]
    enum Section {
        Package,
        Deps,
        DevDeps,
        Other,
    }
    let mut section = Section::Other;
    let mut m = Manifest::default();
    for raw in text.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = match line {
                "[package]" => Section::Package,
                "[dependencies]" => Section::Deps,
                "[dev-dependencies]" | "[build-dependencies]" => Section::DevDeps,
                _ => Section::Other,
            };
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key_full = line[..eq].trim();
        // `swamp-sim.workspace = true` → dependency name `swamp-sim`;
        // quoted keys (`"weird.name".workspace`) keep their dots.
        let key = if let Some(stripped) = key_full.strip_prefix('"') {
            stripped.split('"').next().unwrap_or(key_full)
        } else {
            key_full.split('.').next().unwrap_or(key_full)
        };
        match section {
            Section::Package if key == "name" => {
                let val = line[eq + 1..].trim();
                m.name = val.trim_matches('"').to_owned();
            }
            Section::Deps => m.deps.push(key.to_owned()),
            Section::DevDeps => m.dev_deps.push(key.to_owned()),
            _ => {}
        }
    }
    m.deps.sort();
    m.deps.dedup();
    m.dev_deps.sort();
    m.dev_deps.dedup();
    m
}

/// Strips a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workspace_style_manifest() {
        let m = parse(
            r#"
[package]
name = "swamp-core" # the core
version.workspace = true

[dependencies]
swamp-sim.workspace = true
swamp-net = { path = "../net" }
serde = "1"

[dev-dependencies]
proptest.workspace = true

[features]
proptest-tests = []
"#,
        );
        assert_eq!(m.name, "swamp-core");
        assert_eq!(m.deps, vec!["serde", "swamp-net", "swamp-sim"]);
        assert_eq!(m.dev_deps, vec!["proptest"]);
    }

    #[test]
    fn virtual_manifest_has_no_name() {
        let m = parse("[workspace]\nmembers = [\"crates/*\"]\n");
        assert_eq!(m.name, "");
        assert!(m.deps.is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_confuse() {
        let m = parse("[package]\nname = \"x#y\" # real comment\n");
        assert_eq!(m.name, "x#y");
    }
}
