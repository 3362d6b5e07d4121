//! Wall-clock spans recorded from the benchmark around each call into a
//! layer's public function. Nothing inside the program is instrumented:
//! a span covers exactly one call the benchmark makes.

use std::fmt::Write as _;
use std::time::Instant;

use crate::reads::Kind;

/// What a span covers. `Round` groups one workload round and is not a
/// layer; every other variant is a layer whose self time is attributed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One workload round (offer through the platform rounds before the
    /// next offer, then the round's reads).
    Round,
    /// `Keystore::device_key` + `Entity::to_json` + `SecretKey::seal`.
    Seal,
    /// `Platform::validate_frame`.
    Admit,
    /// `Drive::ingest` / `Platform::ingest_entities`.
    Apply,
    /// One shard's `Platform::pump`.
    Pump,
    /// `ShardedPlatform::aggregate`.
    Aggregate,
    /// `Drive::query` of one kind.
    Query(Kind),
}

impl Layer {
    pub fn name(self) -> String {
        match self {
            Layer::Round => "round".into(),
            Layer::Seal => "device.seal".into(),
            Layer::Admit => "admit".into(),
            Layer::Apply => "apply".into(),
            Layer::Pump => "pump".into(),
            Layer::Aggregate => "aggregate".into(),
            Layer::Query(kind) => format!("query.{}", kind.name()),
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    /// The platform round, frame or query the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Wraps calls into the program; the untraced implementation is free.
pub trait Trace {
    const ON: bool;

    /// Opens a span; spans opened until the matching [`Trace::exit`] are
    /// its children.
    fn enter(&mut self, layer: Layer, id: u64);

    /// Closes the innermost open span.
    fn exit(&mut self);

    /// Runs `f` inside a span.
    fn span<R>(&mut self, layer: Layer, id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(layer, id);
        let out = f();
        self.exit();
        out
    }
}

/// No tracing: the call runs bare.
pub struct Off;

impl Trace for Off {
    const ON: bool = false;

    #[inline(always)]
    fn enter(&mut self, _: Layer, _: u64) {}

    #[inline(always)]
    fn exit(&mut self) {}
}

/// Records spans in memory; they are written out when the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.ns());
            }
        }
        own
    }

    /// The spans as JSON lines: name, start, end, parent index (-1 for
    /// none) and the id they belong to.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.layer.name(),
                s.start,
                s.end,
                parent,
                s.id
            );
        }
        out
    }
}

impl Trace for Tracer {
    const ON: bool = true;

    fn enter(&mut self, layer: Layer, id: u64) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
            id,
        });
    }

    fn exit(&mut self) {
        let end = self.now();
        if let Some(idx) = self.stack.pop() {
            self.spans[idx as usize].end = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span(Layer::Round, 0, || {});
        t.spans[0].start = 0;
        t.spans[0].end = 100;
        t.spans.push(Span {
            layer: Layer::Apply,
            start: 10,
            end: 40,
            parent: 0,
            id: 0,
        });
        assert_eq!(t.self_ns(), vec![70, 30]);
    }
}
