//! In-memory spans, recorded by the benchmark around its calls into each
//! layer and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `0` means "no parent".
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `runtime.step`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one (`0` for a root).
    pub parent: SpanId,
    /// Request the span belongs to (`0` when it serves several).
    pub request: u64,
}

/// An append-only span log sharing one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len()
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id - 1].end_ns = now;
    }

    /// Records a finished span from explicit instants.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: at(start), end_ns: at(end), parent, request });
        self.spans.len()
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another tracer's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: (count, total duration ns, self time ns). Self time
    /// is the duration minus the part covered by direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(kids);
        }
        out
    }

    /// Total duration of spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        let root = tr.record("root", t0, t0 + Duration::from_micros(10), 0, 1);
        tr.record("child", t0 + Duration::from_micros(2), t0 + Duration::from_micros(6), root, 1);
        let s = tr.summary();
        assert_eq!(s["root"], (1, 10_000, 6_000));
        assert_eq!(s["child"], (1, 4_000, 4_000));
        assert_eq!(tr.total_ns("child"), 4_000);
    }

    #[test]
    fn absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.record("a", t0, t0, 0, 0);
        let mut b = Tracer::new(t0);
        let p = b.record("p", t0, t0 + Duration::from_micros(3), 0, 0);
        b.record("c", t0, t0 + Duration::from_micros(1), p, 0);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.summary()["p"], (1, 3_000, 2_000));
    }
}
