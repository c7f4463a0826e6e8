//! In-memory span recorder for the traced run.
//!
//! A span is one timed interval around a call (or a chunk of calls)
//! into a layer: name, start, end, parent span and the run it belongs
//! to, plus the number of calls it covers. Spans stay in memory and are
//! written out once, when the run ends. A layer's cost is its *self*
//! time: a span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    calls: u64,
}

/// Self time and call count summed over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    pub self_ns: u64,
    pub calls: u64,
}

impl LayerCost {
    /// Self nanoseconds per call (0 when no call was recorded).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Records spans for one run.
#[derive(Debug)]
pub struct Tracer {
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[must_use]
#[derive(Debug)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, recording that it covered `calls` layer calls.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn close(&mut self, id: SpanId, calls: u64) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the number of calls it made.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> (R, u64)) -> R {
        let id = self.open(name);
        let (r, calls) = f(self);
        self.close(id, calls);
        r
    }

    /// Times `f` over `items` in chunks of `chunk`, one span per chunk,
    /// so sub-microsecond calls are timed in bulk with their count.
    pub fn chunked<T>(&mut self, name: &str, items: &[T], chunk: usize, mut f: impl FnMut(&T)) {
        for c in items.chunks(chunk.max(1)) {
            let id = self.open(name);
            for x in c {
                f(x);
            }
            self.close(id, c.len() as u64);
        }
    }

    /// Records a span timed elsewhere (on a worker thread, say) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, calls: u64) {
        let at = |i: Instant| i.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            calls,
        };
        self.spans.push(span);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Wall nanoseconds of the first span named `name`.
    pub fn wall_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// Self time and calls per span name.
    pub fn costs(&self) -> BTreeMap<String, LayerCost> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, LayerCost> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let c = out.entry(s.name.clone()).or_default();
            c.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            c.calls += s.calls;
        }
        out
    }

    /// The spans as JSON lines, after one header line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"run\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("t".into());
        let outer = t.open("outer");
        t.chunked("inner", &[1u64, 2, 3], 2, |x| {
            std::hint::black_box(x);
        });
        t.close(outer, 1);
        let costs = t.costs();
        assert_eq!(costs["inner"].calls, 3);
        assert_eq!(costs["outer"].calls, 1);
        let wall = t.wall_ns("outer").unwrap();
        assert_eq!(costs["outer"].self_ns + costs["inner"].self_ns, wall);
    }
}
