//! Spans recorded from the benchmark's own code around each call into a
//! module's public API. Spans stay in memory (one buffer per thread) and
//! are folded into per-name totals when the run ends. A span's self time
//! is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
}

/// Per-thread span recorder. A disabled tracer runs the wrapped calls
/// with no clock reads at all, so the untraced run pays nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Totals for one span name.
#[derive(Debug, Default, Clone)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Vec<u64>,
}

impl SpanAgg {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn median_ns(&self) -> f64 {
        let mut v = self.durations.clone();
        v.sort_unstable();
        crate::stats::percentile(&v, 50.0) as f64
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; nested spans opened by `f`
    /// through the tracer it is handed become this span's children.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx as usize].end = self.origin.elapsed().as_nanos() as u64;
        r
    }

    /// Fold this thread's spans into `into`.
    pub fn fold_into(&self, into: &mut BTreeMap<&'static str, SpanAgg>) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, children) in self.spans.iter().zip(child_ns) {
            let d = s.end - s.start;
            let agg = into.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += d;
            agg.self_ns += d.saturating_sub(children);
            agg.durations.push(d);
        }
    }
}

/// Fold several threads' tracers into one table.
pub fn fold(tracers: &[Tracer]) -> BTreeMap<&'static str, SpanAgg> {
    let mut out = BTreeMap::new();
    for t in tracers {
        t.fold_into(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let agg = fold(&[t]);
        let outer = &agg["outer"];
        let inner = &agg["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(fold(&[t]).is_empty());
    }
}
