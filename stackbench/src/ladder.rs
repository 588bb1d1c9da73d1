//! The layer ladder: the same seeded op stream replayed at rungs that
//! each add one module, so a module's self time per op is the difference
//! between adjacent rungs. This file turns the rungs' per-op medians
//! into the `ladder.*` metrics, the per-layer differences, the two
//! largest costs and the share of the end-to-end median the ladder does
//! not reproduce.

use std::time::{Duration, Instant};

use crate::Outcome;

/// One rung's per-op median for the workload's primary op.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Rung name as the docs use it (`ftree`, `vm`, `core`, ...).
    pub name: &'static str,
    /// The module the rung adds on top of the one below.
    pub adds: &'static str,
    /// The `ladder.*` metric this rung reports.
    pub metric: &'static str,
    pub us: f64,
}

/// Report the ladder. `e2e_us` is the untraced end-to-end median of the
/// primary op; the last rung is the full workload, run untraced in the
/// ladder phase.
pub fn report(out: &mut Outcome, op: &str, e2e_us: f64, rungs: &[Rung]) {
    let mut below = 0.0;
    let mut costs = Vec::new();
    for r in rungs {
        out.set(r.metric, r.us);
        let delta = r.us - below;
        out.line(format!(
            "ladder {op}: rung {:<14} {:>10.2}us  adds {:<28} {:>+10.2}us ({:>5.1}% of e2e)",
            r.name,
            r.us,
            r.adds,
            delta,
            100.0 * delta / e2e_us
        ));
        costs.push((delta, r.adds));
        below = r.us;
    }
    costs.sort_by(|a, b| b.0.total_cmp(&a.0));
    if let [first, second, ..] = costs.as_slice() {
        out.line(format!(
            "ladder {op}: top costs: {} ({:.2}us, {:.1}%), {} ({:.2}us, {:.1}%)",
            first.1,
            first.0,
            100.0 * first.0 / e2e_us,
            second.1,
            second.0,
            100.0 * second.0 / e2e_us
        ));
    }
    let top = rungs.last().map_or(0.0, |r| r.us);
    out.set("trace.unattributed_pct", 100.0 * (e2e_us - top) / e2e_us);
}

/// Deadlines for one measured phase: a warm-up that is not recorded,
/// then the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warm_end: Instant,
    pub end: Instant,
}

impl Window {
    /// `warm` seconds that warm caches and lazy set-up without being
    /// recorded, then `measure` recorded seconds.
    pub fn new(warm: f64, measure: f64) -> Window {
        let warm_end = Instant::now() + Duration::from_secs_f64(warm);
        Window {
            warm_end,
            end: warm_end + Duration::from_secs_f64(measure),
        }
    }

    /// A phase of `total` seconds whose first fifth (at most one second)
    /// is warm-up.
    pub fn split(total: f64) -> Window {
        let warm = (total * 0.2).min(1.0);
        Window::new(warm, total - warm)
    }

    pub fn measured(&self) -> Duration {
        self.end - self.warm_end
    }
}
