//! `stackbench` — one benchmark for the whole stack.
//!
//! Three closed-loop workloads run from a single process with at most
//! `nproc` load threads: `embedded-snapshot` (snapshot readers beside a
//! streaming writer, in process), `wire-kv` (the TCP server over a
//! router) and `durable-commit` (logged, group-committed writes with the
//! maintenance supervisor). With tracing off a run prints every
//! end-to-end metric; a traced run replays the same seeded op stream up
//! a layer ladder and prints the per-layer metrics. See `README.md` in
//! this directory for each workload's reason and each metric's meaning.

pub mod device;
pub mod durable;
pub mod embedded;
pub mod ladder;
pub mod procfs;
pub mod stats;
pub mod trace;
pub mod wire;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvcc_core::ftree::{Forest, Root, TreeParams};
use mvcc_core::vm::VersionMaintenance;
use mvcc_core::{Database, Durability, DurableConfig, DurableDatabase};

use crate::device::SimDevice;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("read_ops_s", "ops/s"),
    ("write_ops_s", "ops/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("ok_ratio", "ratio"),
    ("bytes_per_key", "B"),
    ("stored_bytes_per_key", "B"),
    ("recover_s", "s"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plm.alloc_per_write", "count"),
    ("plm.freed_per_write", "count"),
    ("plm.peak_live_per_key", "ratio"),
    ("ftree.get_ns", "ns"),
    ("ftree.aug_range_ns", "ns"),
    ("ftree.nodes_per_lookup", "count"),
    ("ftree.multi_insert_ns_per_key", "ns"),
    ("ftree.release_ns_per_tuple", "ns"),
    ("ftree.insert_ns", "ns"),
    ("vm.acquire_ns", "ns"),
    ("vm.set_ns", "ns"),
    ("vm.release_ns", "ns"),
    ("vm.reader_collect_share", "ratio"),
    ("vm.reader_collect_us", "us"),
    ("vm.live_versions_max", "count"),
    ("vm.set_failures_per_commit", "ratio"),
    ("core.session_open_ns", "ns"),
    ("core.read_txn_ns_over_vm", "ns"),
    ("core.write_txn_ns_over_vm", "ns"),
    ("core.admission_wait_p50_ns", "ns"),
    ("core.admission_wait_p99_ns", "ns"),
    ("durable.visible_us", "us"),
    ("durable.ack_wait_us", "us"),
    ("wal.commits_per_sync", "ratio"),
    ("wal.log_cpu_us_per_commit", "us"),
    ("wal.bytes_per_commit", "B"),
    ("wal.blocked_share", "ratio"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.replayed_batches", "count"),
    ("wal.run_stored_bytes_per_key", "B"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("net.wire_over_core_us", "us"),
    ("net.server_cpu_us_per_req", "us"),
    ("net.server_busy_share", "ratio"),
    ("net.per_conn_ns", "ns"),
    ("net.ctx_switches_per_req", "ratio"),
    ("net.max_queue_depth", "count"),
    ("proc.cpu_us_per_op", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("ladder.ftree_us", "us"),
    ("ladder.vm_us", "us"),
    ("ladder.core_us", "us"),
    ("ladder.durable_off_us", "us"),
    ("ladder.durable_always_us", "us"),
    ("ladder.wire_1_us", "us"),
    ("ladder.wire_n_us", "us"),
];

/// An untraced run sets up and recovers at least this many times, and
/// goes on until `REPEAT_SECONDS` have gone into the timed part (at most
/// `MAX_REPEATS` times), then reports the median: one set-up or one
/// recovery is a short timing (15 ms to 0.4 s) that a shared host's noise
/// moves by a quarter.
pub const REPEATS: usize = 9;
pub const REPEAT_SECONDS: f64 = 4.0;
pub const MAX_REPEATS: usize = 101;

/// Whether a timing done `done` times, taking `spent` seconds in all,
/// runs again: at least `min` times and, when `min` asks for more than
/// one, until `REPEAT_SECONDS` are spent.
pub fn repeat_again(done: usize, spent: f64, min: usize) -> bool {
    done < min.max(1) || (min > 1 && spent < REPEAT_SECONDS && done < MAX_REPEATS)
}

/// The workloads, by the names the command line takes.
pub const WORKLOADS: &[&str] = &["embedded-snapshot", "wire-kv", "durable-commit"];

/// Problem size: `Full` is the benchmark; `Smoke` is a seconds-long
/// version of the same shapes for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a run reports: op counts, failed checks, metrics and the human
/// lines printed before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result object: the metric set the run's mode promises, in
    /// table order. A per-layer metric the workload never measured
    /// reads 0; a missing end-to-end metric is a bug.
    pub fn result_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut body = Vec::new();
        for (name, unit) in table {
            let v = match self.metrics.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let v = if v.is_finite() { v } else { 0.0 };
            body.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Run one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let cpus = nproc();
    let host0 = procfs::cpu_steal_ticks();
    let mut out = match args.workload.as_str() {
        "embedded-snapshot" => embedded::run(args),
        "wire-kv" => wire::run(args),
        "durable-commit" => durable::run(args),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    let stamp = format!(
        "stamp: workload={} seed={} seconds={} trace={} scale={:?} nproc={} cpu={:?}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.scale,
        cpus,
        procfs::cpu_model()
    );
    out.lines.insert(0, stamp);
    let (steal, total) = procfs::cpu_steal_ticks();
    out.line(format!(
        "host: {:.2}% of CPU time was stolen by the hypervisor during the run",
        100.0 * steal.saturating_sub(host0.0) as f64 / total.saturating_sub(host0.1).max(1) as f64,
    ));
    Ok(out)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Bytes one arena slot takes for map type `P`: the 8-byte meta word
/// plus the node.
pub fn slot_bytes<P: TreeParams>() -> u64 {
    8 + std::mem::size_of::<mvcc_core::ftree::Node<P>>() as u64
}

/// Set up as [`repeat_again`] says for at least `n` times, dropping each
/// state before the next, and keep the last. Returns it with the median
/// set-up seconds.
pub fn set_up<S>(n: usize, mut setup: impl FnMut() -> (S, f64)) -> (S, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while repeat_again(times.len(), times.iter().sum(), n) {
        drop(state.take());
        let (s, secs) = setup();
        times.push(secs);
        state = Some(s);
    }
    (state.expect("set up at least once"), stats::median(&times))
}

/// `Database::session` plus drop: the median of repeated opens.
pub fn session_open_ns<P: TreeParams, M: VersionMaintenance>(db: &Database<P, M>) -> f64 {
    let mut s = stats::Samples::with_capacity(10_000);
    for _ in 0..10_000 {
        let t0 = Instant::now();
        drop(std::hint::black_box(db.session()));
        s.push(t0.elapsed().as_nanos() as u64);
    }
    s.summary().p50 as f64
}

/// Tuples reachable from `root` and the sum of their depths (root at
/// depth 1), walked through the public `Node` accessors.
pub fn walk<P: TreeParams>(forest: &Forest<P>, root: Root) -> (u64, u64) {
    let mut nodes = 0;
    let mut depth_sum = 0;
    let mut stack = vec![(root, 1u64)];
    while let Some((t, d)) = stack.pop() {
        let Some(id) = t.get() else { continue };
        let n = forest.arena().get(id);
        nodes += 1;
        depth_sum += d;
        stack.push((n.left(), d + 1));
        stack.push((n.right(), d + 1));
    }
    (nodes, depth_sum)
}

/// Precise-GC check on a bare forest holding one root: every live tuple
/// is reachable from it.
pub fn check_forest<P: TreeParams>(out: &mut Outcome, what: &str, forest: &Forest<P>, root: Root) {
    let (reachable, _) = walk(forest, root);
    let live = forest.arena().live();
    out.check(live == reachable, || {
        format!("{what}: arena live {live} != {reachable} reachable tuples")
    });
}

/// Quiescence checks on a database: no session leased, one live
/// version, and arena live equal to the tuples reachable from it.
/// Returns the current root.
pub fn check_quiescent<P: TreeParams, M: VersionMaintenance>(
    out: &mut Outcome,
    what: &str,
    db: &Database<P, M>,
) -> Root {
    let leased = db.sessions_leased();
    out.check(leased == 0, || {
        format!("{what}: {leased} sessions leased at quiescence")
    });
    let versions = db.live_versions();
    out.check(versions == 1, || {
        format!("{what}: {versions} live versions at quiescence")
    });
    let root = match db.session() {
        Ok(mut s) => s.read(|snap| snap.root()),
        Err(e) => {
            out.problems
                .push(format!("{what}: no session at quiescence: {e}"));
            return Root::NONE;
        }
    };
    check_forest(out, what, db.forest(), root);
    root
}

/// The end state's restart cost: write `entries` as one checkpoint to a
/// fresh device (untimed), then recover it cold `reps` times. Returns
/// the bytes stored and each recovery's seconds; checks that every
/// recovery reproduces `entries`.
pub fn checkpoint_and_recover<P>(
    out: &mut Outcome,
    entries: &[(u64, u64)],
    sync_latency: Duration,
    reps: usize,
) -> (u64, Vec<f64>)
where
    P: TreeParams<K = u64, V = u64>,
{
    let dev = Arc::new(SimDevice::new(sync_latency));
    let cfg = DurableConfig::default().with_durability(Durability::Off);
    {
        let dd: DurableDatabase<P> = DurableDatabase::recover_storage(dev.clone(), 1, cfg.clone())
            .expect("open an empty device");
        let mut s = dd.database().session().expect("fresh database has a pid");
        s.write_raw(|f, base| {
            f.release(base);
            (f.build_sorted(entries), ())
        });
        drop(s);
        dd.checkpoint().expect("checkpoint to the in-memory device");
    }
    let stored = dev.stored_bytes();
    let mut times: Vec<f64> = Vec::new();
    while repeat_again(times.len(), times.iter().sum(), reps) {
        let img = Arc::new(dev.image());
        let t0 = Instant::now();
        let dd: DurableDatabase<P> =
            DurableDatabase::recover_storage(img, 1, cfg.clone()).expect("recover the image");
        times.push(t0.elapsed().as_secs_f64());
        let got = dd.session().expect("pid").read(|s| s.to_vec());
        out.check(got == entries, || {
            format!(
                "recovered end state differs ({} vs {} entries)",
                got.len(),
                entries.len()
            )
        });
    }
    (stored, times)
}

/// The end-to-end throughput and latency of one op kind: medians over
/// one-second windows of the measured run (see
/// [`stats::Samples::window_medians`]), plus a human line with the
/// whole run's percentiles.
pub fn set_latency(
    out: &mut Outcome,
    kind: &str,
    samples: &stats::Samples,
    measured: Duration,
    names: [&'static str; 3],
) {
    let windows = (measured.as_secs_f64().floor() as usize).max(1);
    let m = samples.window_medians(Duration::from_secs(1), windows);
    out.set(names[0], m.ops_per_s);
    out.set(names[1], m.p50_ns / 1e3);
    out.set(names[2], m.p90_ns / 1e3);
    out.line(format!(
        "{} | {} one-second windows: median {:.0} ops/s, slowest {:.0}, fastest {:.0}",
        stats::describe(kind, &samples.summary()),
        m.windows,
        m.ops_per_s,
        m.ops_per_s_range.0,
        m.ops_per_s_range.1
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let end = body.find(']').expect("list end");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // Built outside a checkout that carries it.
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        let wl: Vec<String> = WORKLOADS.iter().map(|n| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        assert_eq!(names_in(&json, "workloads"), wl);
    }

    #[test]
    fn result_json_has_every_metric_of_the_mode() {
        let mut o = Outcome::default();
        for (n, _) in END_TO_END {
            o.set(n, 1.5);
        }
        let j = o.result_json(false);
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (n, u) in END_TO_END {
            assert!(j.contains(&format!("\"{n}\": {{\"value\": 1.5, \"unit\": \"{u}\"}}")));
        }
        let t = Outcome::default().result_json(true);
        assert_eq!(t.matches("\"value\"").count(), PER_LAYER.len());
    }
}
