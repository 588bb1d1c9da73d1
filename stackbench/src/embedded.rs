//! `embedded-snapshot`: delay-free snapshot readers beside a streaming
//! writer, in process (the paper's §7 shape).
//!
//! A `Database<SumU64Map>` holds the accounts. One reader thread runs
//! read transactions of 16 uniform point gets, one `aug_range` over 1% of
//! the keys and an `aug_total` that must equal the conserved total. One
//! writer thread commits 256 balance transfers per transaction as one
//! sorted `multi_insert` of 512 keys.
//!
//! Ladder: `ftree` (a bare `Forest`, reads and writes interleaved on one
//! thread), `vm` (Figure 1 written out on a standalone `PswfVm` plus a
//! `Forest`, reader and writer threads) and `core` (sessions on a
//! `Database`, the workload itself).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use mvcc_core::ftree::{Forest, Root, SumU64Map};
use mvcc_core::vm::{PswfVm, VersionMaintenance};
use mvcc_core::Database;
use rand::{Rng, SeedableRng, StdRng};

use crate::ladder::{self, Rung, Window};
use crate::stats::{median, Samples};
use crate::trace::{self, SpanAgg, Tracer};
use crate::{procfs, Args, Outcome, Scale};

type Db = Database<SumU64Map>;

const GETS: usize = 16;

/// Problem size.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub keys: u64,
    pub balance: u64,
    pub transfers: usize,
    pub read_ops: usize,
    pub write_ops: usize,
}

impl Cfg {
    pub fn new(scale: Scale) -> Cfg {
        match scale {
            // 1M accounts: about 40 MB of tuples, 10x a 4 MiB L2.
            Scale::Full => Cfg {
                keys: 1_000_000,
                balance: 1_000,
                transfers: 256,
                read_ops: 1 << 16,
                write_ops: 1 << 10,
            },
            Scale::Smoke => Cfg {
                keys: 20_000,
                balance: 1_000,
                transfers: 64,
                read_ops: 1 << 10,
                write_ops: 1 << 6,
            },
        }
    }

    fn total(&self) -> u64 {
        self.keys * self.balance
    }

    fn range(&self) -> u64 {
        (self.keys / 100).max(1)
    }
}

/// One read transaction's inputs.
pub struct ReadOp {
    keys: [u64; GETS],
    lo: u64,
}

/// One write transaction's inputs: distinct sorted keys, and transfers
/// as (from, to, amount) with indices into `keys`.
pub struct WriteOp {
    keys: Vec<u64>,
    moves: Vec<(u16, u16, u64)>,
}

pub struct Streams {
    reads: Vec<ReadOp>,
    writes: Vec<WriteOp>,
}

/// The seeded op streams, generated during set-up.
pub fn generate(cfg: &Cfg, seed: u64) -> Streams {
    let mut rng = StdRng::seed_from_u64(seed);
    let reads = (0..cfg.read_ops)
        .map(|_| ReadOp {
            keys: std::array::from_fn(|_| rng.gen_range(0..cfg.keys)),
            lo: rng.gen_range(0..cfg.keys - cfg.range() + 1),
        })
        .collect();
    let writes = (0..cfg.write_ops)
        .map(|_| {
            // 2 * transfers distinct keys, paired in draw order.
            let mut drawn: Vec<u64> = Vec::with_capacity(2 * cfg.transfers);
            let mut seen = std::collections::HashSet::new();
            while drawn.len() < 2 * cfg.transfers {
                let k = rng.gen_range(0..cfg.keys);
                if seen.insert(k) {
                    drawn.push(k);
                }
            }
            let mut keys = drawn.clone();
            keys.sort_unstable();
            let idx = |k: u64| keys.binary_search(&k).expect("drawn key") as u16;
            let moves = drawn
                .chunks(2)
                .map(|p| (idx(p[0]), idx(p[1]), rng.gen_range(1..=100u64)))
                .collect();
            WriteOp { keys, moves }
        })
        .collect();
    Streams { reads, writes }
}

/// A read transaction's body on one snapshot. Returns whether it saw
/// every key and the conserved total.
fn read_body(tr: &mut Tracer, f: &Forest<SumU64Map>, root: Root, op: &ReadOp, cfg: &Cfg) -> bool {
    let found = tr.span("ftree.get", |_| {
        op.keys.iter().filter(|k| f.get(root, k).is_some()).count()
    });
    let hi = op.lo + cfg.range();
    black_box(tr.span("ftree.aug_range", |_| f.aug_range(root, &op.lo, &hi)));
    let total = tr.span("ftree.aug_total", |_| f.aug_total(root));
    found == GETS && total == cfg.total()
}

/// A write transaction's reads: the new balances of `op.keys` after its
/// transfers, as a sorted batch. `None` if a key is missing.
fn plan_write(
    tr: &mut Tracer,
    f: &Forest<SumU64Map>,
    root: Root,
    op: &WriteOp,
) -> Option<Vec<(u64, u64)>> {
    let mut bal: Vec<u64> = tr.span("ftree.write_gets", |_| {
        op.keys
            .iter()
            .map(|k| f.get(root, k).copied())
            .collect::<Option<Vec<u64>>>()
    })?;
    for &(a, b, amount) in &op.moves {
        let moved = amount.min(bal[a as usize]);
        bal[a as usize] -= moved;
        bal[b as usize] += moved;
    }
    Some(op.keys.iter().copied().zip(bal).collect())
}

fn keep_new(_: &u64, new: &u64) -> u64 {
    *new
}

fn preload(cfg: &Cfg) -> Vec<(u64, u64)> {
    (0..cfg.keys).map(|k| (k, cfg.balance)).collect()
}

/// Set-up: an empty database, the preload and the op streams.
fn setup(cfg: &Cfg, seed: u64) -> (Db, Streams, f64) {
    let t0 = Instant::now();
    let db: Db = Database::new(2);
    let items = preload(cfg);
    db.session()
        .expect("fresh database has pids")
        .write_raw(|f, base| {
            f.release(base);
            (f.build_sorted(&items), ())
        });
    let streams = generate(cfg, seed);
    (db, streams, t0.elapsed().as_secs_f64())
}

/// What one run of reader and writer threads produced.
#[derive(Default)]
struct Run {
    reads: Samples,
    writes: Samples,
    bad_reads: u64,
    bad_writes: u64,
    peak_live: u64,
    live_versions_max: u64,
    reader_collects: u64,
    set_failures: u64,
    released_tuples: u64,
    tracers: Vec<Tracer>,
}

impl Run {
    fn attempted(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64
    }
    fn failed(&self) -> u64 {
        self.bad_reads + self.bad_writes
    }
    fn spans(&self) -> BTreeMap<&'static str, SpanAgg> {
        trace::fold(&self.tracers)
    }
}

/// The workload itself (rung `core`): a reader and a writer session.
fn run_core(db: &Db, s: &Streams, cfg: &Cfg, w: Window, traced: bool) -> Run {
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut tr = Tracer::new(traced);
            let mut sess = db.session().expect("reader pid");
            let mut r = Run::default();
            let mut i = 0;
            loop {
                let t0 = Instant::now();
                if t0 >= w.end {
                    break;
                }
                let op = &s.reads[i % s.reads.len()];
                let ok = tr.span("core.read", |tr| {
                    sess.read(|snap| read_body(tr, snap.forest(), snap.root(), op, cfg))
                });
                if t0 >= w.warm_end {
                    r.reads
                        .push_at(t0.elapsed().as_nanos() as u64, t0 - w.warm_end);
                    r.bad_reads += u64::from(!ok);
                }
                if i.is_multiple_of(64) {
                    r.peak_live = r.peak_live.max(db.forest().arena().live());
                }
                i += 1;
            }
            r.tracers.push(tr);
            r
        });
        let writer = scope.spawn(|| {
            let mut tr = Tracer::new(traced);
            let mut sess = db.session().expect("writer pid");
            let mut r = Run::default();
            let mut i = 0;
            loop {
                let t0 = Instant::now();
                if t0 >= w.end {
                    break;
                }
                let op = &s.writes[i % s.writes.len()];
                let ok = tr.span("core.write", |tr| {
                    sess.write(|txn| match plan_write(tr, txn.forest(), txn.root(), op) {
                        Some(batch) => {
                            tr.span("ftree.multi_insert", |_| txn.multi_insert(batch, keep_new));
                            true
                        }
                        None => false,
                    })
                });
                if t0 >= w.warm_end {
                    r.writes
                        .push_at(t0.elapsed().as_nanos() as u64, t0 - w.warm_end);
                    r.bad_writes += u64::from(!ok);
                }
                i += 1;
            }
            r.tracers.push(tr);
            r
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    merge(reader, writer)
}

fn merge(mut reader: Run, writer: Run) -> Run {
    reader.writes = writer.writes;
    reader.bad_writes = writer.bad_writes;
    reader.set_failures += writer.set_failures;
    reader.released_tuples += writer.released_tuples;
    reader.tracers.extend(writer.tracers);
    reader
}

/// Rung `vm`: Figure 1 written out by hand on a standalone `PswfVm`
/// plus a `Forest`, with the same reader and writer threads.
fn run_vm(cfg: &Cfg, s: &Streams, w_total: f64, out: &mut Outcome) -> Run {
    let forest: Forest<SumU64Map> = Forest::new();
    let root = forest.build_sorted(&preload(cfg));
    let vm = PswfVm::new(2, u64::from(root.raw()));
    let w = Window::split(w_total);
    let (reader, writer) = std::thread::scope(|scope| {
        let (forest, vm) = (&forest, &vm);
        let reader = scope.spawn(move || {
            let mut tr = Tracer::new(true);
            let mut r = Run::default();
            let mut released = Vec::new();
            let ctx = forest.ctx_for(0);
            let mut i = 0;
            loop {
                let t0 = Instant::now();
                if t0 >= w.end {
                    break;
                }
                let op = &s.reads[i % s.reads.len()];
                let _pin = forest.arena().pin(ctx);
                let tok = tr.span("vm.acquire", |_| vm.acquire(0));
                let ok = read_body(&mut tr, forest, Root::from_raw(tok as u32), op, cfg);
                // Sampled while this reader still holds its version.
                let live = vm.uncollected_versions();
                tr.span("vm.release", |_| vm.release(0, &mut released));
                let collected = !released.is_empty();
                if collected {
                    tr.span("vm.reader_collect", |_| {
                        for t in released.drain(..) {
                            forest.release(Root::from_raw(t as u32));
                        }
                    });
                }
                if t0 >= w.warm_end {
                    r.reads.push(t0.elapsed().as_nanos() as u64);
                    r.bad_reads += u64::from(!ok);
                    r.reader_collects += u64::from(collected);
                    r.live_versions_max = r.live_versions_max.max(live);
                }
                i += 1;
            }
            r.tracers.push(tr);
            r
        });
        let writer = scope.spawn(move || {
            let mut tr = Tracer::new(true);
            let mut r = Run::default();
            let mut released = Vec::new();
            let ctx = forest.ctx_for(1);
            let mut i = 0;
            loop {
                let t0 = Instant::now();
                if t0 >= w.end {
                    break;
                }
                let op = &s.writes[i % s.writes.len()];
                let _pin = forest.arena().pin(ctx);
                let ok = loop {
                    let base = Root::from_raw(tr.span("vm.acquire", |_| vm.acquire(1)) as u32);
                    forest.retain(base);
                    let Some(batch) = plan_write(&mut tr, forest, base, op) else {
                        forest.release(base);
                        tr.span("vm.release", |_| vm.release(1, &mut released));
                        for t in released.drain(..) {
                            forest.release(Root::from_raw(t as u32));
                        }
                        break false;
                    };
                    let new = tr.span("ftree.multi_insert", |_| {
                        forest.multi_insert(base, batch, keep_new)
                    });
                    let set = tr.span("vm.set", |_| vm.set(1, u64::from(new.raw())));
                    tr.span("vm.release", |_| vm.release(1, &mut released));
                    for t in released.drain(..) {
                        forest.release(Root::from_raw(t as u32));
                    }
                    if set {
                        break true;
                    }
                    forest.release(new);
                    r.set_failures += 1;
                };
                if t0 >= w.warm_end {
                    r.writes.push(t0.elapsed().as_nanos() as u64);
                    r.bad_writes += u64::from(!ok);
                }
                i += 1;
            }
            r.tracers.push(tr);
            r
        });
        (
            reader.join().expect("vm reader thread"),
            writer.join().expect("vm writer thread"),
        )
    });
    let versions = vm.uncollected_versions();
    out.check(versions == 1, || {
        format!("rung vm: {versions} live versions at quiescence")
    });
    crate::check_forest(out, "rung vm", &forest, Root::from_raw(vm.current() as u32));
    merge(reader, writer)
}

/// Rung `ftree`: a bare `Forest`, one thread, `ratio` read transactions
/// per write transaction.
fn run_ftree(cfg: &Cfg, s: &Streams, w_total: f64, ratio: usize, out: &mut Outcome) -> (Run, f64) {
    let forest: Forest<SumU64Map> = Forest::new();
    let mut root = forest.build_sorted(&preload(cfg));
    let mut tr = Tracer::new(true);
    let mut r = Run::default();
    let w = Window::split(w_total);
    let mut release_ns = 0u64;
    let (mut ri, mut wi) = (0, 0);
    loop {
        let t0 = Instant::now();
        if t0 >= w.end {
            break;
        }
        let measured = t0 >= w.warm_end;
        if ri % ratio == ratio - 1 {
            let op = &s.writes[wi % s.writes.len()];
            wi += 1;
            let Some(batch) = plan_write(&mut tr, &forest, root, op) else {
                r.bad_writes += 1;
                break;
            };
            forest.retain(root);
            let new = tr.span("ftree.multi_insert", |_| {
                forest.multi_insert(root, batch, keep_new)
            });
            let t1 = Instant::now();
            let freed = forest.release(root) as u64;
            if measured {
                release_ns += t1.elapsed().as_nanos() as u64;
                r.released_tuples += freed;
                r.writes.push(t0.elapsed().as_nanos() as u64);
            }
            root = new;
        }
        let op = &s.reads[ri % s.reads.len()];
        ri += 1;
        let t1 = Instant::now();
        let ok = read_body(&mut tr, &forest, root, op, cfg);
        if measured {
            r.reads.push(t1.elapsed().as_nanos() as u64);
            r.bad_reads += u64::from(!ok);
        }
    }
    crate::check_forest(out, "rung ftree", &forest, root);
    let (nodes, depth_sum) = crate::walk(&forest, root);
    out.set(
        "ftree.nodes_per_lookup",
        depth_sum as f64 / nodes.max(1) as f64,
    );
    forest.release(root);
    r.tracers.push(tr);
    let per_tuple = release_ns as f64 / r.released_tuples.max(1) as f64;
    (r, per_tuple)
}

fn sizes_line(cfg: &Cfg) -> String {
    let slot = crate::slot_bytes::<SumU64Map>();
    format!(
        "sizes: keys={} slot_bytes={} tuples_mb={:.1} gets/read={} aug_range_keys={} transfers/write={} batch_keys={} read_stream={} write_stream={} threads=reader+writer",
        cfg.keys,
        slot,
        (cfg.keys * slot) as f64 / 1e6,
        GETS,
        cfg.range(),
        cfg.transfers,
        2 * cfg.transfers,
        cfg.read_ops,
        cfg.write_ops
    )
}

/// Checks and end-state metrics shared by both modes.
fn finish(out: &mut Outcome, db: &Db, cfg: &Cfg, run: &Run, sync: Duration, reps: usize) {
    out.attempted += run.attempted();
    out.failed += run.failed();
    out.check(run.bad_reads == 0, || {
        format!(
            "{} read txns missed a key or saw a wrong total",
            run.bad_reads
        )
    });
    out.check(run.bad_writes == 0, || {
        format!("{} write txns missed a key", run.bad_writes)
    });
    let root = crate::check_quiescent(out, "embedded", db);
    let entries = db.forest().to_vec(root);
    let sum: u64 = entries.iter().map(|e| e.1).sum();
    out.check(
        sum == cfg.total() && entries.len() as u64 == cfg.keys,
        || format!("end state: {} keys summing to {sum}", entries.len()),
    );
    out.set(
        "bytes_per_key",
        (run.peak_live * crate::slot_bytes::<SumU64Map>()) as f64 / cfg.keys as f64,
    );
    let (stored, times) = crate::checkpoint_and_recover::<SumU64Map>(out, &entries, sync, reps);
    out.set("stored_bytes_per_key", stored as f64 / cfg.keys as f64);
    out.set("recover_s", median(&times));
}

/// Entry point for `--workload embedded-snapshot`.
pub fn run(args: &Args) -> Outcome {
    let cfg = Cfg::new(args.scale);
    let mut out = Outcome::default();
    out.line(sizes_line(&cfg));
    let setups = if args.trace { 1 } else { crate::REPEATS };
    let ((db, streams), setup_s) = crate::set_up(setups, || {
        let (db, streams, secs) = setup(&cfg, args.seed);
        ((db, streams), secs)
    });
    out.set("setup_s", setup_s);
    let sync = crate::durable::sync_latency();

    if !args.trace {
        let warm = (args.seconds * 0.1).min(1.0);
        let run = run_core(&db, &streams, &cfg, Window::new(warm, args.seconds), false);
        let elapsed = Duration::from_secs_f64(args.seconds);
        crate::set_latency(
            &mut out,
            "read txn",
            &run.reads,
            elapsed,
            ["read_ops_s", "read_p50_us", "read_p90_us"],
        );
        crate::set_latency(
            &mut out,
            "write txn",
            &run.writes,
            elapsed,
            ["write_ops_s", "write_p50_us", "write_p90_us"],
        );
        finish(&mut out, &db, &cfg, &run, sync, crate::REPEATS);
        out.set(
            "ok_ratio",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        );
        return out;
    }

    // Traced mode. Phase A: untraced workload (the end-to-end reference).
    let slice = args.seconds / 5.0;
    let cpu0 = procfs::process_cpu_ns();
    let a = run_core(&db, &streams, &cfg, Window::split(slice), false);
    let cpu_a = procfs::process_cpu_ns() - cpu0;
    let e2e_read = a.reads.summary();
    out.set(
        "proc.cpu_us_per_op",
        cpu_a as f64 / 1e3 / a.attempted().max(1) as f64,
    );

    // Phase B: the workload with spans, plus arena and txn counters, on
    // a fresh database so it starts where phase A and every rung start.
    crate::check_quiescent(&mut out, "embedded phase A", &db);
    drop(db);
    let db = setup(&cfg, args.seed).0;
    let arena0 = db.forest().arena().stats();
    let txn0 = db.stats();
    let b = run_core(&db, &streams, &cfg, Window::split(slice), true);
    let arena1 = db.forest().arena().stats();
    let txn1 = db.stats();
    let commits = (txn1.commits - txn0.commits).max(1) as f64;
    out.set(
        "plm.alloc_per_write",
        (arena1.allocated_total - arena0.allocated_total) as f64 / commits,
    );
    out.set(
        "plm.freed_per_write",
        (arena1.freed_total - arena0.freed_total) as f64 / commits,
    );
    out.set(
        "plm.peak_live_per_key",
        b.peak_live as f64 / cfg.keys as f64,
    );
    out.set(
        "vm.set_failures_per_commit",
        (txn1.aborts - txn0.aborts) as f64 / commits,
    );
    let b_read = b.reads.summary();
    let b_write = b.writes.summary();
    out.set(
        "trace.overhead_pct",
        100.0 * (b_read.p50 as f64 - e2e_read.p50 as f64) / e2e_read.p50 as f64,
    );
    out.set("core.session_open_ns", crate::session_open_ns(&db));
    for (name, agg) in b.spans() {
        out.line(format!(
            "span {name}: n={} mean={:.0}ns self={:.0}ns",
            agg.count,
            agg.mean_ns(),
            agg.self_ns as f64 / agg.count.max(1) as f64
        ));
    }

    // Phase C: the ladder below the workload, then the workload untraced.
    let ratio = (a.reads.len() / a.writes.len().max(1)).max(1);
    let (f, release_per_tuple) = run_ftree(&cfg, &streams, slice, ratio, &mut out);
    let fs = f.spans();
    out.set("ftree.get_ns", fs["ftree.get"].median_ns() / GETS as f64);
    out.set("ftree.aug_range_ns", fs["ftree.aug_range"].median_ns());
    if let Some(mi) = fs.get("ftree.multi_insert") {
        out.set(
            "ftree.multi_insert_ns_per_key",
            mi.median_ns() / (2 * cfg.transfers) as f64,
        );
    }
    out.set("ftree.release_ns_per_tuple", release_per_tuple);

    let v = run_vm(&cfg, &streams, slice, &mut out);
    let vs = v.spans();
    out.set("vm.acquire_ns", vs["vm.acquire"].median_ns());
    out.set("vm.release_ns", vs["vm.release"].median_ns());
    if let Some(set) = vs.get("vm.set") {
        out.set("vm.set_ns", set.median_ns());
    }
    out.set(
        "vm.reader_collect_share",
        v.reader_collects as f64 / v.reads.len().max(1) as f64,
    );
    if let Some(c) = vs.get("vm.reader_collect") {
        out.set("vm.reader_collect_us", c.mean_ns() / 1e3);
    }
    out.set("vm.live_versions_max", v.live_versions_max as f64);
    let v_read = v.reads.summary();
    let v_write = v.writes.summary();
    out.set(
        "core.read_txn_ns_over_vm",
        b_read.p50 as f64 - v_read.p50 as f64,
    );
    out.set(
        "core.write_txn_ns_over_vm",
        b_write.p50 as f64 - v_write.p50 as f64,
    );

    let checked = crate::check_quiescent(&mut out, "embedded phase B", &db);
    out.check(db.forest().aug_total(checked) == cfg.total(), || {
        "phase B end total".into()
    });
    drop(db);
    let db = setup(&cfg, args.seed).0;
    let top = run_core(&db, &streams, &cfg, Window::split(slice), false);
    let f_read = f.reads.summary();
    let rungs = [
        Rung {
            name: "ftree",
            adds: "mvcc-ftree + mvcc-plm",
            metric: "ladder.ftree_us",
            us: f_read.p50 as f64 / 1e3,
        },
        Rung {
            name: "vm",
            adds: "mvcc-vm + concurrent writer",
            metric: "ladder.vm_us",
            us: v_read.p50 as f64 / 1e3,
        },
        Rung {
            name: "core",
            adds: "mvcc-core session",
            metric: "ladder.core_us",
            us: top.reads.summary().p50 as f64 / 1e3,
        },
    ];
    ladder::report(&mut out, "read txn", e2e_read.p50 as f64 / 1e3, &rungs);

    for r in [&a, &b, &f, &v, &top] {
        out.attempted += r.attempted();
        out.failed += r.failed();
    }
    out.check(out.failed == 0, || {
        "a traced phase saw a wrong read or a missing key".into()
    });
    let root = crate::check_quiescent(&mut out, "embedded", &db);
    let total = db.forest().aug_total(root);
    out.check(total == cfg.total(), || format!("end total {total}"));
    out
}
