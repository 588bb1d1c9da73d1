//! `durable-commit`: logged, group-committed writes with the maintenance
//! supervisor on, over the benchmark's simulated device.
//!
//! A `DurableDatabase<U64Map>` (`Durability::Always`, `GroupCommit::
//! Leader`) holds the keys. Two writer threads run 16-op
//! read-modify-write (increment) transactions and wait for each ack;
//! after each ack the writer reads the same keys back in a snapshot read
//! transaction and checks that none is below its own acked increments.
//! The supervisor's threshold makes several checkpoints land per run.
//! After the run the end state is recovered cold and every acked
//! increment must be there.
//!
//! Ladder: `ftree` (a bare `Forest`, both writers' streams interleaved on
//! one thread), `vm` (Figure 1 by hand), `core` (sessions on a plain
//! `Database`), `durable-off` (`DurableDatabase`, no log) and
//! `durable-always` (the workload).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mvcc_core::ftree::{Forest, Root, U64Map};
use mvcc_core::vm::{PswfVm, VersionMaintenance};
use mvcc_core::{
    Database, Durability, DurableConfig, DurableDatabase, DurableSession, GroupCommit,
    MaintenancePolicy, Session,
};
use rand::{Rng, SeedableRng, StdRng};

use crate::device::SimDevice;
use crate::ladder::{self, Rung, Window};
use crate::stats::{median, Samples};
use crate::trace::{self, Tracer};
use crate::{procfs, Args, Outcome, Scale};

const WRITERS: usize = 2;
const OPS: usize = 16;

/// The simulated device's sync latency, stamped in the output.
pub fn sync_latency() -> Duration {
    Duration::from_micros(200)
}

#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub keys: u64,
    pub stream: usize,
    pub checkpoint_bytes: u64,
    /// Commits logged after the final checkpoint: the WAL tail every
    /// cold recovery replays.
    pub tail: usize,
}

impl Cfg {
    pub fn new(scale: Scale) -> Cfg {
        match scale {
            Scale::Full => Cfg {
                keys: 100_000,
                stream: 1 << 14,
                checkpoint_bytes: 4 << 20,
                tail: 1024,
            },
            Scale::Smoke => Cfg {
                keys: 5_000,
                stream: 1 << 10,
                checkpoint_bytes: 64 << 10,
                tail: 64,
            },
        }
    }

    fn policy(&self) -> MaintenancePolicy {
        MaintenancePolicy::default().with_wal_bytes_threshold(self.checkpoint_bytes)
    }
}

/// WAL segments a sixteenth of the checkpoint threshold: a checkpoint
/// retires only sealed segments, so the active one's pre-checkpoint
/// bytes stay on the device, and small segments keep that remainder
/// (and the bytes recovery scans past) small.
fn config(cfg: &Cfg, durability: Durability) -> DurableConfig {
    DurableConfig {
        segment_bytes: cfg.checkpoint_bytes / 16,
        ..DurableConfig::default()
            .with_durability(durability)
            .with_group_commit(GroupCommit::Leader)
    }
}

/// Per writer, the key sets of its transactions (distinct keys each).
pub fn generate(cfg: &Cfg, seed: u64) -> Vec<Vec<[u64; OPS]>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..WRITERS)
        .map(|_| {
            (0..cfg.stream)
                .map(|_| {
                    let mut keys = [0u64; OPS];
                    let mut n = 0;
                    while n < OPS {
                        let k = rng.gen_range(0..cfg.keys);
                        if !keys[..n].contains(&k) {
                            keys[n] = k;
                            n += 1;
                        }
                    }
                    keys
                })
                .collect()
        })
        .collect()
}

/// One writer's view of a rung: a read-modify-write transaction that
/// returns once acked, and a read transaction.
trait Worker: Send {
    fn write(&mut self, tr: &mut Tracer, keys: &[u64]) -> Result<(), String>;
    fn read(&mut self, tr: &mut Tracer, keys: &[u64], out: &mut Vec<u64>);
}

/// Results of one phase.
#[derive(Default)]
struct Run {
    writes: Samples,
    reads: Samples,
    ops: u64,
    bad: u64,
    errors: Vec<String>,
    peak_live: u64,
    tracers: Vec<Tracer>,
    cpu_ns: u64,
    commits: u64,
}

/// Drive `workers` (one thread each; a single worker alternates between
/// the writers' streams) until the window ends. `acked` accumulates
/// every acked increment per key.
fn run_workers<W: Worker>(
    streams: &[Vec<[u64; OPS]>],
    workers: &mut [W],
    w: Window,
    traced: bool,
    acked: &mut [u64],
    live: &(dyn Fn() -> u64 + Sync),
) -> Run {
    let single = workers.len() == 1;
    let cpu0 = procfs::process_cpu_ns();
    let results: Vec<(Run, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(t, worker)| {
                let mut base: Vec<u64> = acked.to_vec();
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced);
                    let mut r = Run::default();
                    let mut own = vec![0u64; base.len()];
                    let mut vals = Vec::with_capacity(OPS);
                    let mut i = 0usize;
                    loop {
                        let t0 = Instant::now();
                        if t0 >= w.end {
                            break;
                        }
                        let measured = t0 >= w.warm_end;
                        let stream = if single {
                            &streams[i % WRITERS]
                        } else {
                            &streams[t]
                        };
                        let keys = &stream[(if single { i / WRITERS } else { i }) % stream.len()];
                        i += 1;
                        r.ops += 2;
                        let res = worker.write(&mut tr, keys);
                        let write_ns = t0.elapsed().as_nanos() as u64;
                        match res {
                            Ok(()) => {
                                for &k in keys {
                                    own[k as usize] += 1;
                                    base[k as usize] += 1;
                                }
                                r.commits += 1;
                            }
                            Err(e) => {
                                r.bad += 1;
                                if r.errors.len() < 5 {
                                    r.errors.push(e);
                                }
                            }
                        }
                        let t1 = Instant::now();
                        worker.read(&mut tr, keys, &mut vals);
                        let read_ns = t1.elapsed().as_nanos() as u64;
                        // Another writer only adds, so each value is at
                        // least what this thread has seen acked.
                        if let Some(j) = (0..OPS).find(|&j| vals[j] < base[keys[j] as usize]) {
                            r.bad += 1;
                            r.errors.truncate(4);
                            r.errors.push(format!(
                                "read key {} = {} below its acked count {}",
                                keys[j], vals[j], base[keys[j] as usize]
                            ));
                        }
                        if measured {
                            r.writes.push_at(write_ns, t0 - w.warm_end);
                            r.reads.push_at(read_ns, t0 - w.warm_end);
                        }
                        if t == 0 && i.is_multiple_of(16) {
                            r.peak_live = r.peak_live.max(live());
                        }
                    }
                    r.tracers.push(tr);
                    (r, own)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    let mut all = Run {
        cpu_ns: procfs::process_cpu_ns() - cpu0,
        ..Run::default()
    };
    for (r, own) in results {
        for (a, o) in acked.iter_mut().zip(own) {
            *a += o;
        }
        all.writes.extend(&r.writes);
        all.reads.extend(&r.reads);
        all.ops += r.ops;
        all.bad += r.bad;
        all.commits += r.commits;
        all.errors.extend(r.errors.into_iter().take(5));
        all.peak_live = all.peak_live.max(r.peak_live);
        all.tracers.extend(r.tracers);
    }
    all
}

fn read_into(out: &mut Vec<u64>, keys: &[u64], mut get: impl FnMut(u64) -> Option<u64>) {
    out.clear();
    out.extend(keys.iter().map(|&k| get(k).unwrap_or(0)));
}

/// The workload's writer, and rung `durable-off` (same code, no log).
struct DurableWorker<'a>(DurableSession<'a, U64Map>);

impl Worker for DurableWorker<'_> {
    fn write(&mut self, tr: &mut Tracer, keys: &[u64]) -> Result<(), String> {
        let (_, ack) = tr
            .span("durable.visible", |_| {
                self.0.write_acked(|txn| {
                    for &k in keys {
                        let v = txn.get(&k).copied().unwrap_or(0);
                        txn.insert(k, v + 1);
                    }
                })
            })
            .map_err(|e| format!("durable write: {e}"))?;
        tr.span("durable.ack_wait", |_| ack.wait())
            .map_err(|e| format!("ack: {e}"))
    }

    fn read(&mut self, _: &mut Tracer, keys: &[u64], out: &mut Vec<u64>) {
        self.0
            .read(|s| read_into(out, keys, |k| s.get(&k).copied()));
    }
}

/// Rung `core`: sessions on a plain `Database`.
struct CoreWorker<'a>(Session<'a, U64Map>);

impl Worker for CoreWorker<'_> {
    fn write(&mut self, tr: &mut Tracer, keys: &[u64]) -> Result<(), String> {
        tr.span("core.write", |_| {
            self.0.write(|txn| {
                for &k in keys {
                    let v = txn.get(&k).copied().unwrap_or(0);
                    txn.insert(k, v + 1);
                }
            })
        });
        Ok(())
    }

    fn read(&mut self, _: &mut Tracer, keys: &[u64], out: &mut Vec<u64>) {
        self.0
            .read(|s| read_into(out, keys, |k| s.get(&k).copied()));
    }
}

/// Path-copy the increments of `keys` onto `base` (consumed).
fn increment(tr: &mut Tracer, f: &Forest<U64Map>, base: Root, keys: &[u64]) -> Root {
    let mut t = base;
    for &k in keys {
        let v = tr.span("ftree.get", |_| f.get(t, &k).copied().unwrap_or(0));
        t = tr.span("ftree.insert", |_| f.insert(t, k, v + 1));
    }
    t
}

/// Rung `ftree`: a bare `Forest` and its one root.
struct FtreeWorker<'a> {
    f: &'a Forest<U64Map>,
    root: Root,
    release_ns: u64,
    freed: u64,
}

impl Worker for FtreeWorker<'_> {
    fn write(&mut self, tr: &mut Tracer, keys: &[u64]) -> Result<(), String> {
        self.f.retain(self.root);
        let new = increment(tr, self.f, self.root, keys);
        let t0 = Instant::now();
        self.freed += self.f.release(std::mem::replace(&mut self.root, new)) as u64;
        self.release_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }

    fn read(&mut self, _: &mut Tracer, keys: &[u64], out: &mut Vec<u64>) {
        read_into(out, keys, |k| self.f.get(self.root, &k).copied());
    }
}

/// Rung `vm`: Figure 1 written out on a standalone `PswfVm`.
struct VmWorker<'a> {
    f: &'a Forest<U64Map>,
    vm: &'a PswfVm,
    pid: usize,
    released: Vec<u64>,
    reads: u64,
    reader_collects: u64,
    live_versions_max: u64,
}

impl VmWorker<'_> {
    /// Release this pid's version and collect what it returns; `true`
    /// if anything was returned.
    fn finish(&mut self, tr: &mut Tracer, collect_span: &'static str) -> bool {
        tr.span("vm.release", |_| {
            self.vm.release(self.pid, &mut self.released)
        });
        if self.released.is_empty() {
            return false;
        }
        let (f, released) = (self.f, &mut self.released);
        tr.span(collect_span, |_| {
            for t in released.drain(..) {
                f.release(Root::from_raw(t as u32));
            }
        });
        true
    }
}

impl Worker for VmWorker<'_> {
    fn write(&mut self, tr: &mut Tracer, keys: &[u64]) -> Result<(), String> {
        let f = self.f;
        let _pin = f.arena().pin(f.ctx_for(self.pid));
        loop {
            let base = Root::from_raw(tr.span("vm.acquire", |_| self.vm.acquire(self.pid)) as u32);
            self.f.retain(base);
            let new = increment(tr, self.f, base, keys);
            let ok = tr.span("vm.set", |_| self.vm.set(self.pid, u64::from(new.raw())));
            self.finish(tr, "vm.writer_collect");
            if ok {
                return Ok(());
            }
            self.f.release(new);
        }
    }

    fn read(&mut self, tr: &mut Tracer, keys: &[u64], out: &mut Vec<u64>) {
        let f = self.f;
        let _pin = f.arena().pin(f.ctx_for(self.pid));
        let root = Root::from_raw(tr.span("vm.acquire", |_| self.vm.acquire(self.pid)) as u32);
        read_into(out, keys, |k| f.get(root, &k).copied());
        // Sampled while this reader still holds its version.
        self.live_versions_max = self.live_versions_max.max(self.vm.uncollected_versions());
        self.reads += 1;
        if self.finish(tr, "vm.reader_collect") {
            self.reader_collects += 1;
        }
    }
}

fn preload(cfg: &Cfg) -> Vec<(u64, u64)> {
    (0..cfg.keys).map(|k| (k, 0)).collect()
}

/// The workload's database on its device, with the supervisor running.
struct Stack {
    dev: Arc<SimDevice>,
    dd: Arc<DurableDatabase<U64Map>>,
    maintenance: mvcc_core::MaintenanceHandle,
    streams: Vec<Vec<[u64; OPS]>>,
}

/// Set-up: device, logged preload, a first checkpoint, the supervisor
/// and the op streams.
fn setup(cfg: &Cfg, seed: u64) -> (Stack, f64) {
    let t0 = Instant::now();
    let dev = Arc::new(SimDevice::new(sync_latency()));
    let dd = Arc::new(
        DurableDatabase::<U64Map>::recover_storage(
            dev.clone(),
            WRITERS + 1,
            config(cfg, Durability::Always),
        )
        .expect("open an empty device"),
    );
    {
        let mut s = dd.session().expect("fresh database has pids");
        for chunk in preload(cfg).chunks(4096) {
            s.write(|txn| txn.multi_insert(chunk.to_vec(), |_, new| *new))
                .expect("logged preload");
        }
    }
    dd.checkpoint().expect("first checkpoint");
    let maintenance = dd.start_maintenance(cfg.policy());
    let streams = generate(cfg, seed);
    let secs = t0.elapsed().as_secs_f64();
    (
        Stack {
            dev,
            dd,
            maintenance,
            streams,
        },
        secs,
    )
}

fn durable_workers(dd: &DurableDatabase<U64Map>) -> Vec<DurableWorker<'_>> {
    (0..WRITERS)
        .map(|_| DurableWorker(dd.session().expect("writer pid")))
        .collect()
}

fn live_of(db: &Database<U64Map>) -> impl Fn() -> u64 + Sync + '_ {
    move || db.forest().arena().live()
}

/// Stop the supervisor and take a final checkpoint, then commit a fixed
/// tail of `cfg.tail` transactions from one session, so every run
/// recovers the same amount of log. Check quiescence and the in-memory
/// end state, then recover the device image cold (at least `reps` times,
/// as [`crate::repeat_again`] says) and check that every acked increment
/// survived and exactly the tail replayed.
/// Returns the recovery times.
fn teardown(out: &mut Outcome, cfg: &Cfg, st: Stack, acked: &mut [u64], reps: usize) -> Vec<f64> {
    let Stack {
        dev,
        dd,
        maintenance,
        streams,
    } = st;
    maintenance.shutdown();
    let health = dd.health();
    out.check(!health.is_degraded(), || {
        format!("maintenance degraded: {health:?}")
    });
    dd.checkpoint().expect("final checkpoint");
    let mut tail = [DurableWorker(dd.session().expect("tail pid"))];
    let mut tr = Tracer::new(false);
    for keys in streams[0].iter().cycle().take(cfg.tail) {
        match tail[0].write(&mut tr, keys) {
            Ok(()) => keys.iter().for_each(|&k| acked[k as usize] += 1),
            Err(e) => out.problems.push(e),
        }
    }
    drop(tail);
    let root = crate::check_quiescent(out, "durable", dd.database());
    let entries = dd.database().forest().to_vec(root);
    let expect: Vec<(u64, u64)> = acked
        .iter()
        .enumerate()
        .map(|(k, &n)| (k as u64, n))
        .collect();
    out.check(entries == expect, || {
        "in-memory end state differs from the acked increments".into()
    });
    drop(dd);
    let mut times: Vec<f64> = Vec::new();
    let mut replayed = 0;
    while crate::repeat_again(times.len(), times.iter().sum(), reps) {
        let (n, secs) = recover_and_check(out, cfg, &dev, &expect, "after teardown");
        replayed = n;
        times.push(secs);
    }
    out.check(replayed == cfg.tail, || {
        format!(
            "recovery replayed {replayed} batches, not the {} of the tail",
            cfg.tail
        )
    });
    times
}

/// Recover a copy of `dev` cold and check that it holds exactly
/// `expect`. Returns the batches replayed and the seconds the recovery
/// itself took.
fn recover_and_check(
    out: &mut Outcome,
    cfg: &Cfg,
    dev: &SimDevice,
    expect: &[(u64, u64)],
    when: &str,
) -> (usize, f64) {
    let img = Arc::new(dev.image());
    let t0 = Instant::now();
    let rec = DurableDatabase::<U64Map>::recover_storage(img, 1, config(cfg, Durability::Always))
        .expect("recover");
    let secs = t0.elapsed().as_secs_f64();
    let got = rec.session().expect("pid").read(|s| s.to_vec());
    out.check(got == expect, || {
        let differ = got.iter().zip(expect).filter(|(g, e)| g != e).count();
        format!("{when}: after recovery {differ} keys differ from their acked increments")
    });
    (rec.recovery().replayed, secs)
}

fn account(out: &mut Outcome, r: &Run) {
    out.attempted += r.ops;
    out.failed += r.bad;
    out.problems.extend(r.errors.iter().take(5).cloned());
}

fn sizes_line(cfg: &Cfg) -> String {
    format!(
        "sizes: keys={} slot_bytes={} writers={} ops/txn={} stream/writer={} durability=Always group_commit=Leader checkpoint_wal_bytes={} device=in-memory-simulated sync_latency_us={} threads=2 writers+supervisor",
        cfg.keys,
        crate::slot_bytes::<U64Map>(),
        WRITERS,
        OPS,
        cfg.stream,
        cfg.checkpoint_bytes,
        sync_latency().as_micros()
    )
}

/// Entry point for `--workload durable-commit`.
pub fn run(args: &Args) -> Outcome {
    let cfg = Cfg::new(args.scale);
    let mut out = Outcome::default();
    out.line(sizes_line(&cfg));
    let setups = if args.trace { 1 } else { crate::REPEATS };
    let (st, setup_s) = crate::set_up(setups, || setup(&cfg, args.seed));
    out.set("setup_s", setup_s);
    let mut acked = vec![0u64; cfg.keys as usize];
    let n = cfg.keys as f64;
    let live = live_of(st.dd.database());

    if !args.trace {
        let warm = (args.seconds * 0.1).min(1.0);
        let w = Window::new(warm, args.seconds);
        let mut workers = durable_workers(&st.dd);
        let r = run_workers(&st.streams, &mut workers, w, false, &mut acked, &live);
        drop(workers);
        let elapsed = w.measured();
        crate::set_latency(
            &mut out,
            "read txn",
            &r.reads,
            elapsed,
            ["read_ops_s", "read_p50_us", "read_p90_us"],
        );
        crate::set_latency(
            &mut out,
            "acked write",
            &r.writes,
            elapsed,
            ["write_ops_s", "write_p50_us", "write_p90_us"],
        );
        out.set(
            "bytes_per_key",
            (r.peak_live * crate::slot_bytes::<U64Map>()) as f64 / n,
        );
        account(&mut out, &r);
        let ms = st.dd.maintenance_stats();
        out.line(format!("maintenance: {ms:?}"));
        out.line(format!("device: {:?}", st.dev.totals()));
        let dev = Arc::clone(&st.dev);
        drop(live);
        let times = teardown(&mut out, &cfg, st, &mut acked, crate::REPEATS);
        out.set("stored_bytes_per_key", dev.stored_bytes() as f64 / n);
        out.set("recover_s", median(&times));
        out.set(
            "ok_ratio",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        );
        return out;
    }

    // Traced mode: A untraced, B traced, C the ladder.
    let slice = args.seconds / 7.0;
    let maint0 = st.dd.maintenance_stats();
    let dev0 = st.dev.totals();
    let mut workers = durable_workers(&st.dd);
    let a = run_workers(
        &st.streams,
        &mut workers,
        Window::split(slice),
        false,
        &mut acked,
        &live,
    );
    let e2e = a.writes.summary();
    // Process CPU without the device's spin (a disk would not cost it).
    let a_cpu = a
        .cpu_ns
        .saturating_sub(st.dev.totals().sync_ns - dev0.sync_ns) as f64;
    out.set("proc.cpu_us_per_op", a_cpu / 1e3 / a.ops.max(1) as f64);
    let always_cpu = a_cpu / a.commits.max(1) as f64;

    let arena0 = st.dd.database().forest().arena().stats();
    let ds0 = st.dd.durable_stats();
    let dv0 = st.dev.totals();
    let b = run_workers(
        &st.streams,
        &mut workers,
        Window::split(slice),
        true,
        &mut acked,
        &live,
    );
    let arena1 = st.dd.database().forest().arena().stats();
    let ds1 = st.dd.durable_stats();
    let dv1 = st.dev.totals();
    let commits = b.commits.max(1) as f64;
    out.set(
        "plm.alloc_per_write",
        (arena1.allocated_total - arena0.allocated_total) as f64 / commits,
    );
    out.set(
        "plm.freed_per_write",
        (arena1.freed_total - arena0.freed_total) as f64 / commits,
    );
    out.set("plm.peak_live_per_key", b.peak_live as f64 / n);
    out.set(
        "wal.commits_per_sync",
        commits / (dv1.wal.syncs - dv0.wal.syncs).max(1) as f64,
    );
    out.set(
        "wal.bytes_per_commit",
        (dv1.wal.bytes - dv0.wal.bytes) as f64 / commits,
    );
    out.set(
        "wal.blocked_share",
        (ds1.blocked_enqueues - ds0.blocked_enqueues) as f64 / commits,
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (b.writes.summary().p50 as f64 - e2e.p50 as f64) / e2e.p50 as f64,
    );
    let bs = trace::fold(&b.tracers);
    out.set(
        "durable.visible_us",
        bs["durable.visible"].median_ns() / 1e3,
    );
    out.set(
        "durable.ack_wait_us",
        bs["durable.ack_wait"].median_ns() / 1e3,
    );

    // The ladder, on fresh structures holding the same preload.
    let streams = &st.streams;
    let keys = cfg.keys as usize;
    let f = Forest::<U64Map>::new();
    let mut fw = [FtreeWorker {
        root: f.build_sorted(&preload(&cfg)),
        f: &f,
        release_ns: 0,
        freed: 0,
    }];
    let mut f_acked = vec![0u64; keys];
    let fr = run_workers(
        streams,
        &mut fw,
        Window::split(slice),
        true,
        &mut f_acked,
        &|| f.arena().live(),
    );
    let fs = trace::fold(&fr.tracers);
    out.set("ftree.get_ns", fs["ftree.get"].median_ns());
    out.set("ftree.insert_ns", fs["ftree.insert"].median_ns());
    out.set(
        "ftree.release_ns_per_tuple",
        fw[0].release_ns as f64 / fw[0].freed.max(1) as f64,
    );
    crate::check_forest(&mut out, "rung ftree", &f, fw[0].root);
    let (nodes, depth) = crate::walk(&f, fw[0].root);
    out.set("ftree.nodes_per_lookup", depth as f64 / nodes.max(1) as f64);
    f.release(fw[0].root);

    let vf = Forest::<U64Map>::new();
    let vm = PswfVm::new(WRITERS, u64::from(vf.build_sorted(&preload(&cfg)).raw()));
    let mut vw: Vec<VmWorker> = (0..WRITERS)
        .map(|pid| VmWorker {
            f: &vf,
            vm: &vm,
            pid,
            released: Vec::new(),
            reads: 0,
            reader_collects: 0,
            live_versions_max: 0,
        })
        .collect();
    let mut v_acked = vec![0u64; keys];
    let vr = run_workers(
        streams,
        &mut vw,
        Window::split(slice),
        true,
        &mut v_acked,
        &|| vf.arena().live(),
    );
    let vs = trace::fold(&vr.tracers);
    out.set("vm.acquire_ns", vs["vm.acquire"].median_ns());
    out.set("vm.set_ns", vs["vm.set"].median_ns());
    out.set("vm.release_ns", vs["vm.release"].median_ns());
    let reads: u64 = vw.iter().map(|w| w.reads).sum();
    let collects: u64 = vw.iter().map(|w| w.reader_collects).sum();
    out.set(
        "vm.reader_collect_share",
        collects as f64 / reads.max(1) as f64,
    );
    if let Some(c) = vs.get("vm.reader_collect") {
        out.set("vm.reader_collect_us", c.mean_ns() / 1e3);
    }
    out.set(
        "vm.live_versions_max",
        vw.iter().map(|w| w.live_versions_max).max().unwrap_or(0) as f64,
    );
    let versions = vm.uncollected_versions();
    out.check(versions == 1, || {
        format!("rung vm: {versions} live versions")
    });
    crate::check_forest(
        &mut out,
        "rung vm",
        &vf,
        Root::from_raw(vm.current() as u32),
    );

    let db: Database<U64Map> = Database::new(WRITERS);
    db.session().expect("pid").write_raw(|f, base| {
        f.release(base);
        (f.build_sorted(&preload(&cfg)), ())
    });
    let mut c_acked = vec![0u64; keys];
    let txn0 = db.stats();
    let mut cw: Vec<CoreWorker> = (0..WRITERS)
        .map(|_| CoreWorker(db.session().expect("pid")))
        .collect();
    let cr = run_workers(
        streams,
        &mut cw,
        Window::split(slice),
        true,
        &mut c_acked,
        &live_of(&db),
    );
    drop(cw);
    let txn1 = db.stats();
    out.set(
        "vm.set_failures_per_commit",
        (txn1.aborts - txn0.aborts) as f64 / (txn1.commits - txn0.commits).max(1) as f64,
    );
    out.set("core.session_open_ns", crate::session_open_ns(&db));
    let cw_p50 = cr.writes.summary().p50 as f64;
    out.set(
        "core.write_txn_ns_over_vm",
        cw_p50 - vr.writes.summary().p50 as f64,
    );
    out.set(
        "core.read_txn_ns_over_vm",
        cr.reads.summary().p50 as f64 - vr.reads.summary().p50 as f64,
    );
    let root = crate::check_quiescent(&mut out, "rung core", &db);
    let got = db.forest().to_vec(root);
    out.check(got.iter().all(|&(k, v)| v == c_acked[k as usize]), || {
        "rung core: end state differs from the acked increments".into()
    });

    let off_dev = Arc::new(SimDevice::new(sync_latency()));
    let off =
        DurableDatabase::<U64Map>::recover_storage(off_dev, WRITERS, config(&cfg, Durability::Off))
            .expect("open");
    off.database().session().expect("pid").write_raw(|f, base| {
        f.release(base);
        (f.build_sorted(&preload(&cfg)), ())
    });
    let mut o_acked = vec![0u64; keys];
    let mut ow = durable_workers(&off);
    let or = run_workers(
        streams,
        &mut ow,
        Window::split(slice),
        true,
        &mut o_acked,
        &live_of(off.database()),
    );
    drop(ow);
    crate::check_quiescent(&mut out, "rung durable-off", off.database());
    let off_cpu = or.cpu_ns as f64 / or.commits.max(1) as f64;
    out.set("wal.log_cpu_us_per_commit", (always_cpu - off_cpu) / 1e3);

    let top = run_workers(
        &st.streams,
        &mut workers,
        Window::split(slice),
        false,
        &mut acked,
        &live,
    );
    drop(workers);
    let us = |r: &Run| r.writes.summary().p50 as f64 / 1e3;
    let rungs = [
        Rung {
            name: "ftree",
            adds: "mvcc-ftree + mvcc-plm",
            metric: "ladder.ftree_us",
            us: us(&fr),
        },
        Rung {
            name: "vm",
            adds: "mvcc-vm + concurrent writers",
            metric: "ladder.vm_us",
            us: us(&vr),
        },
        Rung {
            name: "core",
            adds: "mvcc-core session",
            metric: "ladder.core_us",
            us: us(&cr),
        },
        Rung {
            name: "durable-off",
            adds: "durable wrapper, no log",
            metric: "ladder.durable_off_us",
            us: us(&or),
        },
        Rung {
            name: "durable-always",
            adds: "mvcc-wal + device sync",
            metric: "ladder.durable_always_us",
            us: us(&top),
        },
    ];
    ladder::report(&mut out, "acked write", e2e.p50 as f64 / 1e3, &rungs);

    let maint1 = st.dd.maintenance_stats();
    let dev1 = st.dev.totals();
    let checkpoints = maint1.checkpoints - maint0.checkpoints;
    out.set("wal.checkpoints", checkpoints as f64);
    let published = (dev1.checkpoints_published - dev0.checkpoints_published).max(1);
    out.set(
        "wal.checkpoint_ms",
        (dev1.checkpoint_write_ns - dev0.checkpoint_write_ns) as f64 / 1e6 / published as f64,
    );
    for r in [&a, &b, &fr, &vr, &cr, &or, &top] {
        account(&mut out, r);
    }
    // The device as the running supervisor left it: its footprint, and
    // the log a crash now would replay. The writers are idle, so every
    // acked increment is on the device.
    out.set(
        "wal.run_stored_bytes_per_key",
        st.dev.stored_bytes() as f64 / n,
    );
    let expect: Vec<(u64, u64)> = acked
        .iter()
        .enumerate()
        .map(|(k, &c)| (k as u64, c))
        .collect();
    let (replayed, _) = recover_and_check(&mut out, &cfg, &st.dev, &expect, "supervised state");
    out.set("wal.replayed_batches", replayed as f64);
    drop(live);
    teardown(&mut out, &cfg, st, &mut acked, 1);
    out
}
