//! `wire-kv`: the `mvcc-net` server over a `Router<U64Map>`, driven
//! closed-loop over loopback.
//!
//! One load thread keeps exactly one request outstanding on each of
//! 16 connections (no thread per connection), sleeping in poll(2) until
//! a reply is in, on the server thread's CPU (see [`SharedCpu`]). The
//! mix is 90% GET, 8% PUT and 2% eight-op single-shard TXN over
//! scrambled-Zipf (θ = 0.99) keys.
//! Every reply is checked against the load thread's model of the register
//! each key is: a GET must return a value some write could still have
//! left there, and a TXN must report all of its ops applied.
//!
//! Ladder: `ftree` (one bare `Forest` per shard), `vm` (Figure 1 by hand
//! on a `PswfVm` per shard), `core` (`Router::session` per request, as the
//! server does), `wire-1` (the server with one connection) and `wire-N`
//! (the workload).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvcc_core::ftree::{Forest, Root, U64Map};
use mvcc_core::vm::{PswfVm, VersionMaintenance};
use mvcc_core::Router;
use mvcc_net::proto::{self, Request, Response, TxnOp};
use mvcc_net::{Server, ServerHandle};
use mvcc_workloads::ScrambledZipf;
use rand::{Rng, SeedableRng, StdRng};

use crate::ladder::{self, Rung, Window};
use crate::stats::{median, Samples};
use crate::trace::{self, Tracer};
use crate::{procfs, Args, Outcome, Scale};

const TXN_OPS: usize = 8;

#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub keys: u64,
    pub shards: usize,
    pub pids: usize,
    pub conns: usize,
    pub stream: usize,
}

impl Cfg {
    pub fn new(scale: Scale) -> Cfg {
        match scale {
            // 64k keys: about 2.5 MB of tuples, inside a 4 MiB L2.
            Scale::Full => Cfg {
                keys: 1 << 16,
                shards: 2,
                pids: 4,
                conns: 16,
                stream: 1 << 18,
            },
            Scale::Smoke => Cfg {
                keys: 1 << 12,
                shards: 2,
                pids: 4,
                conns: 16,
                stream: 1 << 12,
            },
        }
    }
}

/// One generated request; write values are assigned when it is sent
/// (a running counter, so every written value is unique).
#[derive(Debug, Clone)]
pub enum Op {
    Get(u64),
    Put(u64),
    Txn(Vec<u64>),
}

/// The seeded request stream, generated during set-up. TXN keys are
/// drawn until all eight are distinct and route to one shard.
pub fn generate(cfg: &Cfg, router: &Router<U64Map>, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ScrambledZipf::new(cfg.keys, 0.99);
    (0..cfg.stream)
        .map(|_| {
            let roll = rng.gen_range(0..100u32);
            let key = zipf.sample(&mut rng);
            if roll < 90 {
                Op::Get(key)
            } else if roll < 98 {
                Op::Put(key)
            } else {
                let shard = router.shard_for(&key);
                let mut keys = vec![key];
                while keys.len() < TXN_OPS {
                    let k = zipf.sample(&mut rng);
                    if router.shard_for(&k) == shard && !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                Op::Txn(keys)
            }
        })
        .collect()
}

fn initial_value(key: u64) -> u64 {
    key ^ 0x5555_0000
}

/// One write in a key's history, in the load thread's logical time.
#[derive(Debug, Clone, Copy)]
struct KeyWrite {
    value: u64,
    send: u64,
    ack: u64,
}

/// The load thread's model: per key, the writes a GET may still observe.
/// A GET sent at `s` and answered at `r` may return the value of a write
/// sent before `r`, unless another write was both started after that
/// write's ack and acked before `s` (then the first is overwritten).
pub struct Checker {
    keys: Vec<Vec<KeyWrite>>,
    clock: u64,
}

/// A sent request awaiting its reply.
#[derive(Debug, Clone)]
pub struct Pending {
    pub req: Request,
    pub send: u64,
    pub started: Instant,
}

impl Checker {
    pub fn new(keys: u64) -> Checker {
        Checker {
            keys: (0..keys)
                .map(|k| {
                    vec![KeyWrite {
                        value: initial_value(k),
                        send: 0,
                        ack: 0,
                    }]
                })
                .collect(),
            clock: 1,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Record that `req` was sent; returns its pending record.
    pub fn sent(&mut self, req: Request) -> Pending {
        let send = self.tick();
        let mut note = |k: u64, value: u64| {
            self.keys[k as usize].push(KeyWrite {
                value,
                send,
                ack: u64::MAX,
            })
        };
        match &req {
            Request::Put { key, value } => note(*key, *value),
            Request::Txn { ops } => {
                for op in ops {
                    if let TxnOp::Put { key, value } = *op {
                        note(key, value);
                    }
                }
            }
            _ => {}
        }
        Pending {
            req,
            send,
            started: Instant::now(),
        }
    }

    /// Check the reply to `p`; `oldest_open` is the send time of the
    /// oldest request still in flight (history older than it is pruned).
    pub fn replied(
        &mut self,
        p: &Pending,
        resp: &Response,
        oldest_open: u64,
    ) -> Result<(), String> {
        let now = self.tick();
        match (&p.req, resp) {
            (Request::Get { key }, Response::Value { value: Some(v) }) => {
                let h = &self.keys[*key as usize];
                let ok = h.iter().any(|w| {
                    w.value == *v
                        && w.send < now
                        && !h.iter().any(|w2| w2.ack < p.send && w.ack < w2.send)
                });
                if ok {
                    Ok(())
                } else {
                    Err(format!(
                        "GET {key} returned {v}, which no live write left there"
                    ))
                }
            }
            (Request::Put { key, .. }, Response::Done) => {
                self.acked(*key, p.send, now, oldest_open);
                Ok(())
            }
            (Request::Txn { ops }, Response::TxnOk { applied }) => {
                for op in ops {
                    self.acked(op.key(), p.send, now, oldest_open);
                }
                if *applied as usize == ops.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "TXN of {} ops reported {applied} applied",
                        ops.len()
                    ))
                }
            }
            (req, resp) => Err(format!("{req:?} answered {resp:?}")),
        }
    }

    fn acked(&mut self, key: u64, send: u64, now: u64, oldest_open: u64) {
        let h = &mut self.keys[key as usize];
        if let Some(w) = h.iter_mut().find(|w| w.send == send && w.ack == u64::MAX) {
            w.ack = now;
        }
        // Drop writes no open or future GET can observe any more.
        let dead = |w: &KeyWrite, h: &[KeyWrite]| {
            h.iter().any(|w2| w2.ack < oldest_open && w.ack < w2.send)
        };
        let keep: Vec<bool> = h.iter().map(|w| !dead(w, h)).collect();
        let mut i = 0;
        h.retain(|_| {
            i += 1;
            keep[i - 1]
        });
    }

    /// The values each key may hold once every write is acked.
    pub fn final_values(&self, key: u64) -> Vec<u64> {
        let h = &self.keys[key as usize];
        h.iter()
            .filter(|w| !h.iter().any(|w2| w.ack < w2.send))
            .map(|w| w.value)
            .collect()
    }
}

/// Turn a generated op into a request, assigning fresh write values.
fn request(op: &Op, next_value: &mut u64) -> Request {
    let mut fresh = || {
        *next_value += 1;
        *next_value
    };
    match op {
        Op::Get(key) => Request::Get { key: *key },
        Op::Put(key) => Request::Put {
            key: *key,
            value: fresh(),
        },
        Op::Txn(keys) => Request::Txn {
            ops: keys
                .iter()
                .map(|&key| TxnOp::Put {
                    key,
                    value: fresh(),
                })
                .collect(),
        },
    }
}

/// Results of one closed-loop phase.
#[derive(Default)]
struct Run {
    gets: Samples,
    writes: Samples,
    ops: u64,
    bad: u64,
    first_errors: Vec<String>,
    peak_live: u64,
    tracer: Option<Tracer>,
    requests: u64,
    server_cpu_ns: u64,
    ctx_switches: u64,
    wall: Duration,
}

impl Run {
    fn attempted(&self) -> u64 {
        self.ops
    }

    /// Count a checked reply; its latency counts only if the request
    /// started inside the window's measured part.
    fn record(&mut self, p: &Pending, w: &Window, res: Result<(), String>) {
        self.ops += 1;
        if let Err(e) = res {
            self.bad += 1;
            if self.first_errors.len() < 5 {
                self.first_errors.push(e);
            }
        }
        if p.started >= w.warm_end && p.started < w.end {
            let ns = p.started.elapsed().as_nanos() as u64;
            let at = p.started - w.warm_end;
            match p.req {
                Request::Get { .. } => self.gets.push_at(ns, at),
                _ => self.writes.push_at(ns, at),
            }
        }
    }
}

/// State shared by every phase: the stream, the model and the value
/// counter.
struct Load {
    ops: Vec<Op>,
    next_op: usize,
    next_value: u64,
    checker: Checker,
}

impl Load {
    /// A fresh model of the preloaded keys; written values start above
    /// every preloaded one.
    fn new(ops: Vec<Op>, keys: u64) -> Load {
        Load {
            ops,
            next_op: 0,
            next_value: 1 << 40,
            checker: Checker::new(keys),
        }
    }

    fn next_request(&mut self) -> Request {
        let op = &self.ops[self.next_op % self.ops.len()];
        self.next_op += 1;
        request(op, &mut self.next_value)
    }
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    pending: Option<Pending>,
}

fn connect(handle: &ServerHandle, n: usize) -> Vec<Conn> {
    (0..n)
        .map(|_| {
            let stream = TcpStream::connect(handle.addr()).expect("connect to the loopback server");
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking");
            Conn {
                stream,
                inbuf: Vec::with_capacity(256),
                pending: None,
            }
        })
        .collect()
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
/// Error, hang-up and invalid-fd bits: a read on such a socket returns
/// the condition at once.
const POLLFAIL: i16 = 0x8 | 0x10 | 0x20;

/// Words in a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;
type CpuSet = [u64; CPU_SET_WORDS];

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout_ms: i32) -> i32;
    fn sched_getaffinity(tid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(tid: i32, size: usize, mask: *const u64) -> i32;
}

/// The server's thread id (0 if not found), waiting out the moment after
/// `Server::start` before the new thread has named itself.
fn server_thread() -> u64 {
    let t0 = Instant::now();
    loop {
        if let Some(tid) = procfs::find_thread("mvcc-net-server") {
            return tid;
        }
        if t0.elapsed() > Duration::from_secs(1) {
            return 0;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Thread `tid`'s CPU set (0: the calling thread).
fn affinity(tid: u64) -> Option<CpuSet> {
    let mut set = [0u64; CPU_SET_WORDS];
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer of the size
    // passed.
    let rc =
        unsafe { sched_getaffinity(tid as i32, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn set_affinity(tid: u64, set: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `set` is a `cpu_set_t`-sized buffer of the size passed.
    let rc = unsafe { sched_setaffinity(tid as i32, std::mem::size_of_val(set), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// The server thread and the calling (load) thread confined to one CPU,
/// the first the load thread may use.
///
/// The server reads every connection, answers what it read, flushes all
/// the replies, and sleeps about 50 µs when a pass finds nothing new.
/// Left to the scheduler, whole runs settled either with the server busy
/// all the time beside the load thread (GET p50 near 120 µs) or with the
/// two taking turns (near 230 µs), and pinning them to different CPUs
/// did not stop the flips. Sharing one CPU, they always take turns, so a
/// run measures the server's and the client's per-request cost. Dropping
/// this gives the load thread its CPUs back, so threads it starts later
/// are not confined.
struct SharedCpu {
    load_cpus: Option<CpuSet>,
    /// Where the threads run, or why they were left alone.
    what: String,
}

impl SharedCpu {
    fn confine(server_tid: u64) -> SharedCpu {
        let load_cpus = affinity(0);
        let first = (0..CPU_SET_WORDS * 64)
            .find(|&c| load_cpus.is_some_and(|m| m[c / 64] >> (c % 64) & 1 == 1));
        let mut shared = SharedCpu {
            load_cpus,
            what: String::new(),
        };
        let (Some(cpu), true) = (first, server_tid != 0) else {
            shared.what = "not confined (no CPU set or no server thread)".into();
            return shared;
        };
        let mut one = [0u64; CPU_SET_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        for tid in [server_tid, 0] {
            if let Err(e) = set_affinity(tid, &one) {
                shared.what = format!("not confined ({e})");
                return shared;
            }
        }
        shared.what = format!("server and load thread share cpu {cpu}");
        shared
    }
}

impl Drop for SharedCpu {
    fn drop(&mut self) {
        if let Some(set) = &self.load_cpus {
            set_affinity(0, set).ok();
        }
    }
}

/// Block until one of `fds` is ready or `timeout_ms` passes. Entries with
/// a negative `fd` are skipped.
fn wait_ready(fds: &mut [PollFd], timeout_ms: i32) {
    // SAFETY: `fds` is a live, exclusively borrowed array of `pollfd`
    // records, and its length is what we pass.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as _, timeout_ms) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        assert!(e.kind() == ErrorKind::Interrupted, "poll: {e}");
    }
}

fn send_frame(stream: &mut TcpStream, mut buf: &[u8]) {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let mut fd = [PollFd {
                    fd: stream.as_raw_fd(),
                    events: POLLOUT,
                    revents: 0,
                }];
                wait_ready(&mut fd, 100);
            }
            Err(e) => panic!("send to the loopback server: {e}"),
        }
    }
}

/// Closed loop over `conns`: each keeps one request outstanding until
/// the window ends, then the loop drains every reply.
fn drive(
    d: &mut Load,
    conns: &mut [Conn],
    router: &Router<U64Map>,
    handle: &ServerHandle,
    w: Window,
    traced: bool,
) -> Run {
    let mut tr = Tracer::new(traced);
    let mut r = Run::default();
    let mut out = Vec::with_capacity(256);
    let mut buf = [0u8; 4096];
    let server_tid = server_thread();
    let me = procfs::current_tid();
    let stats0 = handle.server().stats();
    let cpu0 = procfs::thread_cpu_ns(server_tid);
    let ctx0 = procfs::thread_ctx_switches(server_tid) + procfs::thread_ctx_switches(me);
    let wall0 = Instant::now();
    let send_next = |d: &mut Load, tr: &mut Tracer, c: &mut Conn, out: &mut Vec<u8>| {
        let req = d.next_request();
        out.clear();
        tr.span("net.encode", |_| proto::encode_request(&req, out));
        c.pending = Some(d.checker.sent(req));
        send_frame(&mut c.stream, out);
    };
    for c in conns.iter_mut() {
        send_next(d, &mut tr, c, &mut out);
    }
    let mut replies = 0u64;
    // The load thread sleeps in poll(2) until a reply arrives, so it never
    // competes with the server thread for a core while waiting.
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    loop {
        let mut open = 0;
        for (f, c) in fds.iter_mut().zip(conns.iter()) {
            f.fd = if c.pending.is_some() {
                open += 1;
                c.stream.as_raw_fd()
            } else {
                -1
            };
            f.revents = 0;
        }
        if open == 0 {
            break;
        }
        wait_ready(&mut fds, 100);
        let stopping = Instant::now() >= w.end;
        for i in 0..conns.len() {
            if fds[i].revents & (POLLIN | POLLFAIL) == 0 {
                continue;
            }
            match conns[i].stream.read(&mut buf) {
                Ok(0) => panic!("server closed a connection"),
                Ok(n) => conns[i].inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(e) => panic!("read from the loopback server: {e}"),
            }
            let Some((payload, used)) = proto::split_frame(&conns[i].inbuf).expect("valid frame")
            else {
                continue;
            };
            let resp = tr.span("net.decode", |_| proto::decode_response(payload));
            conns[i].inbuf.drain(..used);
            let p = conns[i].pending.take().expect("a request was open");
            let oldest = conns
                .iter()
                .filter_map(|c| c.pending.as_ref().map(|p| p.send))
                .min()
                .unwrap_or(u64::MAX);
            let res = match resp {
                Ok(resp) => d.checker.replied(&p, &resp, oldest),
                Err(e) => Err(format!("undecodable reply: {e}")),
            };
            r.record(&p, &w, res);
            replies += 1;
            if replies.is_multiple_of(256) {
                let live: u64 = router.iter().map(|db| db.forest().arena().live()).sum();
                r.peak_live = r.peak_live.max(live);
            }
            if !stopping {
                send_next(d, &mut tr, &mut conns[i], &mut out);
            }
        }
    }
    r.wall = wall0.elapsed();
    r.requests = handle.server().stats().requests - stats0.requests;
    r.server_cpu_ns = procfs::thread_cpu_ns(server_tid).saturating_sub(cpu0);
    r.ctx_switches = (procfs::thread_ctx_switches(server_tid) + procfs::thread_ctx_switches(me))
        .saturating_sub(ctx0);
    r.tracer = Some(tr);
    r
}

/// A server over a preloaded router, its connections and the load state.
struct Stack {
    router: Arc<Router<U64Map>>,
    handle: ServerHandle,
    conns: Vec<Conn>,
    load: Load,
}

fn preload_router(cfg: &Cfg) -> Router<U64Map> {
    let router: Router<U64Map> = Router::new(cfg.shards, cfg.pids);
    let mut per_shard = vec![Vec::new(); cfg.shards];
    for k in 0..cfg.keys {
        per_shard[router.shard_for(&k)].push((k, initial_value(k)));
    }
    for (i, items) in per_shard.iter().enumerate() {
        router
            .with_shard(i)
            .session()
            .expect("fresh shard has pids")
            .write_raw(|f, base| {
                f.release(base);
                (f.build_sorted(items), ())
            });
    }
    router
}

/// Set-up: preload, op stream, server start and connects.
fn setup(cfg: &Cfg, seed: u64) -> (Stack, f64) {
    let t0 = Instant::now();
    let router = Arc::new(preload_router(cfg));
    let ops = generate(cfg, &router, seed);
    let handle = Server::start(Arc::clone(&router), "127.0.0.1:0").expect("start the server");
    let conns = connect(&handle, cfg.conns);
    let load = Load::new(ops, cfg.keys);
    let secs = t0.elapsed().as_secs_f64();
    (
        Stack {
            router,
            handle,
            conns,
            load,
        },
        secs,
    )
}

/// Stop the server and run the end checks: FIFO admission, no leaked
/// lease, precise GC per shard, and every key holding a value the model
/// allows. Returns the end state, sorted.
fn teardown(out: &mut Outcome, stack: Stack) -> Vec<(u64, u64)> {
    let Stack {
        router,
        handle,
        conns,
        load,
    } = stack;
    drop(conns);
    let stats = handle.server().stats();
    out.check(stats.fifo_violations == 0, || {
        format!("{} FIFO admission violations", stats.fifo_violations)
    });
    out.check(
        stats.shed + stats.deadline_expired + stats.proto_errors == 0,
        || format!("server refused requests: {stats:?}"),
    );
    out.line(format!("server: {stats:?}"));
    handle.shutdown().expect("server loop exits cleanly");
    let mut entries = Vec::new();
    for (i, db) in router.iter().enumerate() {
        let root = crate::check_quiescent(out, &format!("shard {i}"), db);
        entries.extend(db.forest().to_vec(root));
    }
    entries.sort_unstable();
    let mut wrong = 0;
    for &(k, v) in &entries {
        if !load.checker.final_values(k).contains(&v) {
            wrong += 1;
        }
    }
    out.check(wrong == 0, || {
        format!("{wrong} keys hold a value no last write left")
    });
    out.check(
        entries.len() as u64 == load.checker.keys.len() as u64,
        || format!("end state has {} keys", entries.len()),
    );
    entries
}

fn account(out: &mut Outcome, r: &Run) {
    out.attempted += r.attempted();
    out.failed += r.bad;
    for e in &r.first_errors {
        out.problems.push(e.clone());
    }
}

fn sizes_line(cfg: &Cfg) -> String {
    let slot = crate::slot_bytes::<U64Map>();
    format!(
        "sizes: keys={} slot_bytes={} tuples_mb={:.2} shards={} pids/shard={} conns={} stream={} mix=90get/8put/2txn{} zipf_theta=0.99 threads=load+server",
        cfg.keys,
        slot,
        (cfg.keys * slot) as f64 / 1e6,
        cfg.shards,
        cfg.pids,
        cfg.conns,
        cfg.stream,
        TXN_OPS
    )
}

/// Entry point for `--workload wire-kv`.
pub fn run(args: &Args) -> Outcome {
    let cfg = Cfg::new(args.scale);
    let mut out = Outcome::default();
    out.line(sizes_line(&cfg));
    let setups = if args.trace { 1 } else { crate::REPEATS };
    let (mut st, setup_s) = crate::set_up(setups, || setup(&cfg, args.seed));
    out.set("setup_s", setup_s);
    let shared = SharedCpu::confine(server_thread());
    out.line(format!("placement: {}", shared.what));
    let n = cfg.keys as f64;

    if !args.trace {
        let warm = (args.seconds * 0.1).min(1.0);
        let w = Window::new(warm, args.seconds);
        let r = drive(
            &mut st.load,
            &mut st.conns,
            &st.router,
            &st.handle,
            w,
            false,
        );
        let elapsed = w.measured();
        crate::set_latency(
            &mut out,
            "GET",
            &r.gets,
            elapsed,
            ["read_ops_s", "read_p50_us", "read_p90_us"],
        );
        crate::set_latency(
            &mut out,
            "PUT+TXN",
            &r.writes,
            elapsed,
            ["write_ops_s", "write_p50_us", "write_p90_us"],
        );
        out.set(
            "bytes_per_key",
            (r.peak_live * crate::slot_bytes::<U64Map>()) as f64 / n,
        );
        account(&mut out, &r);
        drop(shared);
        let entries = teardown(&mut out, st);
        let (stored, times) = crate::checkpoint_and_recover::<U64Map>(
            &mut out,
            &entries,
            crate::durable::sync_latency(),
            crate::REPEATS,
        );
        out.set("stored_bytes_per_key", stored as f64 / n);
        out.set("recover_s", median(&times));
        out.set(
            "ok_ratio",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        );
        return out;
    }

    // Traced mode: A untraced workload, B traced workload, C ladder.
    let slice = args.seconds / 7.0;
    let cpu0 = procfs::process_cpu_ns();
    let a = drive(
        &mut st.load,
        &mut st.conns,
        &st.router,
        &st.handle,
        Window::split(slice),
        false,
    );
    out.set(
        "proc.cpu_us_per_op",
        (procfs::process_cpu_ns() - cpu0) as f64 / 1e3 / a.attempted().max(1) as f64,
    );
    let e2e = a.gets.summary();

    st.handle.server().take_wait_samples();
    let arena0: Vec<_> = st
        .router
        .iter()
        .map(|db| db.forest().arena().stats())
        .collect();
    let txn0 = st.router.stats();
    let b = drive(
        &mut st.load,
        &mut st.conns,
        &st.router,
        &st.handle,
        Window::split(slice),
        true,
    );
    let txn1 = st.router.stats();
    let commits = (txn1.commits - txn0.commits).max(1) as f64;
    let (mut alloc, mut freed) = (0, 0);
    for (db, s0) in st.router.iter().zip(&arena0) {
        let s1 = db.forest().arena().stats();
        alloc += s1.allocated_total - s0.allocated_total;
        freed += s1.freed_total - s0.freed_total;
    }
    out.set("plm.alloc_per_write", alloc as f64 / commits);
    out.set("plm.freed_per_write", freed as f64 / commits);
    out.set("plm.peak_live_per_key", b.peak_live as f64 / n);
    out.set(
        "vm.set_failures_per_commit",
        (txn1.aborts - txn0.aborts) as f64 / commits,
    );
    let mut waits = Samples::default();
    for ns in st.handle.server().take_wait_samples() {
        waits.push(ns);
    }
    let ws = waits.summary();
    out.set("core.admission_wait_p50_ns", ws.p50 as f64);
    out.set("core.admission_wait_p99_ns", ws.p99 as f64);
    out.set(
        "trace.overhead_pct",
        100.0 * (b.gets.summary().p50 as f64 - e2e.p50 as f64) / e2e.p50 as f64,
    );
    let bs = trace::fold(std::slice::from_ref(b.tracer.as_ref().expect("tracer")));
    out.set("net.encode_ns", bs["net.encode"].median_ns());
    out.set("net.decode_ns", bs["net.decode"].median_ns());

    // Ladder rungs below the server, replaying the same stream.
    let mut model = Load::new(st.load.ops.clone(), cfg.keys);
    let f = run_ftree(&cfg, &st.router, &mut model, slice, &mut out);
    let mut model = Load::new(st.load.ops.clone(), cfg.keys);
    let v = run_vm(&cfg, &st.router, &mut model, slice, &mut out);
    let c = run_core(&st.router, &mut st.load, slice);
    out.set("core.session_open_ns", session_open_ns(&st.router));

    // Wire rungs: one connection, then the workload untraced.
    let mut one = connect(&st.handle, 1);
    let w1 = drive(
        &mut st.load,
        &mut one,
        &st.router,
        &st.handle,
        Window::split(slice),
        false,
    );
    drop(one);
    let wn = drive(
        &mut st.load,
        &mut st.conns,
        &st.router,
        &st.handle,
        Window::split(slice),
        false,
    );
    let per_req = |r: &Run| r.server_cpu_ns as f64 / r.requests.max(1) as f64;
    out.set("net.server_cpu_us_per_req", per_req(&wn) / 1e3);
    out.set(
        "net.server_busy_share",
        wn.server_cpu_ns as f64 / wn.wall.as_nanos().max(1) as f64,
    );
    out.set(
        "net.per_conn_ns",
        (per_req(&wn) - per_req(&w1)) / (cfg.conns - 1) as f64,
    );
    out.set(
        "net.ctx_switches_per_req",
        wn.ctx_switches as f64 / wn.requests.max(1) as f64,
    );
    out.set(
        "net.max_queue_depth",
        st.handle.server().stats().max_queue_depth as f64,
    );
    let us = |r: &Run| r.gets.summary().p50 as f64 / 1e3;
    out.set("net.wire_over_core_us", us(&w1) - us(&c));
    let rungs = [
        Rung {
            name: "ftree",
            adds: "mvcc-ftree + mvcc-plm",
            metric: "ladder.ftree_us",
            us: us(&f),
        },
        Rung {
            name: "vm",
            adds: "mvcc-vm (Figure 1)",
            metric: "ladder.vm_us",
            us: us(&v),
        },
        Rung {
            name: "core",
            adds: "mvcc-core router session",
            metric: "ladder.core_us",
            us: us(&c),
        },
        Rung {
            name: "wire-1",
            adds: "mvcc-net, 1 connection",
            metric: "ladder.wire_1_us",
            us: us(&w1),
        },
        Rung {
            name: "wire-N",
            adds: "15 more connections",
            metric: "ladder.wire_n_us",
            us: us(&wn),
        },
    ];
    ladder::report(&mut out, "GET", e2e.p50 as f64 / 1e3, &rungs);
    for r in [&a, &b, &f, &v, &c, &w1, &wn] {
        account(&mut out, r);
    }
    drop(shared);
    teardown(&mut out, st);
    out
}

/// Replay `d`'s stream on one thread, each request executed by
/// `exec` and checked as if sent and answered at once.
fn replay(d: &mut Load, w: Window, mut exec: impl FnMut(&mut Tracer, &Request) -> Response) -> Run {
    let mut tr = Tracer::new(true);
    let mut r = Run::default();
    loop {
        let t0 = Instant::now();
        if t0 >= w.end {
            break;
        }
        let req = d.next_request();
        let p = d.checker.sent(req);
        let resp = exec(&mut tr, &p.req);
        let res = d.checker.replied(&p, &resp, u64::MAX);
        r.record(&p, &w, res);
    }
    r.tracer = Some(tr);
    r
}

/// Rung `ftree`: one bare `Forest` per shard.
fn run_ftree(
    cfg: &Cfg,
    router: &Router<U64Map>,
    d: &mut Load,
    secs: f64,
    out: &mut Outcome,
) -> Run {
    let forests: Vec<Forest<U64Map>> = (0..cfg.shards).map(|_| Forest::new()).collect();
    let mut roots: Vec<Root> = forests
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let items: Vec<_> = (0..cfg.keys)
                .filter(|k| router.shard_for(k) == i)
                .map(|k| (k, initial_value(k)))
                .collect();
            f.build_sorted(&items)
        })
        .collect();
    let r = replay(d, Window::split(secs), |tr, req| {
        let key = req.routing_key().expect("keyed request");
        let s = router.shard_for(&key);
        let (f, root) = (&forests[s], &mut roots[s]);
        match req {
            Request::Get { key } => Response::Value {
                value: tr.span("ftree.get", |_| f.get(*root, key).copied()),
            },
            Request::Put { key, value } => {
                f.retain(*root);
                let new = tr.span("ftree.insert", |_| f.insert(*root, *key, *value));
                f.release(std::mem::replace(root, new));
                Response::Done
            }
            Request::Txn { ops } => {
                f.retain(*root);
                let mut new = *root;
                for op in ops {
                    if let TxnOp::Put { key, value } = *op {
                        new = tr.span("ftree.insert", |_| f.insert(new, key, value));
                    }
                }
                f.release(std::mem::replace(root, new));
                Response::TxnOk {
                    applied: ops.len() as u16,
                }
            }
            Request::Del { .. } => unreachable!("the stream has no DEL"),
        }
    });
    let spans = trace::fold(std::slice::from_ref(r.tracer.as_ref().expect("tracer")));
    out.set("ftree.get_ns", spans["ftree.get"].median_ns());
    out.set("ftree.insert_ns", spans["ftree.insert"].median_ns());
    let (mut nodes, mut depth) = (0, 0);
    for (f, root) in forests.iter().zip(&roots) {
        crate::check_forest(out, "rung ftree", f, *root);
        let (n, d) = crate::walk(f, *root);
        nodes += n;
        depth += d;
        f.release(*root);
    }
    out.set("ftree.nodes_per_lookup", depth as f64 / nodes.max(1) as f64);
    r
}

/// Rung `vm`: Figure 1 by hand on one `PswfVm` plus `Forest` per shard,
/// one thread, as the server's single loop runs requests.
fn run_vm(cfg: &Cfg, router: &Router<U64Map>, d: &mut Load, secs: f64, out: &mut Outcome) -> Run {
    let shards: Vec<(Forest<U64Map>, PswfVm)> = (0..cfg.shards)
        .map(|i| {
            let f = Forest::new();
            let items: Vec<_> = (0..cfg.keys)
                .filter(|k| router.shard_for(k) == i)
                .map(|k| (k, initial_value(k)))
                .collect();
            let root = f.build_sorted(&items);
            let vm = PswfVm::new(cfg.pids, u64::from(root.raw()));
            (f, vm)
        })
        .collect();
    let mut released = Vec::new();
    let r = replay(d, Window::split(secs), |tr, req| {
        let key = req.routing_key().expect("keyed request");
        let (f, vm) = &shards[router.shard_for(&key)];
        let _pin = f.arena().pin(f.ctx_for(0));
        let base = Root::from_raw(tr.span("vm.acquire", |_| vm.acquire(0)) as u32);
        let resp = match req {
            Request::Get { key } => Response::Value {
                value: f.get(base, key).copied(),
            },
            Request::Put { .. } | Request::Txn { .. } => {
                f.retain(base);
                let mut new = base;
                let n = match req {
                    Request::Put { key, value } => {
                        new = f.insert(new, *key, *value);
                        None
                    }
                    Request::Txn { ops } => {
                        for op in ops {
                            if let TxnOp::Put { key, value } = *op {
                                new = f.insert(new, key, value);
                            }
                        }
                        Some(ops.len() as u16)
                    }
                    _ => unreachable!(),
                };
                // One thread: nothing else commits, so `set` succeeds.
                let ok = tr.span("vm.set", |_| vm.set(0, u64::from(new.raw())));
                assert!(ok, "a lone writer's set cannot fail");
                match n {
                    None => Response::Done,
                    Some(applied) => Response::TxnOk { applied },
                }
            }
            Request::Del { .. } => unreachable!("the stream has no DEL"),
        };
        tr.span("vm.release", |_| vm.release(0, &mut released));
        for t in released.drain(..) {
            f.release(Root::from_raw(t as u32));
        }
        resp
    });
    let spans = trace::fold(std::slice::from_ref(r.tracer.as_ref().expect("tracer")));
    out.set("vm.acquire_ns", spans["vm.acquire"].median_ns());
    out.set("vm.release_ns", spans["vm.release"].median_ns());
    out.set("vm.set_ns", spans["vm.set"].median_ns());
    let mut versions_max = 0;
    for (i, (f, vm)) in shards.iter().enumerate() {
        let v = vm.uncollected_versions();
        versions_max = versions_max.max(v);
        out.check(v == 1, || format!("rung vm shard {i}: {v} live versions"));
        crate::check_forest(out, "rung vm", f, Root::from_raw(vm.current() as u32));
    }
    out.set("vm.live_versions_max", versions_max as f64);
    r
}

/// Rung `core`: what the server's `execute` does per request, without
/// the server: `Router::session`, the op, drop.
fn run_core(router: &Router<U64Map>, d: &mut Load, secs: f64) -> Run {
    replay(d, Window::split(secs), |_, req| {
        let key = req.routing_key().expect("keyed request");
        let mut s = router.session(&key);
        match req {
            Request::Get { key } => Response::Value { value: s.get(key) },
            Request::Put { key, value } => {
                s.insert(*key, *value);
                Response::Done
            }
            Request::Txn { ops } => {
                s.write(|txn| {
                    for op in ops {
                        if let TxnOp::Put { key, value } = *op {
                            txn.insert(key, value);
                        }
                    }
                });
                Response::TxnOk {
                    applied: ops.len() as u16,
                }
            }
            Request::Del { .. } => unreachable!("the stream has no DEL"),
        }
    })
}

/// `Router::session` plus drop, median of repeated opens.
fn session_open_ns(router: &Router<U64Map>) -> f64 {
    let mut s = Samples::with_capacity(10_000);
    for k in 0..10_000u64 {
        let t0 = Instant::now();
        drop(std::hint::black_box(router.session(&k)));
        s.push(t0.elapsed().as_nanos() as u64);
    }
    s.summary().p50 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(c: &mut Checker, key: u64) -> Pending {
        c.sent(Request::Get { key })
    }

    #[test]
    fn checker_accepts_current_and_concurrent_values() {
        let mut c = Checker::new(4);
        let g = get(&mut c, 1);
        assert!(c
            .replied(
                &g,
                &Response::Value {
                    value: Some(initial_value(1))
                },
                u64::MAX
            )
            .is_ok());
        // A PUT in flight while a GET is open: either value is fine.
        let put = c.sent(Request::Put { key: 1, value: 77 });
        let g1 = get(&mut c, 1);
        let g2 = get(&mut c, 1);
        assert!(c
            .replied(&g1, &Response::Value { value: Some(77) }, put.send)
            .is_ok());
        assert!(c
            .replied(
                &g2,
                &Response::Value {
                    value: Some(initial_value(1))
                },
                put.send
            )
            .is_ok());
        assert!(c.replied(&put, &Response::Done, u64::MAX).is_ok());
    }

    #[test]
    fn checker_rejects_a_stale_get() {
        let mut c = Checker::new(4);
        let put = c.sent(Request::Put { key: 2, value: 99 });
        assert!(c.replied(&put, &Response::Done, u64::MAX).is_ok());
        // Sent after the PUT was acked: the old value is gone.
        let g = get(&mut c, 2);
        let stale = c.replied(
            &g,
            &Response::Value {
                value: Some(initial_value(2)),
            },
            u64::MAX,
        );
        assert!(stale.is_err(), "a stale GET must be rejected");
        let g = get(&mut c, 2);
        assert!(c
            .replied(&g, &Response::Value { value: Some(99) }, u64::MAX)
            .is_ok());
        let g = get(&mut c, 2);
        assert!(c
            .replied(&g, &Response::Value { value: None }, u64::MAX)
            .is_err());
        assert_eq!(c.final_values(2), vec![99]);
    }

    #[test]
    fn checker_rejects_a_short_txn() {
        let mut c = Checker::new(8);
        let ops: Vec<TxnOp> = (0..8)
            .map(|k| TxnOp::Put {
                key: k,
                value: 100 + k,
            })
            .collect();
        let t = c.sent(Request::Txn { ops: ops.clone() });
        assert!(c
            .replied(&t, &Response::TxnOk { applied: 7 }, u64::MAX)
            .is_err());
        let t = c.sent(Request::Txn { ops });
        assert!(c
            .replied(&t, &Response::TxnOk { applied: 8 }, u64::MAX)
            .is_ok());
        let err = Response::Error {
            code: mvcc_net::ErrorCode::Overloaded,
            retry_after_ms: 1,
            message: String::new(),
        };
        let p = c.sent(Request::Put { key: 3, value: 5 });
        assert!(c.replied(&p, &err, u64::MAX).is_err());
    }

    #[test]
    fn confinement_is_undone_on_drop() {
        // This thread stands in for the server thread too.
        let before = affinity(0).expect("own CPU set");
        let shared = SharedCpu::confine(procfs::current_tid());
        assert!(
            shared.what.starts_with("server and load"),
            "{}",
            shared.what
        );
        if crate::nproc() >= 2 {
            assert_ne!(affinity(0), Some(before));
        }
        drop(shared);
        assert_eq!(affinity(0), Some(before));
    }
}
