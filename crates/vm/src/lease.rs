//! A lock-free lease registry for VM process ids.
//!
//! The VM problem's contract says each of the `P` process ids "may be used
//! by at most one thread at a time". [`PidPool`] turns that doc-comment
//! contract into a runtime-enforced lease: a free pid is popped from a
//! tagged Treiber freelist (the same ABA-guarded idiom as the arena's
//! per-shard freelists in `mvcc-plm`), held exclusively until released,
//! and pushed back for reuse. A specific pid can also be claimed with
//! [`PidPool::lease_exact`], which fails if the pid is already held.
//!
//! The pool is the substrate of `mvcc-core`'s `Session` handles; it lives
//! here because the contract it enforces is the VM problem's, not the
//! transaction layer's, and other wrappers (`mvcc-fds::VersionedCell`)
//! reuse it.
//!
//! # Design
//!
//! Every pid carries a small state machine next to the freelist:
//!
//! * `FREE` — not leased; the pid has an entry on the freelist,
//! * `LEASED` — leased; no freelist entry,
//! * `RESERVED` — leased via [`PidPool::lease_exact`] *while its freelist
//!   entry still existed*; the entry is now stale (a tombstone).
//!
//! [`PidPool::lease`] pops entries and CASes `FREE -> LEASED`; when it
//! pops a tombstone it converts the holder to plain `LEASED` (consuming
//! the stale entry) and pops again. [`PidPool::release`] either relists
//! the pid (`LEASED` path: publish `FREE`, then push) or simply flips a
//! still-listed tombstone back to `FREE`. Both sides loop over CASes, so
//! the pair of racing transitions (`RESERVED -> LEASED` by a popper vs
//! `RESERVED -> FREE` by the releaser) always converges: every pid is
//! either on the list with a `FREE`/`RESERVED` state or off the list and
//! `LEASED`.
//!
//! # Memory orderings
//!
//! The pool runs entirely on tunable roles from [`crate::ordering`]
//! (acquire/release by default, `SeqCst` under `strict-sc`): the lease
//! state machine on [`LEASE_CAS`]/[`LEASE_STATE_LOAD`]/
//! [`LEASE_RELEASE_STORE`] — the claiming CAS's acquire is the edge
//! that hands one holder's writes to the next when a pid migrates
//! across threads (what `PerProc`'s safety contract leans on) — and the
//! freelist on [`FREELIST_HEAD_LOAD`]/[`FREELIST_CAS`]/
//! [`FREELIST_LINK`], the classic tagged-Treiber pairing. No StoreLoad
//! window exists here: a popper that misses a just-pushed pid returns
//! `Exhausted`, which the waiting layer above (`mvcc-core`'s session
//! pool) already treats as "park and retry": its release path wakes the
//! front waiter under the wait queue's mutex once `release` returns, and
//! the retry synchronizes through that mutex. The pure
//! diagnostic counters ([`PidPool::leased`] / [`PidPool::is_leased`])
//! read with `Relaxed` (stats only, never decisions).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::ordering::{
    CAS_FAILURE, FREELIST_CAS, FREELIST_HEAD_LOAD, FREELIST_LINK, LEASE_CAS, LEASE_RELEASE_STORE,
    LEASE_STATE_LOAD,
};

const NIL: u32 = u32::MAX;
const TAG_SHIFT: u32 = 32;
const LOW_MASK: u64 = (1u64 << 32) - 1;

const FREE: u32 = 0;
const LEASED: u32 = 1;
const RESERVED: u32 = 2;

/// Error returned by the lease operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseError {
    /// Every pid is currently leased ([`PidPool::lease`]).
    Exhausted {
        /// Total number of pids in the pool.
        processes: usize,
    },
    /// The requested pid is already held ([`PidPool::lease_exact`]).
    PidLeased {
        /// The pid that was requested.
        pid: usize,
    },
    /// The requested pid does not exist ([`PidPool::lease_exact`] with
    /// `pid >= processes`).
    OutOfRange {
        /// The pid that was requested.
        pid: usize,
        /// Total number of pids in the pool.
        processes: usize,
    },
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Exhausted { processes } => {
                write!(f, "all {processes} process ids are leased")
            }
            LeaseError::PidLeased { pid } => {
                write!(f, "process id {pid} is already leased")
            }
            LeaseError::OutOfRange { pid, processes } => {
                write!(f, "process id {pid} is out of range (pool has {processes})")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

struct PidSlot {
    state: AtomicU32,
    /// Freelist link: next free pid, or [`NIL`].
    next: AtomicU32,
}

/// A lock-free pool of `0..processes` leasable process ids.
pub struct PidPool {
    /// Tagged Treiber head: `(tag << 32) | pid`, [`NIL`] when empty. The
    /// tag increments on every successful CAS, guarding against ABA.
    head: AtomicU64,
    slots: Box<[PidSlot]>,
}

impl PidPool {
    /// A pool with every pid in `0..processes` free. Pids are handed out
    /// low-first initially (LIFO thereafter).
    pub fn new(processes: usize) -> Self {
        assert!(processes <= NIL as usize, "pid space overflow");
        let slots: Box<[PidSlot]> = (0..processes)
            .map(|i| PidSlot {
                state: AtomicU32::new(FREE),
                // Initial freelist is 0 -> 1 -> ... -> P-1.
                next: AtomicU32::new(if i + 1 < processes { i as u32 + 1 } else { NIL }),
            })
            .collect();
        PidPool {
            head: AtomicU64::new(if processes == 0 { NIL as u64 } else { 0 }),
            slots,
        }
    }

    /// Number of pids in the pool.
    pub fn processes(&self) -> usize {
        self.slots.len()
    }

    /// Number of pids currently leased (racy snapshot, diagnostics only).
    ///
    /// Relaxed loads: this is a pure statistics sweep — the snapshot is
    /// racy whatever the ordering, no lease/release decision ever reads
    /// it, and callers needing a settled count (tests, shutdown checks)
    /// already synchronize via joins. First slice of the ROADMAP
    /// relaxed-ordering audit; the lease/release state machine itself
    /// stays SeqCst.
    pub fn leased(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state.load(Ordering::Relaxed) != FREE)
            .count()
    }

    /// Is `pid` currently leased? (Racy snapshot, diagnostics only —
    /// Relaxed for the same reason as [`PidPool::leased`].)
    pub fn is_leased(&self, pid: usize) -> bool {
        self.slots[pid].state.load(Ordering::Relaxed) != FREE
    }

    fn pop(&self) -> Option<u32> {
        loop {
            // FREELIST_HEAD_LOAD: synchronizes with the pushing CAS (and
            // its release sequence), making the link below visible.
            let head = self.head.load(FREELIST_HEAD_LOAD);
            let pid = (head & LOW_MASK) as u32;
            if pid == NIL {
                return None;
            }
            // FREELIST_LINK: published by the push CAS we synchronized
            // with; a stale read is discarded by the tag CAS failing.
            let next = self.slots[pid as usize].next.load(FREELIST_LINK);
            let tag = (head >> TAG_SHIFT).wrapping_add(1);
            let new = (tag << TAG_SHIFT) | next as u64;
            if self
                .head
                .compare_exchange(head, new, FREELIST_CAS, CAS_FAILURE)
                .is_ok()
            {
                return Some(pid);
            }
        }
    }

    fn push(&self, pid: u32) {
        loop {
            let head = self.head.load(FREELIST_HEAD_LOAD);
            // FREELIST_LINK: we own this node until the CAS below
            // publishes it (release).
            self.slots[pid as usize]
                .next
                .store((head & LOW_MASK) as u32, FREELIST_LINK);
            let tag = (head >> TAG_SHIFT).wrapping_add(1);
            let new = (tag << TAG_SHIFT) | pid as u64;
            if self
                .head
                .compare_exchange(head, new, FREELIST_CAS, CAS_FAILURE)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Lease any free pid. `Err(Exhausted)` when every pid is held.
    pub fn lease(&self) -> Result<usize, LeaseError> {
        'next_entry: loop {
            let Some(pid) = self.pop() else {
                return Err(LeaseError::Exhausted {
                    processes: self.processes(),
                });
            };
            let slot = &self.slots[pid as usize];
            loop {
                // LEASE_CAS: the acquire on success is the ownership
                // hand-off edge from the previous holder's release.
                match slot
                    .state
                    .compare_exchange(FREE, LEASED, LEASE_CAS, CAS_FAILURE)
                {
                    Ok(_) => return Ok(pid as usize),
                    Err(RESERVED) => {
                        // Stale entry of a pid claimed by `lease_exact`:
                        // consume the tombstone (the holder is now plain
                        // LEASED and will relist on release) and move on.
                        if slot
                            .state
                            .compare_exchange(RESERVED, LEASED, LEASE_CAS, CAS_FAILURE)
                            .is_ok()
                        {
                            continue 'next_entry;
                        }
                        // The reserver released concurrently: state is
                        // FREE again and we hold its (sole) entry — retry
                        // the FREE -> LEASED claim.
                    }
                    Err(_) => unreachable!("popped a pid whose entry was already consumed"),
                }
            }
        }
    }

    /// Lease the specific `pid`. `Err(PidLeased)` if already held,
    /// `Err(OutOfRange)` if the pool has no such pid.
    pub fn lease_exact(&self, pid: usize) -> Result<(), LeaseError> {
        if pid >= self.processes() {
            return Err(LeaseError::OutOfRange {
                pid,
                processes: self.processes(),
            });
        }
        // The entry (if any) stays on the list as a tombstone; `lease`
        // skips it and `release` accounts for it.
        // LEASE_CAS: same ownership hand-off edge as `lease`.
        self.slots[pid]
            .state
            .compare_exchange(FREE, RESERVED, LEASE_CAS, CAS_FAILURE)
            .map(|_| ())
            .map_err(|_| LeaseError::PidLeased { pid })
    }

    /// Return a leased pid to the pool. The caller must be the holder.
    pub fn release(&self, pid: usize) {
        let slot = &self.slots[pid];
        loop {
            match slot.state.load(LEASE_STATE_LOAD) {
                LEASED => {
                    // Off-list: publish FREE first, then relist. A
                    // `lease_exact` that claims the pid inside this window
                    // turns the entry we are about to push into a
                    // tombstone, which `lease` handles.
                    // LEASE_RELEASE_STORE: hands our writes to the next
                    // claimant's LEASE_CAS acquire.
                    slot.state.store(FREE, LEASE_RELEASE_STORE);
                    self.push(pid as u32);
                    break;
                }
                RESERVED => {
                    // Our entry should still be on the list; just flip the
                    // state. A concurrent `lease` may consume the entry
                    // first (RESERVED -> LEASED), in which case we loop
                    // into the LEASED arm and relist.
                    // LEASE_CAS: release side of the hand-off edge.
                    if slot
                        .state
                        .compare_exchange(RESERVED, FREE, LEASE_CAS, CAS_FAILURE)
                        .is_ok()
                    {
                        break;
                    }
                }
                _ => panic!("release of pid {pid} that is not leased"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn lease_all_then_exhausted() {
        let pool = PidPool::new(4);
        let mut got: Vec<usize> = (0..4).map(|_| pool.lease().unwrap()).collect();
        assert_eq!(
            pool.lease(),
            Err(LeaseError::Exhausted { processes: 4 }),
            "5th lease must fail"
        );
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3], "each pid leased exactly once");
        for pid in got {
            pool.release(pid);
        }
        assert_eq!(pool.leased(), 0);
    }

    #[test]
    fn release_makes_pid_reusable() {
        let pool = PidPool::new(1);
        let pid = pool.lease().unwrap();
        pool.release(pid);
        assert_eq!(pool.lease().unwrap(), pid, "sole pid comes back");
        pool.release(pid);
    }

    #[test]
    fn lease_exact_conflicts() {
        let pool = PidPool::new(3);
        pool.lease_exact(1).unwrap();
        assert_eq!(pool.lease_exact(1), Err(LeaseError::PidLeased { pid: 1 }));
        // The other two pids are still leasable around the tombstone.
        let a = pool.lease().unwrap();
        let b = pool.lease().unwrap();
        assert_eq!(
            HashSet::from([a, b]),
            HashSet::from([0, 2]),
            "tombstoned pid must be skipped"
        );
        assert_eq!(pool.lease(), Err(LeaseError::Exhausted { processes: 3 }));
        pool.release(1);
        assert_eq!(pool.lease(), Ok(1));
        pool.release(1);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.leased(), 0);
    }

    #[test]
    fn lease_exact_out_of_range_is_a_typed_error() {
        let pool = PidPool::new(2);
        assert_eq!(
            pool.lease_exact(2),
            Err(LeaseError::OutOfRange {
                pid: 2,
                processes: 2
            })
        );
        assert_eq!(pool.leased(), 0, "failed lease must not consume a pid");
    }

    #[test]
    fn concurrent_churn_never_double_leases() {
        use std::sync::atomic::{AtomicBool, AtomicU32};
        const PIDS: usize = 4;
        const THREADS: usize = 8;
        let pool = PidPool::new(PIDS);
        let held: [AtomicBool; PIDS] = std::array::from_fn(|_| AtomicBool::new(false));
        let exact_hits = AtomicU32::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = &pool;
                let held = &held;
                let exact_hits = &exact_hits;
                s.spawn(move || {
                    for i in 0..3_000u32 {
                        // Mix anonymous leases with targeted ones to drive
                        // the tombstone paths.
                        let pid = if (i as usize + t).is_multiple_of(3) {
                            let want = (i as usize + t) % PIDS;
                            match pool.lease_exact(want) {
                                Ok(()) => {
                                    exact_hits.fetch_add(1, Ordering::Relaxed);
                                    want
                                }
                                Err(_) => continue,
                            }
                        } else {
                            match pool.lease() {
                                Ok(p) => p,
                                Err(_) => continue,
                            }
                        };
                        assert!(
                            !held[pid].swap(true, Ordering::SeqCst),
                            "pid {pid} double-leased"
                        );
                        std::hint::spin_loop();
                        held[pid].store(false, Ordering::SeqCst);
                        pool.release(pid);
                    }
                });
            }
        });
        assert_eq!(pool.leased(), 0, "all pids returned after churn");
        assert!(
            exact_hits.load(Ordering::Relaxed) > 0,
            "exact path exercised"
        );
        // The full pool is still leasable.
        let all: Vec<usize> = (0..PIDS).map(|_| pool.lease().unwrap()).collect();
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), PIDS);
    }
}
