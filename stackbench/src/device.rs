//! The benchmark's storage device.
//!
//! **This is not a real disk.** [`SimDevice`] keeps every file in memory
//! and makes each `sync` take a fixed, configured latency, so
//! commit latency and group-commit behaviour do not depend on the host's
//! page cache or on a shared disk, whose fsync cost moved 2x between runs
//! on a shared 2-vCPU host. Durability numbers from
//! it are the stack's own costs over an idealised device whose only cost
//! is that sync latency; the output stamps the latency it used.
//!
//! A sync spins out the latency on the monotonic clock instead of
//! sleeping. A sleep overshoots by the timer slack plus the wake-up delay
//! of a shared host, and with two committers under `GroupCommit::Leader`
//! that delay decides which of them leads the next flush: with a
//! sleeping device, runs settled at a commit p50 of either 1.37 ms or
//! 2.06 ms for a 1 ms latency, depending on thread placement. The spin
//! keeps the syncing thread on its core, so every run settles the same
//! way. It costs that thread's CPU for the latency;
//! [`DeviceTotals::sync_ns`] reports the time spent in `sync` so CPU
//! metrics can subtract it.
//!
//! It counts appends, bytes and syncs per file, and times the appends
//! and syncs of checkpoint files so checkpoint cost shows separately.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mvcc_wal::Storage;

/// Counts for one file name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FileCounts {
    pub appends: u64,
    pub bytes: u64,
    pub syncs: u64,
}

/// Totals over one kind of file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceTotals {
    /// WAL segments (`wal-*.seg`).
    pub wal: FileCounts,
    /// Checkpoint images (`ckpt-*`), temporary names included.
    pub checkpoint: FileCounts,
    /// Time spent in appends and syncs of checkpoint files.
    pub checkpoint_write_ns: u64,
    /// Checkpoint images published (renamed into place).
    pub checkpoints_published: u64,
    /// Time threads spent inside `sync`.
    pub sync_ns: u64,
}

#[derive(Default)]
struct State {
    files: HashMap<String, Vec<u8>>,
    counts: BTreeMap<String, FileCounts>,
    checkpoint_write_ns: u64,
    checkpoints_published: u64,
    sync_ns: u64,
}

/// An in-memory [`Storage`] with a fixed sync latency. Not a real disk:
/// see the module docs.
pub struct SimDevice {
    sync_latency: Duration,
    state: Mutex<State>,
}

fn is_checkpoint(name: &str) -> bool {
    name.starts_with("ckpt-")
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, name.to_string())
}

impl SimDevice {
    pub fn new(sync_latency: Duration) -> Self {
        SimDevice {
            sync_latency,
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("device state lock poisoned")
    }

    /// Counts for one file name (zero if never touched).
    pub fn counts(&self, name: &str) -> FileCounts {
        self.state().counts.get(name).copied().unwrap_or_default()
    }

    /// Totals by file kind.
    pub fn totals(&self) -> DeviceTotals {
        let st = self.state();
        let mut t = DeviceTotals {
            checkpoint_write_ns: st.checkpoint_write_ns,
            checkpoints_published: st.checkpoints_published,
            sync_ns: st.sync_ns,
            ..DeviceTotals::default()
        };
        for (name, c) in &st.counts {
            let into = if is_checkpoint(name) {
                &mut t.checkpoint
            } else {
                &mut t.wal
            };
            into.appends += c.appends;
            into.bytes += c.bytes;
            into.syncs += c.syncs;
        }
        t
    }

    /// Bytes currently held, over all files.
    pub fn stored_bytes(&self) -> u64 {
        self.state().files.values().map(|f| f.len() as u64).sum()
    }

    /// A copy of the files as they stand, with fresh counters: a cold
    /// image to recover from.
    pub fn image(&self) -> SimDevice {
        let files = self.state().files.clone();
        SimDevice {
            sync_latency: self.sync_latency,
            state: Mutex::new(State {
                files,
                ..State::default()
            }),
        }
    }
}

impl Storage for SimDevice {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let mut st = self.state();
        st.files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        let c = st.counts.entry(name.to_string()).or_default();
        c.appends += 1;
        c.bytes += data.len() as u64;
        if is_checkpoint(name) {
            st.checkpoint_write_ns += t0.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let t0 = Instant::now();
        while t0.elapsed() < self.sync_latency {
            std::hint::spin_loop();
        }
        let mut st = self.state();
        st.sync_ns += t0.elapsed().as_nanos() as u64;
        st.counts.entry(name.to_string()).or_default().syncs += 1;
        if is_checkpoint(name) {
            st.checkpoint_write_ns += t0.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.state()
            .files
            .get(name)
            .cloned()
            .ok_or_else(|| not_found(name))
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        self.state()
            .files
            .get(name)
            .map(|f| f.len() as u64)
            .ok_or_else(|| not_found(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut st = self.state();
        let f = st.files.get_mut(name).ok_or_else(|| not_found(name))?;
        f.truncate(len as usize);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.state()
            .files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| not_found(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut st = self.state();
        let data = st.files.remove(from).ok_or_else(|| not_found(from))?;
        st.files.insert(to.to_string(), data);
        if is_checkpoint(to) {
            st.checkpoints_published += 1;
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.state().files.keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_appends_bytes_and_syncs_per_file() {
        let d = SimDevice::new(Duration::from_micros(200));
        d.append("wal-00000001.seg", b"abc").unwrap();
        d.append("wal-00000001.seg", b"de").unwrap();
        let t0 = Instant::now();
        d.sync("wal-00000001.seg").unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(200));
        d.append("ckpt-0000000000000001.tmp", b"image").unwrap();
        d.sync("ckpt-0000000000000001.tmp").unwrap();
        d.rename("ckpt-0000000000000001.tmp", "ckpt-0000000000000001.ck")
            .unwrap();

        assert_eq!(
            d.counts("wal-00000001.seg"),
            FileCounts {
                appends: 2,
                bytes: 5,
                syncs: 1
            }
        );
        let t = d.totals();
        assert_eq!(t.wal.appends, 2);
        assert_eq!(t.checkpoint.bytes, 5);
        assert_eq!(t.checkpoint.syncs, 1);
        assert_eq!(t.checkpoints_published, 1);
        assert!(t.sync_ns >= 400_000);
        // The checkpoint sync alone took the configured latency.
        assert!(t.checkpoint_write_ns >= 200_000);
        assert_eq!(d.stored_bytes(), 10);
        assert_eq!(d.read("ckpt-0000000000000001.ck").unwrap(), b"image");
    }

    #[test]
    fn image_copies_files_with_fresh_counts() {
        let d = SimDevice::new(Duration::ZERO);
        d.append("a", b"12345").unwrap();
        d.truncate("a", 3).unwrap();
        let img = d.image();
        assert_eq!(img.read("a").unwrap(), b"123");
        assert_eq!(img.counts("a"), FileCounts::default());
        img.remove("a").unwrap();
        assert!(img.read("a").is_err());
        assert_eq!(d.len("a").unwrap(), 3);
        assert_eq!(d.list().unwrap(), vec!["a".to_string()]);
    }
}
