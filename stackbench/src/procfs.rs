//! Process and thread CPU counters read from Linux `/proc`. Every reader
//! returns 0 when the file is missing, so the benchmark still runs (with
//! zero CPU metrics) where `/proc` is not mounted.

use std::fs;

/// Clock ticks per second for `/proc/*/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: u64 = 100;

/// CPU time used by the whole process, threads that already exited
/// included (10 ms resolution).
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| f.get(i).and_then(|v| v.parse::<u64>().ok()))
        .sum();
    ticks * (1_000_000_000 / USER_HZ)
}

/// The calling thread's kernel id.
pub fn current_tid() -> u64 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// A thread of this process by its name (`comm`), if one is running.
pub fn find_thread(name: &str) -> Option<u64> {
    for entry in fs::read_dir("/proc/self/task").ok()?.flatten() {
        let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        // `comm` is truncated to 15 bytes by the kernel.
        let want = &name[..name.len().min(15)];
        if comm.trim_end() == want {
            return entry.file_name().to_str()?.parse().ok();
        }
    }
    None
}

/// Nanoseconds thread `tid` has run on a CPU (scheduler accounting,
/// nanosecond resolution).
pub fn thread_cpu_ns(tid: u64) -> u64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Voluntary plus involuntary context switches of thread `tid`.
pub fn thread_ctx_switches(tid: u64) -> u64 {
    let Ok(status) = fs::read_to_string(format!("/proc/self/task/{tid}/status")) else {
        return 0;
    };
    status
        .lines()
        .filter(|l| l.contains("ctxt_switches:"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum()
}

/// Steal ticks and all ticks of every CPU, from `/proc/stat`: time the
/// hypervisor ran something else while a CPU of this machine wanted to
/// run.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already inside user.
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// The CPU model string, for the output stamp.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_with_work() {
        let tid = current_tid();
        assert!(tid > 0);
        let before = thread_cpu_ns(tid);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns(tid) > before);
        assert!(process_cpu_ns() > 0);
        let (steal, total) = cpu_steal_ticks();
        assert!(total > 0 && steal <= total);
    }

    #[test]
    fn finds_a_named_thread() {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("probe-thread".into())
            .spawn(move || {
                // The OS-level name is set before this closure runs.
                ready_tx.send(()).unwrap();
                stop_rx.recv().ok()
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let found = find_thread("probe-thread");
        stop_tx.send(()).unwrap();
        h.join().unwrap();
        assert!(found.is_some());
        assert_eq!(find_thread("no-such-thread"), None);
    }
}
