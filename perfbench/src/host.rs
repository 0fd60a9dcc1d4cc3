//! What the benchmark reads about its own process and host from procfs.

use std::time::Instant;

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time consumed so far by the calling thread, in nanoseconds
/// (first field of `/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time (user + system) consumed so far by the whole process, in
/// nanoseconds, at the kernel's 100 Hz tick resolution.
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

/// Ticks (1/100 s, summed over CPUs) in which the hypervisor ran
/// something else while this VM's CPUs wanted to run: the `steal` column
/// of `/proc/stat`. 0 where the kernel does not account steal.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Share of `cpus() × seconds` of CPU time stolen, given a steal-tick delta.
pub fn steal_share(ticks: u64, seconds: f64) -> f64 {
    ticks as f64 / (100.0 * seconds.max(1e-9) * cpus() as f64)
}

/// Cost of one `Instant::now()` read, in nanoseconds (median of batches).
pub fn clock_ns() -> f64 {
    const READS: u32 = 10_000;
    let mut per_read = Vec::with_capacity(21);
    for _ in 0..21 {
        let start = Instant::now();
        let mut last = start;
        for _ in 0..READS {
            last = std::hint::black_box(Instant::now());
        }
        per_read.push(last.duration_since(start).as_nanos() as f64 / f64::from(READS));
    }
    crate::stats::median(&per_read)
}
