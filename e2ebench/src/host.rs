//! What the host and the process look like: the CPU probe, memory high
//! water mark, process CPU time, and the run stamp.

use std::hint::black_box;
use std::time::Instant;

use crate::report::Outcome;

/// Iterations of the fixed probe loop (about 60–120 ms on one 2020s
/// x86-64 core).
const PROBE_ITERS: u64 = 40_000_000;

/// Time a fixed single-threaded integer loop, in milliseconds. The same
/// work on every run, so a change in this figure is the host, not the
/// program.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Current resident set of this process (`VmRSS`), in MiB.
pub fn rss_mb() -> Option<f64> {
    status_kb("VmRSS:").map(|kb| kb / 1024.0)
}

/// User + system CPU time of the whole process (every thread, live or
/// exited), in seconds, from `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, so the 12th and 13th here.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Machine-wide CPU ticks since boot from `/proc/stat`: `(steal, all)`.
/// Steal is time the hypervisor ran something else while this guest's
/// vCPUs wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Record the host figures of a run that started with `probe_before`
/// and `ticks_before`: the probe's mean and drift, and the share of CPU
/// time the hypervisor stole meanwhile.
pub fn record(out: &mut Outcome, probe_before: f64, ticks_before: Option<(u64, u64)>) {
    let probe_after = probe_ms();
    out.layers
        .set("host.probe_ms", (probe_before + probe_after) / 2.0);
    out.layers
        .set("host.probe_drift", probe_after / probe_before);
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let total = t1.saturating_sub(t0).max(1);
        let stolen = s1.saturating_sub(s0) as f64 * 100.0 / total as f64;
        out.layers.set("host.steal_pct", stolen);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without running git; `unknown` outside a git work tree.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_plausible_values() {
        if let (Some(peak), Some(now)) = (peak_rss_mb(), rss_mb()) {
            assert!(peak >= now * 0.5 && now > 0.0, "peak {peak} now {now}");
        }
        if let Some(cpu) = process_cpu_s() {
            assert!(cpu >= 0.0);
        }
        if let Some((steal, all)) = cpu_ticks() {
            assert!(steal <= all && all > 0);
        }
        assert!(nproc() >= 1);
    }
}
