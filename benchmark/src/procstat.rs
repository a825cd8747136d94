//! Process and machine readings from `/proc` (Linux only; every reading
//! degrades to zero / "unknown" elsewhere rather than failing the run).

use std::process::Command;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `sysconf`
/// is not reachable from std; every Linux ABI this runs on uses 100.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, all threads.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from after its closing parenthesis. utime/stime are fields 14/15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / CLK_TCK
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1/5/15-minute load averages.
pub fn loadavg() -> [f64; 3] {
    let mut out = [0.0; 3];
    if let Ok(text) = std::fs::read_to_string("/proc/loadavg") {
        for (slot, field) in out.iter_mut().zip(text.split_whitespace()) {
            *slot = field.parse().unwrap_or(0.0);
        }
    }
    out
}

/// First line of a command's stdout, or "unknown" if it cannot be run (the
/// benchmark may run in a checkout that is not a git repository).
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Times a fixed xorshift dependency chain: register-only, one operation in
/// flight at a time, so its duration is a cycle count over the core's
/// current clock frequency and nothing else.
fn spin() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..8_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Coefficient of variation of `reps` spins: the machine-noise reading taken
/// before any workload runs. Anything above a few percent means the clock is
/// moving or the cores are shared with something else.
pub fn spin_cv(reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| spin()).collect();
    let mean = times.iter().sum::<f64>() / reps as f64;
    let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / reps as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let before = cpu_seconds();
        let cv = spin_cv(3);
        assert!(cv.is_finite() && cv >= 0.0);
        assert!(cpu_seconds() >= before);
        assert!(nproc() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
        assert_eq!(command_line("definitely-not-a-program", &[]), "unknown");
    }
}
