//! Process-level counters read from `/proc/self` (Linux only; on
//! another system every reading is zero and says so in the output).
//!
//! The cluster under test runs inside this process, so these counters
//! cover servers, client runtime and driver thread together — the whole
//! cost of serving an operation on this host.

use std::fs;
use std::path::Path;

/// `USER_HZ`: the unit of the CPU times in `/proc/self/stat`. It is 100
/// on every Linux the toolchain targets; reading it needs `sysconf`,
/// which safe std does not offer.
const TICKS_PER_SECOND: f64 = 100.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User-mode CPU time so far, µs.
    pub user_us: f64,
    /// Kernel-mode CPU time so far, µs.
    pub sys_us: f64,
    /// Voluntary + involuntary context switches so far, summed over
    /// the live threads.
    pub ctx_switches: u64,
    /// Live threads.
    pub threads: u64,
}

impl ProcSample {
    /// User + system CPU time of the process so far, µs (one file
    /// read; cheap enough for every slice edge).
    pub fn cpu_us_now() -> f64 {
        let (user_us, sys_us) = cpu_times_us();
        user_us + sys_us
    }

    /// Reads the counters now.
    pub fn now() -> ProcSample {
        let (user_us, sys_us) = cpu_times_us();
        ProcSample {
            user_us,
            sys_us,
            ctx_switches: ctx_switches(),
            threads: status_field("/proc/self/status", "Threads:").unwrap_or(0),
        }
    }
}

/// `(user, system)` CPU time of the whole process, µs.
fn cpu_times_us() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return (0.0, 0.0);
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let (utime, stime) = (tick(), tick());
    (utime / TICKS_PER_SECOND * 1e6, stime / TICKS_PER_SECOND * 1e6)
}

/// Peak resident set size (`VmHWM`) so far, MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| {
            let status = t.path().join("status");
            status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// The first number after `key` in a `/proc/.../status`-style file.
fn status_field(path: impl AsRef<Path>, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo` (`"unknown"` when that cannot be
/// read). WAL numbers mean nothing without it.
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> ..."
        let Some((left, right)) = line.split_once(" - ") else { continue };
        let (Some(mount), Some(fstype)) =
            (left.split_ascii_whitespace().nth(4), right.split_ascii_whitespace().next())
        else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}
