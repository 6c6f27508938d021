//! What the benchmark reads about a process from `/proc`, from outside it:
//! CPU time, peak resident memory and context switches.

use std::fs;
use std::io;

/// Linux reports process times in clock ticks of 1/100 s on every
/// architecture this repository builds on (`getconf CLK_TCK`).
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU time of a process, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    pub user_us: f64,
    pub sys_us: f64,
}

impl CpuTimes {
    pub fn total_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }
}

/// Parse the text of `/proc/<pid>/stat`. The second field is the command in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the last `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_us: utime / TICKS_PER_SEC * 1e6,
        sys_us: stime / TICKS_PER_SEC * 1e6,
    })
}

/// The value of one `Key:\t<number> [kB]` line of a `/proc/*/status` text.
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches in one `status` text.
pub fn parse_ctx_switches(text: &str) -> Option<u64> {
    Some(
        status_field(text, "voluntary_ctxt_switches")?
            + status_field(text, "nonvoluntary_ctxt_switches")?,
    )
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// CPU time of process `pid` so far (all its threads).
pub fn cpu_times(pid: u32) -> io::Result<CpuTimes> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&text).ok_or_else(|| invalid(format!("unreadable /proc/{pid}/stat")))
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status_field(&text, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| invalid(format!("no VmHWM in /proc/{pid}/status")))
}

/// Context switches of process `pid`, summed over its threads: the
/// per-process `status` file counts only the main thread.
pub fn ctx_switches(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("status");
        // A thread may exit between the listing and the read.
        if let Ok(text) = fs::read_to_string(&path) {
            total += parse_ctx_switches(&text)
                .ok_or_else(|| invalid(format!("no switch counts in {}", path.display())))?;
        }
    }
    Ok(total)
}

/// Nanoseconds on a CPU so far, from the first field of a `schedstat` text.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// Nanoseconds process `pid` has spent on a CPU so far, summed over its
/// threads (`/proc/<pid>/task/*/schedstat`): finer than the clock ticks of
/// `stat`, so short windows can be compared.
pub fn run_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        if let Ok(text) = fs::read_to_string(&path) {
            total += parse_schedstat(&text)
                .ok_or_else(|| invalid(format!("unreadable {}", path.display())))?;
        }
    }
    Ok(total)
}

/// Nanoseconds the calling thread has spent on a CPU so far.
pub fn own_thread_run_ns() -> io::Result<u64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat")?;
    parse_schedstat(&text).ok_or_else(|| invalid("unreadable /proc/thread-self/schedstat".into()))
}

/// Reset this process' own `VmHWM` to its current resident size, so that a
/// peak read later belongs to what ran in between. Best effort: where the
/// kernel refuses, the peak simply also covers set-up.
pub fn reset_own_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (pqo (serve) x) S 1 4242 4242 0 -1 4194560 1367 0 0 0 \
        1234 567 0 0 20 0 4 0 8675309 231694336 3044 18446744073709551615 1 1 0 0 0 0 0 \
        4096 17410 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tpqo\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  226264 kB\nVmSize:\t  226264 kB\nVmHWM:\t   12176 kB\nVmRSS:\t   11000 kB\n\
        Threads:\t4\nvoluntary_ctxt_switches:\t150321\nnonvoluntary_ctxt_switches:\t79\n";

    #[test]
    fn stat_fields_are_counted_after_the_command() {
        let t = parse_stat(STAT).unwrap();
        assert_eq!(t.user_us, 12_340_000.0);
        assert_eq!(t.sys_us, 5_670_000.0);
        assert_eq!(t.total_us(), 18_010_000.0);
        let later = CpuTimes {
            user_us: 12_350_000.0,
            sys_us: 5_700_000.0,
        };
        assert_eq!(later.since(&t).total_us(), 40_000.0);
        assert!(parse_stat("1 (x) S 1 2").is_none());
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(12176));
        assert_eq!(status_field(STATUS, "Threads"), Some(4));
        assert_eq!(status_field(STATUS, "VmSwap"), None);
        // `voluntary_…` must not match inside `nonvoluntary_…`.
        assert_eq!(parse_ctx_switches(STATUS), Some(150_400));
        assert_eq!(parse_ctx_switches("Name:\tx\n"), None);
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(parse_schedstat("1339179 3315991 2\n"), Some(1_339_179));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        let before = own_thread_run_ns().unwrap();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(own_thread_run_ns().unwrap() >= before);
        assert!(run_ns(pid).unwrap() > 0);
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        assert!(ctx_switches(pid).is_ok());
        let a = cpu_times(pid).unwrap();
        assert!(a.total_us() >= 0.0);
    }
}
