//! CPU placement: the benchmark and everything it starts run on one CPU at
//! a time.
//!
//! Left to the scheduler, a one-connection ping-pong over loopback ran in one
//! of several regimes — client and server on one CPU, or on two with an
//! idle-CPU wake-up on every hop — and flipped between them from run to run
//! (medians of 25, 38 and 88 µs for the same build). Fixing client and
//! server on *different* CPUs removed the flipping but not the noise: every
//! hop then wakes an idle virtual CPU through the hypervisor, and when the
//! host was busy the same build measured anything from 52 to 120 µs. On one
//! CPU there is always something to run, no virtual CPU ever halts, and the
//! round trip is the path length of client, kernel and server. So the
//! process pins itself to a single CPU at start; its threads and the servers
//! it spawns inherit that. What the gated metrics measure is CPU path
//! length, not parallel capacity: worker hand-off across CPUs, lock and
//! snapshot contention and cross-CPU wake-ups are outside them. The traced
//! run has one probe that is not pinned ([`unpinned`]) and reports what it
//! sees, ungated.
//!
//! Which CPU matters too: each virtual CPU has its own neighbours on the
//! host and is slow or quiet independently of the other (see `estimator`),
//! for up to a minute at a time. So a timed phase takes turns on the CPUs it
//! may use ([`turn`]), every two seconds, load generator and servers moving
//! together; the best window may come from any of them.

use std::io;
use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// A set of CPUs in the kernel's bit-mask form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; WORDS]);

impl CpuSet {
    pub fn of(cpus: &[usize]) -> CpuSet {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus {
            assert!(cpu < WORDS * 64, "cpu {cpu} out of range");
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        CpuSet(mask)
    }

    pub fn cpus(&self) -> Vec<usize> {
        (0..WORDS * 64)
            .filter(|cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Restrict thread `tid` (0: the calling thread) to this set.
    fn pin_thread(&self, tid: i32) -> io::Result<()> {
        // SAFETY: the mask is a live, properly aligned array of exactly the
        // size passed; the kernel only reads the mask.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Restrict the calling thread (and every thread or process it starts
    /// from now on) to this set.
    pub fn pin_current_thread(&self) -> io::Result<()> {
        self.pin_thread(0)
    }

    /// Restrict every thread process `pid` has right now to this set.
    pub fn pin_process(&self, pid: u32) -> io::Result<()> {
        for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            let name = task?.file_name();
            let tid: i32 = name
                .to_string_lossy()
                .parse()
                .map_err(|_| io::Error::other("unreadable thread id"))?;
            match self.pin_thread(tid) {
                // A thread may exit between the listing and the call.
                Err(e) if e.raw_os_error() != Some(3) => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }
}

/// The CPUs the calling thread may run on.
pub fn allowed() -> io::Result<CpuSet> {
    let mut mask = [0u64; WORDS];
    // SAFETY: the buffer is a live, properly aligned array of exactly the
    // size passed, which the kernel fills; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc == 0 {
        Ok(CpuSet(mask))
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The CPUs the process could use before it pinned itself.
static BEFORE_PINNING: OnceLock<CpuSet> = OnceLock::new();

/// Pin the calling thread — and with it every thread and process started
/// from now on — to the CPU of turn 0. Returns that CPU.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let all = allowed()?;
    if all.cpus().is_empty() {
        return Err(io::Error::other("no CPU allowed"));
    }
    BEFORE_PINNING.get_or_init(|| all);
    let first = turn(0)?;
    first.pin_current_thread()?;
    Ok(first.cpus()[0])
}

/// How long a timed phase stays on one CPU before it moves to the next.
pub const TURN: std::time::Duration = std::time::Duration::from_secs(2);

/// The one CPU everything runs on during turn number `n` of a timed phase:
/// the CPUs the process had before it pinned itself, one after the other,
/// starting with the last (which on the sandbox serves fewer device
/// interrupts than the first).
pub fn turn(n: usize) -> io::Result<CpuSet> {
    let all = match BEFORE_PINNING.get() {
        Some(all) => all.cpus(),
        None => allowed()?.cpus(),
    };
    Ok(CpuSet::of(&[all[(all.len() - 1 + n) % all.len()]]))
}

/// Run `work` with the calling thread free to use every CPU the process had
/// before [`pin_to_one_cpu`]; threads and processes `work` starts inherit
/// that. The thread is put back where it was afterwards.
pub fn unpinned<T>(work: impl FnOnce() -> T) -> io::Result<T> {
    let pinned = allowed()?;
    BEFORE_PINNING
        .get()
        .unwrap_or(&pinned)
        .pin_current_thread()?;
    let out = work();
    pinned.pin_current_thread()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_round_trip() {
        let set = CpuSet::of(&[0, 1, 5, 64, 70]);
        assert_eq!(set.cpus(), vec![0, 1, 5, 64, 70]);
        assert!(CpuSet::of(&[]).cpus().is_empty());
    }

    #[test]
    fn pinning_a_thread_shows_in_its_allowed_set() {
        let before = allowed().unwrap();
        let first = before.cpus()[0];
        std::thread::spawn(move || {
            CpuSet::of(&[first]).pin_current_thread().unwrap();
            assert_eq!(allowed().unwrap().cpus(), vec![first]);
        })
        .join()
        .unwrap();
        // Only that thread was pinned.
        assert_eq!(allowed().unwrap(), before);
    }

    #[test]
    fn unpinned_work_sees_every_cpu_and_the_pin_comes_back() {
        let before = allowed().unwrap();
        std::thread::spawn(move || {
            let cpu = pin_to_one_cpu().unwrap();
            let inside = unpinned(|| allowed().unwrap()).unwrap();
            assert_eq!(inside, before);
            assert_eq!(allowed().unwrap().cpus(), vec![cpu]);
            // Turns go round the CPUs there were before pinning.
            let all = before.cpus();
            for n in 0..2 * all.len() {
                assert_eq!(
                    turn(n).unwrap().cpus(),
                    vec![all[(all.len() - 1 + n) % all.len()]]
                );
            }
            // A whole process follows.
            let mut child = std::process::Command::new("sleep")
                .arg("30")
                .spawn()
                .unwrap();
            turn(0).unwrap().pin_process(child.id()).unwrap();
            let status = std::fs::read_to_string(format!("/proc/{}/status", child.id())).unwrap();
            child.kill().unwrap();
            child.wait().unwrap();
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap();
            assert_eq!(list.trim(), all[all.len() - 1].to_string());
        })
        .join()
        .unwrap();
    }
}
