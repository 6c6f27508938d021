//! The robust estimator every timed metric goes through.
//!
//! The sandbox is a virtual machine on a shared host, and each of its CPUs
//! flips between two regimes: one in which a raw loopback echo takes 15.6 µs
//! and one in which the same echo takes 24–26 µs (system-call and wake-up
//! paths slow down by half, arithmetic by a twentieth), for seconds or for
//! minutes at a time, whatever the guest itself is doing — somebody else's
//! work on the other hardware thread of the core. Over ten minutes the share
//! of quiet 125 ms windows in a 20 s stretch ranged from 5% to 97%. A mean,
//! a median or a lower quartile across windows therefore mostly measures the
//! neighbours: cut into 20 s segments, the same loop's lower-quartile p50 had
//! a quartile spread of 22% from segment to segment, its minimum 3.8%.
//!
//! So every timed phase is cut into **windows** of thousands of operations,
//! and the figures come from the undisturbed ones:
//!
//! * A phase that runs on the clock ([`WindowedLoop`], [`summarize`]) is cut
//!   into fixed stretches of it, so the number of windows follows from the
//!   run length alone, not from how fast the program is. The **quiet
//!   windows** are those whose median latency is within [`QUIET_WITHIN`] of
//!   the best window's (the regimes are 40% apart, windows of one regime 4%);
//!   their samples are pooled, and rate, median, 99th percentile and CPU time
//!   per operation are taken over the pool.
//! * An embedded pass repeats exactly, so it is cut at fixed positions and
//!   the fastest rendition of every segment is stitched into one pass
//!   ([`BestSegments`]).
//!
//! Either way a percentile is taken over everything that happened inside the
//! kept windows, so a tail the program itself produces is in all of them and
//! stays; what is discarded is the windows the neighbours disturbed.
//! Whole-phase raw figures are printed beside the gated ones.

use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` in `[0, 1]` of already sorted values.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no values");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile of unsorted values (sorts a copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Percentile `p` in `[0, 100]` of latency samples in nanoseconds, in
/// microseconds. Sorts the slice in place.
pub fn percentile_us(samples_ns: &mut [u32], p: f64) -> f64 {
    assert!(!samples_ns.is_empty(), "percentile of no samples");
    samples_ns.sort_unstable();
    let idx = ((p / 100.0) * (samples_ns.len() - 1) as f64).round() as usize;
    samples_ns[idx] as f64 / 1e3
}

/// One window of a timed phase: its wall time, the latency of every
/// operation completed in it, and what the caller adds about it.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub wall: Duration,
    pub latencies_ns: Vec<u32>,
    /// CPU time the serving side spent in the window, ns.
    pub cpu_ns: u64,
    /// Operations served in the window besides the ones timed here (the
    /// writes beside `replica_follow`'s reads): they share `cpu_ns`.
    pub other_ops: u64,
}

impl Window {
    pub fn rate(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Latency samples of one closed loop, cut into windows of fixed length
/// while it runs. The trailing partial window is dropped by [`finish`].
///
/// [`finish`]: WindowedLoop::finish
pub struct WindowedLoop {
    window_len: Duration,
    window_start: Instant,
    current: Vec<u32>,
    done: Vec<Window>,
}

impl WindowedLoop {
    pub fn new(window_len: Duration, start: Instant) -> Self {
        WindowedLoop {
            window_len,
            window_start: start,
            current: Vec::with_capacity(16 * 1024),
            done: Vec::new(),
        }
    }

    /// Record one operation that completed at `now` after `latency`. Returns
    /// true when it was the first operation of a new window.
    pub fn record(&mut self, now: Instant, latency: Duration) -> bool {
        let mut opened = false;
        while now.duration_since(self.window_start) >= self.window_len {
            let full = std::mem::replace(&mut self.current, Vec::with_capacity(16 * 1024));
            self.done.push(Window {
                wall: self.window_len,
                latencies_ns: full,
                ..Window::default()
            });
            self.window_start += self.window_len;
            opened = true;
        }
        self.current
            .push(latency.as_nanos().min(u32::MAX as u128) as u32);
        opened
    }

    /// Full windows so far.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// The window completed last, for the caller to add its CPU time to.
    pub fn last_completed(&mut self) -> Option<&mut Window> {
        self.done.last_mut()
    }

    /// The full windows; the partial last one is discarded.
    pub fn finish(self) -> Vec<Window> {
        self.done
    }
}

/// A window is quiet when its median is at most this multiple of the best
/// window's median.
pub const QUIET_WITHIN: f64 = 1.08;

/// What one timed phase reports: the figures over its quiet windows, which
/// are gated, the raw whole-phase figures printed beside them, and the
/// sample counts.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// Operations per second, median and 99th percentile (µs) and CPU time
    /// per operation (µs) over the pooled quiet windows.
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_op: f64,
    /// Quiet windows, and the samples in them.
    pub quiet: usize,
    pub samples: usize,
    /// Operations over wall time of all windows together.
    pub raw_rate: f64,
    /// Median and 99th percentile over all samples of the phase, µs.
    pub raw_p50_us: f64,
    pub raw_p99_us: f64,
    pub raw_cpu_us_per_op: f64,
    pub windows: usize,
}

/// Summarise the windows of one phase. A window with less than half the
/// samples of the median window (a stall ate most of it) has no percentile
/// worth the name and cannot be the best; `None` when no window has samples.
pub fn summarize(windows: &mut [Window]) -> Option<PhaseSummary> {
    if windows.is_empty() {
        return None;
    }
    let mut sizes: Vec<f64> = windows
        .iter()
        .map(|w| w.latencies_ns.len() as f64)
        .collect();
    sizes.sort_by(f64::total_cmp);
    let full = quantile_sorted(&sizes, 0.5) / 2.0;
    let p50s: Vec<Option<f64>> = windows
        .iter_mut()
        .map(|w| {
            (!w.latencies_ns.is_empty() && w.latencies_ns.len() as f64 >= full)
                .then(|| percentile_us(&mut w.latencies_ns, 50.0))
        })
        .collect();
    let best = p50s.iter().flatten().copied().min_by(f64::total_cmp)?;

    let (mut pool, mut all): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    let (mut quiet, mut wall, mut cpu_ns, mut ops) = (0, 0.0, 0u64, 0u64);
    let (mut raw_wall, mut raw_cpu_ns, mut raw_ops) = (0.0, 0u64, 0u64);
    for (w, p50) in windows.iter().zip(&p50s) {
        all.extend_from_slice(&w.latencies_ns);
        raw_wall += w.wall.as_secs_f64();
        raw_cpu_ns += w.cpu_ns;
        raw_ops += w.latencies_ns.len() as u64 + w.other_ops;
        if p50.is_some_and(|p50| p50 <= best * QUIET_WITHIN) {
            pool.extend_from_slice(&w.latencies_ns);
            quiet += 1;
            wall += w.wall.as_secs_f64();
            cpu_ns += w.cpu_ns;
            ops += w.latencies_ns.len() as u64 + w.other_ops;
        }
    }
    let (samples, raw_samples) = (pool.len(), all.len());
    Some(PhaseSummary {
        rate: samples as f64 / wall,
        p50_us: percentile_us(&mut pool, 50.0),
        p99_us: percentile_us(&mut pool, 99.0),
        cpu_us_per_op: cpu_ns as f64 / 1e3 / ops as f64,
        quiet,
        samples,
        raw_rate: raw_samples as f64 / raw_wall,
        raw_p50_us: percentile_us(&mut all, 50.0),
        raw_p99_us: percentile_us(&mut all, 99.0),
        raw_cpu_us_per_op: raw_cpu_ns as f64 / 1e3 / raw_ops as f64,
        windows: windows.len(),
    })
}

/// The best rendition of every segment of a repeated pass.
///
/// An embedded pass takes a second, longer than most quiet stretches of the
/// host, but it repeats exactly: same instances, fresh cache. So a pass is
/// cut into segments at fixed positions — thousands of decisions each, the
/// same work in every pass — and of each segment the rendition with the
/// shortest wall time is kept. Stitched together they are the pass as it runs
/// undisturbed, and every figure is taken over that one stitched pass.
pub struct BestSegments {
    /// Per segment: the kept rendition.
    best: Vec<Option<Window>>,
}

/// What the stitched pass reports.
#[derive(Debug, Clone, PartialEq)]
pub struct StitchedSummary {
    /// Operations over the wall time of the kept renditions.
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_op: f64,
    pub samples: usize,
}

impl BestSegments {
    pub fn new(segments: usize) -> BestSegments {
        BestSegments {
            best: (0..segments).map(|_| None).collect(),
        }
    }

    /// Offer one rendition of segment number `segment`.
    pub fn offer(&mut self, segment: usize, window: Window) {
        let slot = &mut self.best[segment];
        if slot.as_ref().is_none_or(|kept| window.wall < kept.wall) {
            *slot = Some(window);
        }
    }

    /// `None` until every segment has a rendition.
    pub fn summary(&self) -> Option<StitchedSummary> {
        let mut latencies: Vec<u32> = Vec::new();
        let (mut wall, mut cpu_ns) = (Duration::ZERO, 0u64);
        for slot in &self.best {
            let window = slot.as_ref()?;
            latencies.extend_from_slice(&window.latencies_ns);
            wall += window.wall;
            cpu_ns += window.cpu_ns;
        }
        if latencies.is_empty() {
            return None;
        }
        let samples = latencies.len();
        Some(StitchedSummary {
            rate: samples as f64 / wall.as_secs_f64(),
            p50_us: percentile_us(&mut latencies, 50.0),
            p99_us: percentile_us(&mut latencies, 99.0),
            cpu_us_per_op: cpu_ns as f64 / 1e3 / samples as f64,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_picks_rank() {
        let mut ns: Vec<u32> = (1..=100).map(|i| i * 1000).collect();
        ns.reverse();
        assert_eq!(percentile_us(&mut ns, 50.0), 51.0); // round(49.5) = 50 → 51st value
        assert_eq!(percentile_us(&mut ns, 99.0), 99.0);
        assert_eq!(percentile_us(&mut ns, 100.0), 100.0);
    }

    #[test]
    fn windows_cut_on_the_clock_and_drop_the_partial_tail() {
        let start = Instant::now();
        let sec = Duration::from_secs(1);
        let mut l = WindowedLoop::new(sec, start);
        // 3 operations in window 0, none in window 1, 2 in window 2, 1 in
        // the unfinished window 3.
        let opened: Vec<bool> = [100u64, 200, 900, 2100, 2900, 3100]
            .iter()
            .map(|ms| {
                l.record(
                    start + Duration::from_millis(*ms),
                    Duration::from_micros(10),
                )
            })
            .collect();
        assert_eq!(opened, [false, false, false, true, false, true]);
        assert_eq!(l.completed(), 3);
        let w = l.finish();
        assert_eq!(w.len(), 3);
        assert_eq!(
            w.iter().map(|w| w.latencies_ns.len()).collect::<Vec<_>>(),
            vec![3, 0, 2]
        );
        assert_eq!(w[0].rate(), 3.0);
    }

    #[test]
    fn summary_pools_the_quiet_windows_and_keeps_their_tail() {
        // Windows of one second. Every window has its own tail (one sample
        // in fifty is slow): that is the program's and stays. Two windows
        // were disturbed as a whole: they only show in the raw figures. One
        // was stalled nearly throughout: its few fast samples do not make it
        // the best window.
        let window = |n: usize, ns: u32, tail_ns: u32| {
            let mut latencies_ns = vec![ns; n];
            for slow in latencies_ns.iter_mut().step_by(50) {
                *slow = tail_ns;
            }
            Window {
                wall: Duration::from_secs(1),
                latencies_ns,
                cpu_ns: 2_000 * n as u64,
                other_ops: n as u64,
            }
        };
        let mut windows = vec![
            window(10_000, 100_000, 300_000),
            window(10_400, 96_000, 300_000),
            window(2_500, 400_000, 9_000_000),
            window(5_000, 200_000, 2_000_000),
            window(10, 50_000, 50_000),
            Window::default(),
        ];
        let s = summarize(&mut windows).unwrap();
        // 100 µs is within 8% of 96 µs: two quiet windows, pooled.
        assert_eq!((s.quiet, s.samples, s.windows), (2, 20_400, 6));
        assert_eq!(s.rate, 10_200.0);
        assert_eq!(s.p50_us, 100.0);
        // The tail the quiet windows have is reported, not filtered away.
        assert_eq!(s.p99_us, 300.0);
        // 2 µs of CPU per timed operation, shared with as many others.
        assert_eq!(s.cpu_us_per_op, 1.0);
        assert!(s.raw_rate < 6_000.0 && s.raw_p99_us >= 400.0);
        assert_eq!(s.raw_cpu_us_per_op, 1.0);
        assert!(summarize(&mut []).is_none());
        assert!(summarize(&mut [Window::default()]).is_none());
    }

    #[test]
    fn best_segments_stitch_the_undisturbed_rendition_of_each() {
        let rendition = |ms: u64, ns: u32, cpu_ns: u64| Window {
            wall: Duration::from_millis(ms),
            latencies_ns: vec![ns, ns, ns, 10 * ns],
            cpu_ns,
            other_ops: 0,
        };
        let mut best = BestSegments::new(2);
        assert!(best.summary().is_none());
        // Pass 0 is disturbed in segment 1, pass 1 in segment 0.
        best.offer(0, rendition(4, 1_000, 3_000_000));
        best.offer(1, rendition(90, 20_000, 70_000_000));
        best.offer(0, rendition(50, 12_000, 40_000_000));
        best.offer(1, rendition(12, 3_000, 9_000_000));
        let s = best.summary().unwrap();
        assert_eq!(s.samples, 8);
        assert_eq!(s.rate, 500.0); // 8 operations in 4 + 12 ms
        assert_eq!(s.cpu_us_per_op, 1_500.0); // 3 + 9 ms over 8 operations
                                              // The slow operation each rendition has is the program's: it stays.
        assert_eq!(s.p50_us, 3.0);
        assert_eq!(s.p99_us, 30.0);
    }
}
