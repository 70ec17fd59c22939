//! The benchmark's clocks: CPU time at a reference host speed.
//!
//! On a shared virtual machine the hypervisor steals CPU time from the
//! guest; where this benchmark was sized, steal ran at 5–15 % and moved
//! wall-clock numbers by ±15 % from one run to the next. The kernel
//! excludes stolen time from a thread's CPU clock, so every duration the
//! benchmark measures is CPU time: a thread's for work that runs on one
//! thread, the process's (all threads, live and exited) for work that
//! spans several.
//!
//! CPU time still moves with the host: turbo headroom and the cache and
//! memory bandwidth other tenants leave. There, CPU-time throughput of
//! one workload varied by up to 60 % between 20-second runs within a
//! quarter of an hour. So every run also times a fixed calibration
//! kernel ([`calibrate`]: hash-map updates, a sort and string
//! formatting, the allocation-heavy mix of the compiler and differ)
//! every [`CALIBRATE_EVERY_S`], between items, and scales each item's
//! duration by [`REFERENCE_S`] over the median calibration time of the
//! samples within [`LOCAL_WINDOW_S`] of it, so a slow spell scales only
//! the items it slowed. Totals (throughput, setup, the probe) use the
//! run's median.
//!
//! The reported numbers read as CPU time on the sizing host in its
//! common state. Over 36 runs of `cve-cold`, `cve-warm` and `fuzz`,
//! the kernel's median time tracked each workload's unscaled throughput
//! with a log-log slope of 0.93–1.13 (correlation 0.97–0.99), and the
//! scaled throughput stayed within a 6–9 % range; kernels bound by
//! memory latency, page faults or a B-tree tracked it worse. The
//! calibration code lives in the benchmark, so a change to the program
//! cannot speed it up.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark's CPU clocks assume 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above), and both clock ids are
    // fixed Linux constants, so the call writes only `ts`.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time of the whole process, s.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// Wall seconds since this process first asked: the timestamps that
/// pair items with nearby calibration samples.
pub fn wall_s() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// A stopwatch on the calling thread's CPU clock.
pub struct ThreadTimer(f64);

impl ThreadTimer {
    /// Starts timing the calling thread.
    pub fn start() -> ThreadTimer {
        ThreadTimer(read(CLOCK_THREAD_CPUTIME_ID))
    }

    /// CPU seconds the calling thread used since [`ThreadTimer::start`].
    pub fn secs(&self) -> f64 {
        read(CLOCK_THREAD_CPUTIME_ID) - self.0
    }

    /// The same, in milliseconds.
    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }
}

/// Thread CPU time of one [`calibrate`] call on the sizing host (Intel
/// Xeon family 6 model 207, 2.1 GHz nominal, 2-vCPU KVM guest) in its
/// common, contended state.
pub const REFERENCE_S: f64 = 0.0035;

/// Wall-clock interval between calibration samples of one loop.
pub const CALIBRATE_EVERY_S: f64 = 0.2;

/// Half-width of the wall-clock window of calibration samples that
/// scales one item.
pub const LOCAL_WINDOW_S: f64 = 1.0;

/// Runs the calibration kernel once; returns its thread CPU seconds.
pub fn calibrate() -> f64 {
    let t = ThreadTimer::start();
    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(x % 20_000).or_default() += i;
    }
    let mut values: Vec<u64> = counts.into_values().collect();
    values.sort_unstable();
    let mut text = String::new();
    for v in values.iter().take(5_000) {
        text.push_str(&v.to_string());
    }
    std::hint::black_box((values, text));
    t.secs()
}

/// Takes calibration samples between a loop's items, at most one per
/// [`CALIBRATE_EVERY_S`] of wall time (the first call always samples).
#[derive(Default)]
pub struct Pacer {
    last: Option<f64>,
    /// Calibration samples: ([`wall_s`] when taken, thread CPU seconds).
    pub samples: Vec<(f64, f64)>,
}

impl Pacer {
    /// Samples if the interval has passed.
    pub fn tick(&mut self) {
        let now = wall_s();
        if self.last.is_none_or(|t| now - t >= CALIBRATE_EVERY_S) {
            self.samples.push((now, calibrate()));
            self.last = Some(now);
        }
    }

    /// CPU seconds the samples took.
    pub fn spent_s(&self) -> f64 {
        self.samples.iter().map(|s| s.1).sum()
    }

    /// The run-level factor of these samples ([`speed_factor`]).
    pub fn factor(&self) -> f64 {
        speed_factor(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Scales each `(wall_s, duration)` item by the samples within
    /// [`LOCAL_WINDOW_S`] of it, or by the run-level factor where there
    /// are none.
    pub fn scale(&self, items: &[(f64, f64)]) -> Vec<f64> {
        let mut samples = self.samples.clone();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let run = self.factor();
        items
            .iter()
            .map(|&(at, v)| {
                let lo = samples.partition_point(|s| s.0 < at - LOCAL_WINDOW_S);
                let hi = samples.partition_point(|s| s.0 <= at + LOCAL_WINDOW_S);
                let near: Vec<f64> = samples[lo..hi].iter().map(|s| s.1).collect();
                v * stats::median(&near).map_or(run, |m| REFERENCE_S / m)
            })
            .collect()
    }
}

/// The factor that scales this host's CPU durations to the reference
/// speed: [`REFERENCE_S`] over the median calibration sample (1 when
/// there is none).
pub fn speed_factor(samples: &[f64]) -> f64 {
    stats::median(samples).map_or(1.0, |m| REFERENCE_S / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_samples_first_and_then_on_its_interval() {
        let mut p = Pacer::default();
        p.tick();
        p.tick();
        assert_eq!(p.samples.len(), 1);
        assert!(p.spent_s() > 0.0);
        assert_eq!(speed_factor(&[]), 1.0);
        assert_eq!(speed_factor(&[REFERENCE_S / 2.0]), 2.0);
    }

    #[test]
    fn items_scale_by_the_calibration_near_them() {
        let p = Pacer {
            last: None,
            samples: vec![
                (0.0, REFERENCE_S),
                (0.5, REFERENCE_S),
                (10.0, REFERENCE_S * 2.0),
            ],
        };
        // A slow spell at t=10 halves the factor there and only there;
        // an item far from every sample takes the run's median.
        let scaled = p.scale(&[(0.2, 1.0), (10.3, 1.0), (5.0, 1.0)]);
        assert_eq!(scaled, vec![1.0, 0.5, 1.0]);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t, p) = (ThreadTimer::start(), process_s());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(t.secs() > 0.0);
        assert!(process_s() - p >= t.secs() * 0.99);
    }
}
