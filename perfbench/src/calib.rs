//! Host-speed calibration.
//!
//! On a shared host, other tenants slow this process down by up to a half
//! for seconds to minutes at a time. The slowdown hits allocation- and
//! hash-heavy code like the simulators' and barely touches pure arithmetic,
//! and a parallel workload also loses whole cores, so more samples in a run
//! do not remove it. Before each timed sample the benchmark therefore runs
//! a fixed kernel of that kind on as many threads as the sample uses, with
//! none of its own work running, and scales every host time it reports by
//! [`NOMINAL_SECS`] over the kernel's measured time: seconds on a host
//! where the kernel takes its nominal time. The kernel is part of the
//! benchmark and never changes with the code under test, so a change that
//! makes the program faster shows in full.

use std::collections::HashMap;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

use crate::stats::median;

/// The kernel's time on the 2-core Xeon host the benchmark was defined on.
pub const NOMINAL_SECS: f64 = 0.004;

/// Kernel repetitions per calibration.
const REPS: usize = 5;

/// The kernel: 100 000 updates of a fresh 50 000-key hash map.
fn kernel() -> f64 {
    let start = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..100_000u64 {
        *map.entry(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 50_000).or_insert(0) += i;
    }
    black_box(&map);
    start.elapsed().as_secs_f64()
}

/// The factor that converts host seconds measured now, by work on
/// `threads` threads, into normalised seconds: [`NOMINAL_SECS`] over the
/// median time of the kernel run on that many threads at once.
pub fn factor(threads: usize) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            thread::scope(|s| {
                for _ in 1..threads {
                    s.spawn(kernel);
                }
                kernel();
            });
            start.elapsed().as_secs_f64()
        })
        .collect();
    NOMINAL_SECS / median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_finite() {
        for threads in [1, 2] {
            let f = factor(threads);
            assert!(f.is_finite() && f > 0.0);
        }
    }
}
