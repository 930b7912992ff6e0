//! Host speed. On a shared host the same single-threaded work runs up to
//! about 1.5x slower for minutes at a time while other tenants load the
//! machine, and CPU time slows with it (on a 2-vCPU virtual machine a
//! thread's CPU time matched its wall time while it did), so repeating
//! work inside one run cannot remove it. The harness therefore times a fixed reference computation,
//! which uses none of the repository's code, between pieces of the
//! workload, and scales each piece's times by [`NOMINAL_MS`] over the
//! median reference reading around that piece. A change in the
//! repository's code moves the scaled times in full; a change in the
//! host's speed moves the reference alike and cancels.

use crate::stats::{self, Rng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference computation's median time on a quiet 2-vCPU host, in
/// milliseconds: scaled times read as milliseconds on that host.
pub const NOMINAL_MS: f64 = 0.6;
/// Readings taken at each sampling point between pieces of work.
pub const READINGS: usize = 5;

/// Keys sorted and inserted into an ordered map, like a compiler's
/// allocation- and branch-heavy work.
const KEYS: usize = 4096;
/// Amplitudes rotated in place, one round per pairing stride, like the
/// simulator's floating-point work.
const AMPLITUDES: usize = 1024;
const ROUNDS: usize = 10;

/// One run of the reference computation; the result only defeats the
/// optimizer.
fn reference() -> f64 {
    let mut rng = Rng::new(0x5eed, 99);
    let mut keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
    let mut map = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        map.insert(k % (4 * KEYS as u64), i);
    }
    keys.sort_unstable();
    let checksum = map.iter().fold(keys[KEYS / 2], |acc, (k, v)| {
        acc.rotate_left(5) ^ k ^ *v as u64
    });

    let (c, s) = (0.6f64, 0.8f64);
    let mut re: Vec<f64> = (0..AMPLITUDES).map(|i| (i as f64).sin()).collect();
    let mut im = vec![0.0f64; AMPLITUDES];
    for round in 0..ROUNDS {
        let stride = 1 << round;
        for i in 0..AMPLITUDES {
            let j = i ^ stride;
            if j > i {
                let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                re[i] = c * ar - s * bi;
                im[i] = c * ai + s * br;
                re[j] = c * br - s * ai;
                im[j] = c * bi + s * ar;
            }
        }
    }
    checksum as f64 + re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f64>()
}

/// Appends [`READINGS`] timings of the reference computation, in
/// milliseconds, after one untimed run that warms the caches and the
/// allocator the workload has just used.
pub fn sample(readings: &mut Vec<f64>) {
    black_box(reference());
    for _ in 0..READINGS {
        let t = Instant::now();
        black_box(reference());
        readings.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// Appends [`READINGS`] timings from each of as many threads as the host
/// has CPUs, all running at once. The CPUs of one virtual machine can run
/// at different speeds (one of two vCPUs ran the reference about 1.4x
/// slower than the other for minutes), so work spread over every CPU is
/// scaled by readings from every CPU.
pub fn sample_all_cpus(readings: &mut Vec<f64>) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..cpus)
            .map(|_| {
                scope.spawn(|| {
                    let mut own = Vec::new();
                    sample(&mut own);
                    own
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("reference thread does not panic"))
            .collect()
    });
    readings.extend(per_thread.concat());
}

/// The factor that scales times measured among `readings` to the
/// nominal host.
pub fn scale(readings: &[f64]) -> f64 {
    NOMINAL_MS / stats::median(readings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        assert_eq!(reference().to_bits(), reference().to_bits());
    }

    #[test]
    fn scale_is_nominal_over_median() {
        assert_eq!(scale(&[2.0, 4.0, 8.0].map(|x| x * NOMINAL_MS)), 0.25);
    }
}
