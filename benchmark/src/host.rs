//! What this host can do, measured in the same run as the kernels that
//! are compared against it: cache sizes from sysfs, a STREAM-triad
//! bandwidth over arrays four times the last-level cache, and a peak
//! double-precision FMA rate. These are denominators for roofline ratios,
//! nothing else.

use std::hint::black_box;
use std::time::Instant;

/// Cache sizes of cpu0, bytes. Zero when sysfs does not say.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Caches {
    /// Unified level-2 cache.
    pub l2_bytes: u64,
    /// Highest-level data or unified cache.
    pub llc_bytes: u64,
}

/// Read cpu0's cache hierarchy from `/sys/devices/system/cpu/cpu0/cache/`.
pub fn caches() -> Caches {
    let mut out = Caches::default();
    let mut llc_level = 0;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if level == 2 {
            out.l2_bytes = bytes;
        }
        if level > llc_level {
            llc_level = level;
            out.llc_bytes = bytes;
        }
    }
    out
}

/// `"2048K"`, `"260M"` or a bare byte count.
fn parse_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// A `kB` field of a `/proc` status file, in bytes.
fn proc_kb(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb = line[field.len()..].trim().trim_end_matches("kB").trim();
    kb.parse::<u64>().ok().map(|n| n * 1024)
}

/// Memory the kernel says can be allocated without swapping, bytes.
pub fn mem_available_bytes() -> Option<u64> {
    proc_kb("/proc/meminfo", "MemAvailable:")
}

/// Peak resident set of this process so far (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    proc_kb("/proc/self/status", "VmHWM:").map(|b| b as f64 / 1e6)
}

/// Result of the triad probe.
#[derive(Clone, Copy, Debug)]
pub struct Triad {
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    /// Best of three passes, computed as 24 bytes per element (two reads
    /// and one write; write-allocate traffic is not counted).
    pub gbs: f64,
    /// False when the arrays could not be made four times the last-level
    /// cache; roofline ratios are then omitted.
    pub beyond_llc: bool,
}

/// STREAM triad `a = b + s * c` on `threads` threads, each over its own
/// part of three arrays of at least `4 x llc_bytes` — unless that would
/// take more than a quarter of the available memory, in which case the
/// arrays shrink to fit and `beyond_llc` is false.
pub fn triad(llc_bytes: u64, threads: usize) -> Triad {
    let wanted = (4 * llc_bytes).max(64 << 20);
    let budget = mem_available_bytes().unwrap_or(1 << 30) / 4 / 3;
    let array_bytes = wanted.min(budget);
    let n = (array_bytes / 8) as usize;
    let (mut a, mut b, mut c) = (vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]);
    let chunk = n.div_ceil(threads.max(1));
    let parts = a
        .chunks_mut(chunk)
        .zip(b.chunks_mut(chunk))
        .zip(c.chunks_mut(chunk));
    // Each thread first writes its part of the arrays, which is what makes
    // the kernel give them memory, then times its three passes; the probe's
    // time is the slowest thread's best pass.
    let best = std::thread::scope(|scope| {
        let workers: Vec<_> = parts
            .map(|((a, b), c)| {
                scope.spawn(move || {
                    b.fill(1.0);
                    c.fill(2.0);
                    a.fill(0.0);
                    (0..3)
                        .map(|pass| {
                            let s = 3.0 + f64::from(pass);
                            let t0 = Instant::now();
                            for ((a, b), c) in a.iter_mut().zip(&*b).zip(&*c) {
                                *a = *b + s * *c;
                            }
                            black_box(&mut *a);
                            t0.elapsed().as_secs_f64()
                        })
                        .fold(f64::INFINITY, f64::min)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("triad worker"))
            .fold(0.0, f64::max)
    });
    Triad {
        array_bytes: n as u64 * 8,
        gbs: 24.0 * n as f64 / best / 1e9,
        beyond_llc: array_bytes >= 4 * llc_bytes,
    }
}

/// Independent accumulators: enough to cover FMA latency on two ports.
const FMA_ACCUMULATORS: usize = 12;
const FMA_ITERS: usize = 8_000_000;

/// `iters` rounds of `acc = acc * x + y` on twelve independent 4-lane
/// accumulators; returns their sum and the flops per round.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_loop_avx2(iters: usize) -> f64 {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_set1_pd, _mm256_storeu_pd};
    let x = _mm256_set1_pd(black_box(1.000_000_1));
    let y = _mm256_set1_pd(black_box(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); FMA_ACCUMULATORS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_pd(*a, x, y);
        }
    }
    let mut sum = 0.0;
    for a in acc {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` is four f64s, the 32 bytes an unaligned store of
        // one __m256d writes.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), a) };
        sum += lanes.iter().sum::<f64>();
    }
    sum
}

/// The same recurrence without the target features: multiply and add.
fn fma_loop_portable(iters: usize) -> f64 {
    let (x, y) = (black_box(1.000_000_1f64), black_box(1e-9f64));
    let mut acc = [[1.0f64; 4]; FMA_ACCUMULATORS];
    for _ in 0..iters {
        for lanes in acc.iter_mut() {
            for a in lanes.iter_mut() {
                *a = *a * x + y;
            }
        }
    }
    acc.iter().flatten().sum()
}

fn fma_loop(iters: usize) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the two target features the function is compiled for were
        // detected on this CPU on the line above.
        return unsafe { fma_loop_avx2(iters) };
    }
    fma_loop_portable(iters)
}

/// Peak double-precision rate of `threads` threads running independent
/// multiply-adds out of registers (AVX2+FMA when the CPU has them), in
/// GFLOP/s; best of three.
pub fn fma_gflops_dp(threads: usize) -> f64 {
    let threads = threads.max(1);
    let flops = (2 * 4 * FMA_ACCUMULATORS * FMA_ITERS * threads) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| black_box(fma_loop(black_box(FMA_ITERS))));
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("K"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn fma_loop_computes_the_recurrence() {
        // acc <- acc * x + y, ten times, from 1.
        let mut want = 1.0f64;
        for _ in 0..10 {
            want = want.mul_add(1.000_000_1, 1e-9);
        }
        let lanes = (4 * FMA_ACCUMULATORS) as f64;
        // The portable path rounds twice per step; both agree far inside 1e-9.
        for got in [fma_loop(10), fma_loop_portable(10)] {
            assert!(
                (got - lanes * want).abs() < 1e-9,
                "{got} vs {}",
                lanes * want
            );
        }
    }
}
