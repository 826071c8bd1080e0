//! Shared pieces: the seeded generator, order statistics, the counting
//! allocator, and the interleaved solve/yardstick timing loop.

use crate::host::{Yardstick, NOMINAL_YARDSTICK_EUPS};
use crate::report::Report;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Deterministic 64-bit LCG with a mixed output (the low bits of a bare
/// LCG are short-period): the only source of workload variation, seeded
/// from `--seed`.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Linear-interpolated quantile of `v` (`q` in `[0, 1]`), the same rule as
/// Python's `statistics.quantiles(..., method="inclusive")`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Interquartile range as a share of the median — the spread every metric
/// is reported with.
pub fn rel_iqr(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(v, 0.75) - quantile(v, 0.25)) / m.abs()
}

/// Counting global allocator: every heap allocation the benchmark process
/// makes (program code included) bumps these two counters.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the
// counters are relaxed atomics with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `(allocations, bytes)` made so far by the whole process.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// Allocations and bytes made while `f` runs.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = alloc_counts();
    let r = f();
    let (a1, b1) = alloc_counts();
    (r, a1 - a0, b1 - b0)
}

/// Steady-state allocations per unit: run `f(n_short)` and `f(n_long)` and
/// divide the difference by `n_long - n_short`, so per-run set-up
/// allocations cancel. Returns `(allocs, bytes)` per unit.
pub fn steady_allocs(n_short: u64, n_long: u64, mut f: impl FnMut(u64)) -> (f64, f64) {
    let ((), a_s, b_s) = count_allocs(|| f(n_short));
    let ((), a_l, b_l) = count_allocs(|| f(n_long));
    let d = (n_long - n_short) as f64;
    ((a_l as f64 - a_s as f64) / d, (b_l as f64 - b_s as f64) / d)
}

/// One timed operation of a workload: its wall time and the work it did.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    pub secs: f64,
    /// Element updates performed (or delivered) by the operation.
    pub elem_updates: f64,
    /// Top-level results the operation completed (requests, runs).
    pub results: f64,
}

/// What the interleaved loop measured: every operation scaled to the
/// nominal host, the raw values, and the yardstick blocks.
pub struct Interleaved {
    /// Per-op `(scale, sample)`; `scale = nominal / measured yardstick
    /// rate` from the blocks on either side of the op.
    pub ops: Vec<(f64, OpSample)>,
    pub yard_rates: Vec<f64>,
}

impl Interleaved {
    /// Scaled element updates per second, one value per op.
    pub fn scaled_eups(&self) -> Vec<f64> {
        self.ops.iter().map(|(k, s)| k * s.elem_updates / s.secs).collect()
    }

    pub fn raw_eups(&self) -> Vec<f64> {
        self.ops.iter().map(|(_, s)| s.elem_updates / s.secs).collect()
    }

    /// Scaled results per second, one value per op.
    pub fn scaled_rps(&self) -> Vec<f64> {
        self.ops.iter().map(|(k, s)| k * s.results / s.secs).collect()
    }

    pub fn raw_rps(&self) -> Vec<f64> {
        self.ops.iter().map(|(_, s)| s.results / s.secs).collect()
    }

    /// Scaled seconds per op (a time shrinks when the host is slow now).
    pub fn scaled_secs(&self) -> Vec<f64> {
        self.ops.iter().map(|(k, s)| s.secs / k).collect()
    }

    pub fn raw_secs(&self) -> Vec<f64> {
        self.ops.iter().map(|(_, s)| s.secs).collect()
    }
}

/// Run `op` repeatedly for at least `seconds` (and at least `min_ops`
/// times), with a yardstick block before the first op and after every op.
/// Each op is scaled by `(nominal / y)^elasticity`, `y` the mean yardstick
/// rate of its two neighbouring blocks, so a host that slows down for a
/// while slows both sides of the ratio. `elasticity` is the workload's
/// measured sensitivity to the host's slow-downs relative to the
/// yardstick's (see README.md). `op` may report several samples (a block
/// of requests).
pub fn interleave(
    yard: &mut Yardstick,
    seconds: f64,
    min_ops: usize,
    elasticity: f64,
    mut op: impl FnMut() -> Vec<OpSample>,
) -> Interleaved {
    let t0 = Instant::now();
    let mut prev = yard.block_rate();
    let mut yard_rates = vec![prev];
    let mut ops = Vec::new();
    let mut rounds = 0usize;
    while rounds < min_ops || t0.elapsed().as_secs_f64() < seconds {
        let samples = op();
        let next = yard.block_rate();
        yard_rates.push(next);
        let scale = (NOMINAL_YARDSTICK_EUPS / (0.5 * (prev + next))).powf(elasticity);
        ops.extend(samples.into_iter().map(|s| (scale, s)));
        prev = next;
        rounds += 1;
    }
    Interleaved { ops, yard_rates }
}

/// Set-up rebuilds per run: at least this many, and at least this long in
/// all. `setup_s` is their median.
pub const SETUP_REBUILDS: usize = 5;
pub const SETUP_MIN_SECS: f64 = 1.0;
/// Set-up time moves with the host's speed, but less than the yardstick:
/// over twenty runs per workload the slope of log set-up time on log
/// median yardstick rate was -0.3 to -0.5. Scaled at 0.5, the set-up
/// medians of two sets of ten identical runs agreed within 1-3%, where the
/// raw medians moved by 8-19%; the full ratio (1.0) made the spread worse
/// than raw.
pub const SETUP_ELASTICITY: f64 = 0.5;

/// `setup_s` (the rebuild times scaled to the nominal host by
/// `(nominal / y)^SETUP_ELASTICITY`, `y` the run's median yardstick rate)
/// and `raw.setup_s`.
pub fn report_setup(rep: &mut Report, raw: &[f64], yard_rates: &[f64]) {
    let scale = (NOMINAL_YARDSTICK_EUPS / median(yard_rates)).powf(SETUP_ELASTICITY);
    rep.sampled("setup_s", "s", &raw.iter().map(|s| s / scale).collect::<Vec<_>>());
    rep.sampled("raw.setup_s", "s", raw);
}

/// Time at least `n` complete rebuilds of a workload's set-up, and keep
/// rebuilding until they took `min_secs` in all (a set-up of milliseconds
/// needs many samples for a steady median). Returns the per-rebuild
/// seconds and the last build.
pub fn timed_rebuilds<T>(n: usize, min_secs: f64, mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    assert!(n >= 1);
    let mut secs: Vec<f64> = Vec::with_capacity(n);
    let mut last = None;
    while secs.len() < n || secs.iter().sum::<f64>() < min_secs {
        drop(last.take());
        let t = Instant::now();
        let v = build();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (secs, last.expect("n >= 1"))
}
