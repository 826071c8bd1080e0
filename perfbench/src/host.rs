//! Host calibration, std-only and independent of the program under test:
//! the yardstick kernel every timed solve metric is normalised by, a
//! STREAM-triad bandwidth probe, an FMA-chain peak probe, peak RSS, and the
//! provenance block of every report.

use std::hint::black_box;
use std::time::Instant;

/// Yardstick rate (element updates/s) of the nominal host, close to what
/// it reads on the development host. Timed solve metrics are reported as
/// they would read on a host whose yardstick runs at exactly this rate:
/// `scale = (NOMINAL / measured)^elasticity`, a rate times `scale`, a time
/// over it. The constant is a fixed reference point, not a target:
/// changing it rescales every normalised metric and breaks comparisons
/// with older reports.
pub const NOMINAL_YARDSTICK_EUPS: f64 = 1.0e6;

/// Elements per axis of the yardstick's structured grid.
const YARD_N: usize = 38;
/// Distinct 24x24 templates: a dozen common ones (most elements, long
/// runs) and thousands of rare ones (singleton runs) — the class structure
/// of the heterogeneous basin mesh, where ~85% of the elements sit in runs
/// of 32 or more and the rest in runs of one to three.
const YARD_COMMON: usize = 12;
const YARD_TEMPLATES: usize = 2700;
/// Share of elements (out of 1024) given a rare template.
const YARD_RARE_PER_1024: u64 = 154;
/// Largest same-template batch the yardstick processes at once.
const YARD_BATCH: usize = 32;

/// Interleave the low 10 bits of `i`, `j`, `k` (Morton / Z order).
fn morton3(i: usize, j: usize, k: usize) -> u64 {
    let spread = |v: usize| {
        let mut out = 0u64;
        for b in 0..10 {
            out |= (((v >> b) & 1) as u64) << (3 * b);
        }
        out
    };
    spread(i) | (spread(j) << 1) | (spread(k) << 2)
}

/// The yardstick: a gather / 24x24 template matvec / scatter sweep over a
/// synthetic structured hex grid, followed by a diagonal nodal pass — the
/// memory and arithmetic shape of the solver's step (short template runs
/// over thousands of templates, Z-ordered planar nodal arrays, an
/// L3-sized working set), written here with no program code. A sweep is
/// timed between solve operations, so a slow-down of the host shows up in
/// both.
pub struct Yardstick {
    n_nodes: usize,
    /// Element corner nodes, color-major, template runs contiguous.
    nodes: Vec<u32>,
    /// `(template, begin, end)` runs over `nodes` (element positions).
    runs: Vec<(u32, u32, u32)>,
    templates: Vec<f64>,
    u: Vec<f64>,
    w: Vec<f64>,
    rhs: Vec<f64>,
    /// Diagonal scales of the nodal pass.
    diag: Vec<f64>,
    out: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let n = YARD_N;
        let np = n + 1;
        let n_nodes = np * np * np;
        // Node ids in Z order, as an octree mesh numbers them.
        let mut order: Vec<(u64, usize)> =
            (0..n_nodes).map(|g| (morton3(g % np, (g / np) % np, g / (np * np)), g)).collect();
        order.sort_unstable();
        let mut id = vec![0u32; n_nodes];
        for (rank, &(_, g)) in order.iter().enumerate() {
            id[g] = rank as u32;
        }
        let node = |i: usize, j: usize, k: usize| id[i + np * (j + np * k)];
        // Deterministic template classes: a common class per depth band,
        // or (for a hashed ~15% of elements) one of the rare classes.
        let class = |i: usize, j: usize, k: usize| {
            let h = ((i + n * (j + n * k)) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
            if h % 1024 < YARD_RARE_PER_1024 {
                (YARD_COMMON as u64 + (h >> 10) % (YARD_TEMPLATES - YARD_COMMON) as u64) as u32
            } else {
                (k * YARD_COMMON / n) as u32
            }
        };
        let mut nodes = Vec::with_capacity(8 * n * n * n);
        let mut runs: Vec<(u32, u32, u32)> = Vec::new();
        // Eight parity colors: within one color no two elements share a
        // node. Elements of a color are sorted by (template, Z order), as
        // the solver's sweep schedule sorts them by class.
        for color in 0..8 {
            let (ci, cj, ck) = (color & 1, (color >> 1) & 1, (color >> 2) & 1);
            let mut elems: Vec<(u32, u64, usize, usize, usize)> = Vec::new();
            for k in (ck..n).step_by(2) {
                for j in (cj..n).step_by(2) {
                    for i in (ci..n).step_by(2) {
                        elems.push((class(i, j, k), morton3(i, j, k), i, j, k));
                    }
                }
            }
            elems.sort_unstable();
            for &(t, _, i, j, k) in &elems {
                let pos = (nodes.len() / 8) as u32;
                for dk in 0..2 {
                    for dj in 0..2 {
                        for di in 0..2 {
                            nodes.push(node(i + di, j + dj, k + dk));
                        }
                    }
                }
                match runs.last_mut() {
                    Some(r) if r.0 == t && r.2 == pos && r.2 - r.1 < YARD_BATCH as u32 => r.2 += 1,
                    _ => runs.push((t, pos, pos + 1)),
                }
            }
        }
        // Symmetric, diagonally dominant templates with bounded entries.
        let mut s = 0x2545F4914F6CDD1Du64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut templates = vec![0.0; YARD_TEMPLATES * 576];
        for t in 0..YARD_TEMPLATES {
            let m = &mut templates[576 * t..576 * (t + 1)];
            for r in 0..24 {
                for c in r..24 {
                    let v = if r == c { 4.0 + rnd() } else { 0.1 * rnd() };
                    m[24 * r + c] = v;
                    m[24 * c + r] = v;
                }
            }
        }
        let ndof = 3 * n_nodes;
        let u: Vec<f64> = (0..ndof).map(|d| ((d as f64) * 0.37).sin()).collect();
        let w: Vec<f64> = (0..ndof).map(|d| ((d as f64) * 0.11).cos()).collect();
        assert!(nodes.iter().all(|&nd| (nd as usize) < n_nodes), "node ids in range");
        let diag: Vec<f64> = (0..3 * ndof).map(|d| 1.0 + 1e-3 * ((d % 17) as f64)).collect();
        let mut y = Yardstick {
            n_nodes,
            nodes,
            runs,
            templates,
            u,
            w,
            rhs: vec![0.0; ndof],
            diag,
            out: vec![0.0; ndof],
        };
        // Warm the caches and the page tables once.
        y.sweep();
        y
    }

    pub fn n_elements(&self) -> usize {
        self.nodes.len() / 8
    }

    /// One sweep: zero the rhs, the blocked element pass (gather
    /// `u + s w`, template matvec over all batch lanes, scatter), then a
    /// nodal pass reading three diagonals and two nodal vectors per dof.
    fn sweep(&mut self) {
        let n = self.n_nodes;
        let ndof = 3 * n;
        assert!(self.u.len() == ndof && self.w.len() == ndof && self.rhs.len() == ndof);
        let mut x = [[0.0f64; YARD_BATCH]; 24];
        let mut y = [[0.0f64; YARD_BATCH]; 24];
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
        for &(t, lo, hi) in &self.runs {
            let (lo, hi) = (lo as usize, hi as usize);
            let tm = &self.templates[576 * t as usize..576 * (t as usize + 1)];
            let corners = &self.nodes[8 * lo..8 * hi];
            for (b, el) in corners.chunks_exact(8).enumerate() {
                let s = 1e-3 * (b + 1) as f64;
                for (c8, &nd) in el.iter().enumerate() {
                    for comp in 0..3 {
                        let d = comp * n + nd as usize;
                        // SAFETY: every node id was checked `< n_nodes` in
                        // `new`, and `u`/`w` hold `3 * n_nodes` values
                        // (asserted above).
                        x[3 * c8 + comp][b] =
                            unsafe { *self.u.get_unchecked(d) + s * *self.w.get_unchecked(d) };
                    }
                }
            }
            for (row, yr) in y.iter_mut().enumerate() {
                let mut acc = [0.0f64; YARD_BATCH];
                for (c, xc) in x.iter().enumerate() {
                    let trc = tm[24 * row + c];
                    for b in 0..YARD_BATCH {
                        acc[b] += trc * xc[b];
                    }
                }
                *yr = acc;
            }
            for (b, el) in corners.chunks_exact(8).enumerate() {
                for (c8, &nd) in el.iter().enumerate() {
                    for comp in 0..3 {
                        // SAFETY: as for the gather; `rhs` holds `3 * n_nodes`.
                        unsafe {
                            *self.rhs.get_unchecked_mut(comp * n + nd as usize) -=
                                y[3 * c8 + comp][b];
                        }
                    }
                }
            }
        }
        let (d0, rest) = self.diag.split_at(ndof);
        let (d1, d2) = rest.split_at(ndof);
        for d in 0..ndof {
            self.out[d] = (self.rhs[d] + d0[d] * self.u[d] - d1[d] * self.out[d]) * d2[d] * 0.5;
        }
        black_box(self.out[ndof / 3] + self.rhs[ndof / 2]);
    }

    /// Time one sweep; returns element updates per second.
    pub fn block_rate(&mut self) -> f64 {
        let t = Instant::now();
        self.sweep();
        self.n_elements() as f64 / t.elapsed().as_secs_f64()
    }
}

/// Bytes of the L3 cache the triad arrays must exceed fourfold.
pub const L3_BYTES: usize = 105 << 20;

/// STREAM triad `a = b + s c` over three arrays of `4 x L3` bytes each.
/// Returns `(GB/s, bytes per array)`; the bandwidth counts three arrays of
/// traffic per pass (no write-allocate), as STREAM does. Median of passes.
pub fn triad_gbs() -> (f64, usize) {
    let len = 4 * L3_BYTES / 8;
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let s = black_box(0.5);
    // First pass touches every page; not timed.
    for i in 0..len {
        a[i] = b[i] + s * c[i];
    }
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(a[len / 2]);
        rates.push(3.0 * (len * 8) as f64 / secs / 1e9);
    }
    (crate::common::median(&rates), len * 8)
}

/// Peak multiply-add rate of this build: 32 independent `acc = acc * a + b`
/// chains (vectorised to the baseline SIMD width), counted as two flops
/// per lane update. Median of five timed blocks, GFLOP/s.
pub fn fma_gflops() -> f64 {
    const LANES: usize = 32;
    let a = black_box(0.999_999_9);
    let b = black_box(1e-9);
    let mut acc = [1.0f64; LANES];
    let iters = 4_000_000usize;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            for v in acc.iter_mut() {
                *v = *v * a + b;
            }
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(&acc);
        rates.push(2.0 * (LANES * iters) as f64 / secs / 1e9);
    }
    crate::common::median(&rates)
}

/// Peak resident set size (VmHWM) in MB, read from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// Provenance of a report: what code ran, built how, on what.
pub fn provenance_json(yard_rate: f64) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    format!(
        "{{\"commit\":{},\"source_digest\":{},\"available_parallelism\":{cores},\
         \"features\":\"default (no parallel)\",\"profile\":\"release\",\"rustc\":{},\
         \"nominal_yardstick_eups\":{NOMINAL_YARDSTICK_EUPS},\"measured_yardstick_eups\":{}}}",
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&env("PERFBENCH_SOURCE_DIGEST")),
        json_str(&env("PERFBENCH_RUSTC")),
        json_num(yard_rate)
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits (`null` otherwise).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
