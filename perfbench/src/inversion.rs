//! `basin_inversion`: the Fig 3.2-style multiscale material inversion —
//! `material_scenario` pseudo-observed data, then the `invert_multiscale`
//! Gauss-Newton-CG cascade over fixed grids with fixed iteration caps —
//! through `quake-inverse`, `quake-antiplane` and the `wave` marches.

use crate::common::{
    count_allocs, interleave, report_setup, timed_rebuilds, OpSample, SETUP_MIN_SECS,
    SETUP_REBUILDS,
};
use crate::host::Yardstick;
use crate::layers::HostCal;
use crate::report::Report;
use quake_core::{material_scenario, MaterialScenario};
use quake_inverse::matmap::prolong;
use quake_inverse::{
    invert_material_traced, invert_multiscale, misfit_value, GnConfig, MaterialMap,
    MultiscaleConfig, TvReg,
};
use quake_solver::wave::{forward, ScalarWaveEq};
use quake_telemetry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wave grid (elements), time steps, receivers, data noise.
const NX: usize = 42;
const NZ: usize = 24;
const STEPS: usize = 220;
const N_RECEIVERS: usize = 64;
const NOISE: f64 = 0.05;
/// The 1k-element wave grid is cache-resident and slows down less than the
/// L3-sized yardstick: the slope of log raw rate on log yardstick rate over
/// ten 20 s runs was 0.68, and the exponent that minimised the across-run
/// spread was 0.6-0.7.
const ELASTICITY: f64 = 0.65;
/// Continuation grids, coarse to fine.
const GRIDS: [[usize; 3]; 5] = [[2, 2, 1], [3, 3, 1], [5, 4, 1], [9, 6, 1], [13, 9, 1]];
/// Iteration caps per level. The gradient and CG tolerances are zero, so
/// every level runs exactly these counts whatever the data noise.
const MAX_GN: usize = 2;
const MAX_CG: usize = 3;
/// The cascade must bring the data misfit below this share of the
/// homogeneous starting model's misfit.
const MISFIT_GATE: f64 = 0.6;

fn cascade(
    sc: &MaterialScenario,
    levels: &[[usize; 3]],
    max_gn: usize,
    max_cg: usize,
) -> MultiscaleConfig {
    let base = sc.mu_background[0];
    MultiscaleConfig {
        grids: levels.to_vec(),
        domain: sc.domain,
        tv_eps: 0.02 * base / 2000.0,
        tv_beta: 1e-26,
        per_level: GnConfig {
            max_gn_iters: max_gn,
            max_cg_iters: max_cg,
            cg_tol: 0.0,
            grad_tol: 0.0,
            barrier: Some((0.05 * base, 1e-7)),
            ..GnConfig::default()
        },
        freq_schedule: None,
    }
}

/// A `ScalarWaveEq` that forwards to the scenario's solver and counts
/// stiffness applications — one per time step of every forward, adjoint
/// and incremental march — so the benchmark can report element updates
/// without touching the program.
struct Counting<'a> {
    inner: &'a dyn ScalarWaveEq,
    apply_k: AtomicU64,
}

impl ScalarWaveEq for Counting<'_> {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }
    fn n_elements(&self) -> usize {
        self.inner.n_elements()
    }
    fn n_steps(&self) -> usize {
        self.inner.n_steps()
    }
    fn dt(&self) -> f64 {
        self.inner.dt()
    }
    fn receivers(&self) -> &[usize] {
        self.inner.receivers()
    }
    fn mass(&self) -> &[f64] {
        self.inner.mass()
    }
    fn abc_damping(&self) -> &[f64] {
        self.inner.abc_damping()
    }
    fn apply_k(&self, mu: &[f64], x: &[f64], y: &mut [f64], scale: f64) {
        self.apply_k.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_k(mu, x, y, scale)
    }
    fn accumulate_dk(&self, u: &[f64], v: &[f64], out: &mut [f64]) {
        self.inner.accumulate_dk(u, v, out)
    }
    fn apply_dk(&self, dmu: &[f64], x: &[f64], y: &mut [f64], scale: f64) {
        self.inner.apply_dk(dmu, x, y, scale)
    }
}

/// Data misfit of the element moduli `mu`.
fn misfit_of(sc: &MaterialScenario, mu: &[f64]) -> f64 {
    let forcing = sc.forcing();
    let run = forward(&sc.solver, mu, &mut |k, f| forcing(k, f), false);
    misfit_value(&run.traces, &sc.data, sc.solver.dt())
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: Option<&HostCal>,
    yard: &mut Yardstick,
    rep: &mut Report,
) {
    // Set-up: the scenario (solver, target section, noisy data).
    let (raw_setup_s, sc) = timed_rebuilds(SETUP_REBUILDS, SETUP_MIN_SECS, || {
        material_scenario(NX, NZ, STEPS, N_RECEIVERS, NOISE, seed)
    });
    let cfg = cascade(&sc, &GRIDS, MAX_GN, MAX_CG);
    let base = sc.mu_background[0];
    let forcing = sc.forcing();
    let eq = Counting { inner: &sc.solver, apply_k: AtomicU64::new(0) };
    let n_elem = eq.n_elements() as f64;

    let invert = || {
        let before = eq.apply_k.load(Ordering::Relaxed);
        let (m, levels) = invert_multiscale(&eq, &forcing, &sc.data, &sc.centers, base, &cfg);
        let marched = eq.apply_k.load(Ordering::Relaxed) - before;
        (m, levels, marched)
    };

    // Correctness: the cascade runs its capped iteration counts, lowers
    // the misfit below the gate, and repeats bit for bit.
    let (m_ref, levels, _) = invert();
    let gn: usize = levels.iter().map(|l| l.stats.gn_iters).sum();
    let cg: usize = levels.iter().map(|l| l.stats.cg_iters_total).sum();
    let final_misfit =
        levels.last().and_then(|l| l.stats.misfit_history.last().copied()).unwrap_or(f64::NAN);
    let map = MaterialMap::new(&sc.centers, sc.domain, GRIDS[GRIDS.len() - 1]);
    let misfit_inv = misfit_of(&sc, &map.interpolate(&m_ref));
    let misfit_0 = misfit_of(&sc, &sc.mu_background);
    let misfit_true = misfit_of(&sc, &sc.mu_true);
    rep.note("gn_iters", gn);
    rep.note("cg_iters", cg);
    rep.note("misfit_initial", misfit_0);
    rep.note("misfit_inverted", misfit_inv);
    rep.note("misfit_true_model", misfit_true);
    rep.check(
        "inversion.misfit_reduced",
        misfit_inv.is_finite() && misfit_inv <= MISFIT_GATE * misfit_0,
        format!(
            "inverted misfit {misfit_inv:e} vs starting {misfit_0:e} (gate {MISFIT_GATE} x start)"
        ),
    );
    rep.check(
        "inversion.capped_counts",
        gn == GRIDS.len() * MAX_GN && cg == GRIDS.len() * MAX_GN * MAX_CG,
        format!("{gn} GN / {cg} CG iterations"),
    );

    let mut failed = 0u64;
    let measured = interleave(yard, seconds, 8, ELASTICITY, || {
        let t = Instant::now();
        let (m, _, marched) = invert();
        let secs = t.elapsed().as_secs_f64();
        if m.len() != m_ref.len() || m.iter().zip(&m_ref).any(|(a, b)| a.to_bits() != b.to_bits()) {
            failed += 1;
        }
        vec![OpSample { secs, elem_updates: n_elem * marched as f64, results: 1.0 }]
    });
    rep.ops_attempted += measured.ops.len() as u64;
    rep.ops_failed += failed;
    report_setup(rep, &raw_setup_s, &measured.yard_rates);
    crate::report_solve_metrics(rep, &measured);

    if trace.is_some() {
        let prev = &levels[levels.len() - 2];
        gn_metrics(
            rep,
            &sc,
            &cfg,
            &prev.m,
            prev.dims,
            Some(&levels[levels.len() - 1].m),
            final_misfit,
        );
    }
}

/// The `gn/*` spans of `invert_material_traced` on the finest level,
/// warm-started from the previous level exactly as `invert_multiscale`
/// does, plus allocations per GN iteration. With `expect`, the traced
/// level must reproduce the untraced cascade's finest model bit for bit.
fn gn_metrics(
    rep: &mut Report,
    sc: &MaterialScenario,
    cfg: &MultiscaleConfig,
    m_prev: &[f64],
    dims_prev: [usize; 3],
    expect: Option<&[f64]>,
    cascade_misfit: f64,
) {
    let dims = cfg.grids[cfg.grids.len() - 1];
    let map = MaterialMap::new(&sc.centers, cfg.domain, dims);
    let spacing =
        std::array::from_fn(
            |a| {
                if dims[a] > 1 {
                    cfg.domain[a] / (dims[a] - 1) as f64
                } else {
                    1.0
                }
            },
        );
    let tv = TvReg { dims, spacing, eps: cfg.tv_eps, beta: cfg.tv_beta };
    let m_init = prolong(m_prev, dims_prev, dims);
    let forcing = sc.forcing();
    let level = |reg: &Registry| {
        invert_material_traced(
            &sc.solver,
            &forcing,
            &sc.data,
            &map,
            &tv,
            &m_init,
            &cfg.per_level,
            reg,
        )
    };
    let plain_t = Instant::now();
    let ((m_plain, stats), allocs, _) = count_allocs(|| level(&Registry::disabled()));
    let plain_s = plain_t.elapsed().as_secs_f64();
    let reg = Registry::new(0);
    let traced_t = Instant::now();
    let (m_traced, _) = level(&reg);
    let traced_s = traced_t.elapsed().as_secs_f64();
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    rep.check(
        "inversion.traced_bit_identical",
        same(&m_plain, &m_traced) && expect.is_none_or(|e| same(e, &m_plain)),
        "traced finest level vs untraced level and cascade".into(),
    );
    let span = |name: &str| reg.span_stats(name).map_or(0.0, |s| s.total_secs());
    rep.single("gn.iters", "count", stats.gn_iters as f64);
    rep.single("cg.iters", "count", stats.cg_iters_total as f64);
    rep.single("gn.forward_s", "s", span("gn/forward"));
    rep.single("gn.adjoint_s", "s", span("gn/adjoint"));
    rep.single("gn.cg_s", "s", span("gn/cg"));
    rep.single("gn.linesearch_s", "s", span("gn/linesearch"));
    let misfit = stats.misfit_history.last().copied().unwrap_or(cascade_misfit);
    rep.single("gn.final_misfit", "J", misfit);
    rep.single("alloc.per_gn_iter", "count", allocs as f64 / stats.gn_iters.max(1) as f64);
    rep.note("gn_level_trace_overhead", traced_s / plain_s - 1.0);
}

/// Small fixed probe of the inversion layer for the traced runs of other
/// workloads: one capped GN level on a coarse wave grid.
pub fn layer_probe(rep: &mut Report) {
    let sc = material_scenario(14, 8, 60, 8, NOISE, 1);
    let cfg = cascade(&sc, &[[2, 2, 1], [3, 3, 1]], 1, 2);
    let base = sc.mu_background[0];
    gn_metrics(rep, &sc, &cfg, &[base], [1, 1, 1], None, f64::NAN);
}
