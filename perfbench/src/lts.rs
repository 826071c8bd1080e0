//! `coarse_lts`: rate-group local time stepping on a uniform-material,
//! coarse-dominant 3-level octree (~50k elements, group factors 1/2/4) with
//! Rayleigh damping and absorbing boundaries, driven by
//! `SolverHarness::run_grouped_with_scratch`. Three stiffness classes and
//! long same-class batches: the opposite kernel regime to `basin_forward`.

use crate::common::{
    interleave, report_setup, steady_allocs, timed_rebuilds, Lcg, OpSample, SETUP_MIN_SECS,
    SETUP_REBUILDS,
};
use crate::host::Yardstick;
use crate::layers::{self, HostCal};
use crate::report::Report;
use quake_mesh::hexmesh::{ElemMaterial, HexMesh};
use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};
use quake_solver::elastic::RayleighBand;
use quake_solver::{
    ElasticConfig, ElasticSolver, GroupRunScratch, HookCtx, NoExchange, RateGroupPlan, RunConfig,
    RunOutcome, SolverHarness, StepHook, StopReason, SyncReceiverHook,
};
use std::time::Instant;

/// Octree levels: uniform background, a refined column, a refined corner.
const COARSE: u8 = 5;
/// Base steps per measured grouped run (a multiple of the macro cycle).
const BASE_STEPS: u64 = 24;
const N_RECEIVERS: usize = 4;
/// This workload's rate moves with the yardstick's one for one: the slope
/// of log raw rate on log yardstick rate over ten 20 s runs was 0.99.
const ELASTICITY: f64 = 1.0;
/// Base step of the equivalence check: small enough that the LTS and
/// global-dt schemes agree far below the 1e-8 gate.
const CHECK_DT: f64 = 5e-6;
/// Base steps compared after the one-cycle global prelude.
const CHECK_STEPS: u64 = 32;

/// The coarse-dominant 3-level octree of `bench_step --lts`, one level
/// deeper: level 5 everywhere, level 6 in the x,y < 1/4 column, level 7 in
/// the x,y,z < 1/8 corner, 2:1 balanced.
fn build_tree() -> LinearOctree {
    let quarter = 1u32 << (MAX_LEVEL - 2);
    let eighth = 1u32 << (MAX_LEVEL - 3);
    let mut tree = LinearOctree::build(|o| {
        o.level < COARSE
            || (o.level < COARSE + 1 && o.x < quarter && o.y < quarter)
            || (o.level < COARSE + 2 && o.x < eighth && o.y < eighth && o.z < eighth)
    });
    tree.balance(BalanceMode::Full);
    tree
}

fn build_mesh(tree: &LinearOctree) -> HexMesh {
    HexMesh::from_octree(tree, 8.0, |_, _, _, _| ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 })
}

fn config(dt: Option<f64>) -> ElasticConfig {
    let mut cfg = ElasticConfig::new(0.05);
    cfg.dt = dt;
    cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
    cfg
}

/// Seeded inputs: an interleaved Gaussian displacement pulse (center and
/// width from the seed) and receiver positions.
fn inputs(seed: u64, mesh: &HexMesh) -> (Vec<f64>, Vec<u32>) {
    let mut rng = Lcg::new(seed);
    let c = [rng.range(2.0, 6.0), rng.range(2.0, 6.0), rng.range(1.0, 4.0)];
    let w = rng.range(1.0, 2.0);
    let mut u = vec![0.0; 3 * mesh.n_nodes()];
    for (i, p) in mesh.coords.iter().enumerate() {
        let r2 = ((p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2)) / (w * w);
        let g = (-r2).exp();
        u[3 * i] = 0.3 * g;
        u[3 * i + 1] = g;
        u[3 * i + 2] = -0.5 * g;
    }
    mesh.interpolate_hanging(&mut u, 3);
    let receivers = (0..N_RECEIVERS)
        .map(|_| mesh.nearest_node([rng.range(0.0, 8.0), rng.range(0.0, 8.0), 0.0]))
        .collect();
    (u, receivers)
}

/// Keeps the first `keep` whole-field `u_prev` snapshots a global-dt run
/// sees after its steps (`snaps[s] = u(s dt0)`).
struct PrefixHistory {
    keep: usize,
    snaps: Vec<Vec<f64>>,
}

impl StepHook for PrefixHistory {
    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        if self.snaps.len() < self.keep {
            self.snaps.push(ctx.state.u_prev.clone());
        }
        Ok(())
    }
}

/// The LTS equivalence check on the workload mesh at a tiny base step: a
/// one-cycle global-dt prelude seeds a consistent staggered grouped state,
/// then both schemes advance `CHECK_STEPS` base steps and their final
/// fields must agree to 1e-8 (max-abs, relative to the field's peak).
fn lts_vs_global(mesh: &HexMesh, u0: &[f64]) -> (bool, f64) {
    let solver = ElasticSolver::new(mesh, &config(Some(CHECK_DT)));
    let plan = RateGroupPlan::build(&solver, 8);
    let m = plan.cycle();
    let n = mesh.n_nodes();
    let v0 = vec![0.0; u0.len()];
    let harness = SolverHarness::new(&solver);
    let mut sg = solver.initial_state(0, Some((u0, &v0)));
    let mut wsg = solver.workspace();
    let mut hist = PrefixHistory { keep: m as usize, snaps: Vec::new() };
    harness.run(&RunConfig::to_step(m), &mut sg, &mut wsg, &mut NoExchange, &mut [&mut hist]);
    let mut sl = plan.initial_state(&solver, 0, None);
    sl.step = m;
    sl.u_now.copy_from_slice(&sg.u_now);
    for nd in 0..n {
        let f = plan.factors()[plan.groups().node_group[nd] as usize];
        let past = &hist.snaps[(m - f) as usize];
        for comp in 0..3 {
            sl.u_prev[comp * n + nd] = past[comp * n + nd];
        }
    }
    let cfg = RunConfig::to_step(m + CHECK_STEPS);
    harness.run(&cfg, &mut sg, &mut wsg, &mut NoExchange, &mut []);
    let mut wsl = solver.workspace();
    harness.run_grouped(&plan, &cfg, &mut sl, &mut wsl, &mut NoExchange, &mut []);
    let scale = sg.u_now.iter().fold(1e-300f64, |a, v| a.max(v.abs()));
    let err = sg.u_now.iter().zip(&sl.u_now).fold(0.0f64, |a, (x, y)| a.max((x - y).abs())) / scale;
    (err <= 1e-8, err)
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: Option<&HostCal>,
    yard: &mut Yardstick,
    rep: &mut Report,
) {
    let cfg = config(None);
    // Set-up: octree, mesh, solver, rate-group plan.
    let (mut mesh_s, mut new_s) = (Vec::new(), Vec::new());
    let (raw_setup_s, mesh) = timed_rebuilds(SETUP_REBUILDS, SETUP_MIN_SECS, || {
        let t0 = Instant::now();
        let mesh = build_mesh(&build_tree());
        mesh_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let solver = ElasticSolver::new(&mesh, &cfg);
        new_s.push(t1.elapsed().as_secs_f64());
        let plan = RateGroupPlan::build(&solver, 8);
        assert!(plan.n_groups() > 1);
        drop(solver);
        mesh
    });
    let solver = ElasticSolver::new(&mesh, &cfg);
    let plan = RateGroupPlan::build(&solver, 8);
    let (u0, receivers) = inputs(seed, &mesh);
    let v0 = vec![0.0; u0.len()];
    let m = plan.cycle();
    let n_base = BASE_STEPS.div_ceil(m) * m;
    rep.note("elements", mesh.n_elements());
    rep.note("group_factors", format!("{:?}", plan.factors()));
    rep.note("group_histogram", format!("{:?}", plan.group_histogram()));
    rep.note("base_steps_per_run", n_base);

    let (ok, err) = lts_vs_global(&mesh, &u0);
    rep.check("lts.matches_global_dt", ok, format!("max relative field error {err:e} (gate 1e-8)"));

    let harness = SolverHarness::new(&solver);
    let mut ws = solver.workspace();
    let mut scratch = GroupRunScratch::for_ndof(3 * mesh.n_nodes());
    let grouped =
        |steps: u64, ws: &mut quake_solver::StepWorkspace, scratch: &mut GroupRunScratch| {
            let mut state = plan.initial_state(&solver, receivers.len(), Some((&u0, &v0)));
            let mut hook = SyncReceiverHook::new(&receivers);
            let outcome = harness.run_grouped_with_scratch(
                &plan,
                &RunConfig::to_step(steps),
                &mut state,
                ws,
                &mut NoExchange,
                &mut [&mut hook],
                scratch,
            );
            let finite = state.u_now.iter().all(|v| v.is_finite());
            matches!(outcome, RunOutcome::Finished { .. }) && finite
        };

    let mut failed = 0u64;
    let n_elem = mesh.n_elements() as f64;
    let measured = interleave(yard, seconds, 12, ELASTICITY, || {
        let t = Instant::now();
        let ok = grouped(n_base, &mut ws, &mut scratch);
        let secs = t.elapsed().as_secs_f64();
        if !ok {
            failed += 1;
        }
        vec![OpSample { secs, elem_updates: n_elem * n_base as f64, results: 1.0 }]
    });
    rep.ops_attempted += measured.ops.len() as u64;
    rep.ops_failed += failed;
    report_setup(rep, &raw_setup_s, &measured.yard_rates);
    crate::report_solve_metrics(rep, &measured);

    if let Some(host) = trace {
        layers::mesh_metrics(rep, &mesh_s, &mesh);
        layers::solver_metrics(rep, &new_s, &solver);
        layers::step_metrics(rep, &solver, host, 60);
        layers::harness_overhead(rep, &solver, &[], &receivers, 3);
        layers::rategroup_metrics(rep, &solver);
        layers::exchange_probe(rep, &solver, 8);
        let (a, b) = steady_allocs(2 * m, 6 * m, |k| {
            grouped(k, &mut ws, &mut scratch);
        });
        rep.single("alloc.per_step", "count", a);
        rep.single("alloc.bytes_per_step", "B", b);
    }
}
