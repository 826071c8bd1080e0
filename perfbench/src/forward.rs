//! `basin_forward`: the Northridge-like basin run of `ForwardRun` — model-
//! driven meshing, solver assembly, point-source assembly, then
//! `SolverHarness::run_simulation` — on ~55k elements with ~2.7k stiffness
//! classes.

use crate::common::{
    interleave, report_setup, timed_rebuilds, Lcg, OpSample, SETUP_MIN_SECS, SETUP_REBUILDS,
};
use crate::host::Yardstick;
use crate::layers::{self, HostCal};
use crate::report::Report;
use quake_core::northridge_scenario;
use quake_mesh::{mesh_from_model, HexMesh};
use quake_model::PointSource;
use quake_solver::{assemble_point_sources, AssembledSource, ElasticSolver, SolverHarness};
use std::time::Instant;

/// Basin edge (m), resolved frequency (Hz), slowest shear wave (m/s).
const EXTENT: f64 = 20_000.0;
const FMAX: f64 = 0.4;
const VS_MIN: f64 = 400.0;
const MAX_LEVEL: u8 = 7;
/// Simulated seconds per forward run: 3 steps at the mesh's CFL step.
const DURATION: f64 = 0.025;
const N_RECEIVERS: usize = 8;
/// This workload's rate moves with the yardstick's one for one: the slope
/// of log raw rate on log yardstick rate over ten 20 s runs was 0.99.
const ELASTICITY: f64 = 1.0;

/// The seeded scenario inputs: the 24 subfault point sources (rupture
/// starting at t = 0) with jittered rise time and slip, and 8 surface
/// receivers jittered along the diagonal. The
/// mesh depends only on the material model, so every seed does the same
/// amount of work.
fn inputs(seed: u64) -> (quake_model::LaBasinModel, quake_core::ForwardScenario, Vec<PointSource>) {
    let (model, mut sc) = northridge_scenario(EXTENT, FMAX, VS_MIN, DURATION, N_RECEIVERS);
    sc.meshing.max_level = MAX_LEVEL;
    let mut rng = Lcg::new(seed);
    for r in &mut sc.receivers {
        r[0] = (r[0] + rng.range(-500.0, 500.0)).clamp(0.0, EXTENT);
        r[1] = (r[1] + rng.range(-500.0, 500.0)).clamp(0.0, EXTENT);
    }
    let mut sources = sc.fault.discretize(sc.n_subfaults.0, sc.n_subfaults.1);
    // Start the clock at the first subfault's rupture, so even a run of a
    // few steps moves the ground.
    let t0 = sources.iter().map(|s| s.slip.delay).fold(f64::INFINITY, f64::min);
    for s in &mut sources {
        s.slip.delay -= t0;
        s.slip.rise *= rng.range(0.9, 1.1);
        s.slip.amplitude *= rng.range(0.8, 1.2);
    }
    (model, sc, sources)
}

struct Built {
    mesh: HexMesh,
    assembled: Vec<AssembledSource>,
    receivers: Vec<u32>,
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: Option<&HostCal>,
    yard: &mut Yardstick,
    rep: &mut Report,
) {
    let (model, sc, sources) = inputs(seed);

    // Set-up: everything `ForwardRun::execute` does before the solve.
    let (mut mesh_s, mut new_s) = (Vec::new(), Vec::new());
    let (raw_setup_s, built) = timed_rebuilds(SETUP_REBUILDS, SETUP_MIN_SECS, || {
        let t0 = Instant::now();
        let (tree, mesh) = mesh_from_model(&sc.meshing, &model);
        mesh_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let solver = ElasticSolver::new(&mesh, &sc.solve);
        new_s.push(t1.elapsed().as_secs_f64());
        let assembled = assemble_point_sources(&mesh, &tree, &sources);
        let receivers = sc.receivers.iter().map(|&p| mesh.nearest_node(p)).collect();
        drop(solver);
        Built { mesh, assembled, receivers }
    });
    let mesh = &built.mesh;
    let solver = ElasticSolver::new(mesh, &sc.solve);
    let harness = SolverHarness::new(&solver);
    let n_elem = mesh.n_elements() as f64;
    let n_steps = solver.n_steps;
    rep.note("elements", mesh.n_elements());
    rep.note("steps_per_run", n_steps);
    rep.note("stiffness_classes", solver.full_scope().schedule.n_classes());

    // One forward solve, as `ForwardRun` runs it.
    let mut ws = solver.workspace();
    let solve = |ws: &mut quake_solver::StepWorkspace| {
        let state = solver.initial_state(built.receivers.len(), None);
        harness
            .run_simulation(&built.assembled, &built.receivers, state, ws, None)
            .expect("no checkpointing configured")
    };

    // Correctness: the untraced and the traced (instrumented workspace)
    // solve end in bit-identical seismograms and final fields, and the
    // sources moved the ground (finite, nonzero displacement).
    let (plain, plain_state) = solve(&mut ws);
    let mut tws = solver.workspace_instrumented(0);
    let (traced, traced_state) = solve(&mut tws);
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let identical = same(&plain_state.u_now, &traced_state.u_now)
        && same(&plain_state.u_prev, &traced_state.u_prev)
        && plain.seismograms.len() == traced.seismograms.len()
        && plain.seismograms.iter().zip(&traced.seismograms).all(|(a, b)| same(&a.data, &b.data));
    rep.check(
        "forward.traced_bit_identical",
        identical,
        "traced vs untraced seismograms and final field".into(),
    );
    let moved = |u: &[f64]| {
        let peak = u.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        (u.iter().all(|v| v.is_finite()) && peak > 0.0, peak)
    };
    let (ok, peak) = moved(&plain_state.u_now);
    rep.check("forward.motion", ok, format!("peak |u| {peak:e} after {n_steps} steps"));

    let mut failed = 0u64;
    let measured = interleave(yard, seconds, 12, ELASTICITY, || {
        let t = Instant::now();
        let (r, state) = solve(&mut ws);
        let secs = t.elapsed().as_secs_f64();
        if !moved(&state.u_now).0 {
            failed += 1;
        }
        vec![OpSample { secs, elem_updates: n_elem * r.n_steps as f64, results: 1.0 }]
    });
    rep.ops_attempted += measured.ops.len() as u64;
    rep.ops_failed += failed;
    report_setup(rep, &raw_setup_s, &measured.yard_rates);
    crate::report_solve_metrics(rep, &measured);

    if let Some(host) = trace {
        layers::mesh_metrics(rep, &mesh_s, mesh);
        layers::solver_metrics(rep, &new_s, &solver);
        layers::step_metrics(rep, &solver, host, 24);
        layers::harness_overhead(rep, &solver, &built.assembled, &built.receivers, 3);
        layers::rategroup_metrics(rep, &solver);
        layers::exchange_probe(rep, &solver, 4);
        layers::global_step_allocs(rep, &solver, &built.receivers);
    }
}
