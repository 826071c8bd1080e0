//! Per-layer measurements, timed from outside through each layer's public
//! calls. Every traced run reports every per-layer metric: a workload
//! measures its own layers at full size, and [`fill_missing`] covers the
//! layers it does not exercise with small fixed probes (the "little work"
//! column of the layer map in README.md).

use crate::common::{median, quantile, steady_allocs, timed_rebuilds};
use crate::report::Report;
use quake_machine::phases::elastic_step_phases;
use quake_machine::MachineModel;
use quake_mesh::hexmesh::{ElemMaterial, HexMesh};
use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};
use quake_solver::elastic::RayleighBand;
use quake_solver::{
    run_distributed, DistConfig, ElasticConfig, ElasticSolver, NoExchange, RateGroupPlan,
    ReceiverHook, RunConfig, SolverHarness,
};
use std::time::Instant;

/// Every per-layer metric name, in report order (BENCHMARK.json lists the
/// same names).
pub const PER_LAYER: &[&str] = &[
    "mesh.build_s",
    "mesh.elements",
    "mesh.nodes",
    "mesh.hanging",
    "solver.new_s",
    "sweep.classes",
    "sweep.colors",
    "step.p50_us",
    "step.p99_us",
    "phase.fill_share",
    "phase.elements_share",
    "phase.abc_share",
    "phase.fold_share",
    "phase.tail_share",
    "phase.interp_share",
    "kernel.flops_per_update",
    "kernel.bytes_per_update",
    "kernel.gflops",
    "kernel.roofline_frac",
    "harness.overhead_frac",
    "rategroup.build_s",
    "rategroup.groups",
    "rategroup.ideal_work_ratio",
    "rategroup.updates_per_cycle",
    "exchange.msgs_per_step",
    "exchange.doubles_per_step",
    "exchange.allocs_per_step",
    "exchange.wait_frac",
    "exchange.bit_mismatches",
    "serve.key_us",
    "cache.get_us",
    "cache.put_us",
    "cache.hit_ratio",
    "serve.solve_s",
    "serve.refused",
    "engine.start_s",
    "gn.iters",
    "cg.iters",
    "gn.forward_s",
    "gn.adjoint_s",
    "gn.cg_s",
    "gn.linesearch_s",
    "gn.final_misfit",
    "alloc.per_step",
    "alloc.bytes_per_step",
    "alloc.per_request",
    "alloc.per_gn_iter",
    "trace.overhead_frac",
    "host.yardstick_eups",
    "host.triad_gbs",
    "host.fma_gflops",
    "raw.elem_updates_per_s",
    "raw.requests_per_s",
    "raw.latency_p50_ms",
    "raw.setup_s",
];

/// Host calibration of a traced run: the roofline of *this* host.
pub struct HostCal {
    pub triad_gbs: f64,
    pub triad_array_bytes: usize,
    pub fma_gflops: f64,
}

impl HostCal {
    pub fn measure() -> HostCal {
        let (triad_gbs, triad_array_bytes) = crate::host::triad_gbs();
        HostCal { triad_gbs, triad_array_bytes, fma_gflops: crate::host::fma_gflops() }
    }

    /// The machine model with this host's measured peak and bandwidth.
    pub fn machine(&self) -> MachineModel {
        MachineModel {
            peak_flops_per_pe: self.fma_gflops * 1e9,
            mem_bandwidth_per_pe: self.triad_gbs * 1e9,
            ..MachineModel::default()
        }
    }
}

/// `quake-mesh` metrics of a built mesh, `build_s` the median of the timed
/// rebuilds.
pub fn mesh_metrics(rep: &mut Report, build_s: &[f64], mesh: &HexMesh) {
    rep.sampled("mesh.build_s", "s", build_s);
    rep.single("mesh.elements", "count", mesh.n_elements() as f64);
    rep.single("mesh.nodes", "count", mesh.n_nodes() as f64);
    rep.single("mesh.hanging", "count", mesh.n_hanging() as f64);
}

/// `ElasticSolver::new` and its sweep schedule.
pub fn solver_metrics(rep: &mut Report, new_s: &[f64], solver: &ElasticSolver<'_>) {
    rep.sampled("solver.new_s", "s", new_s);
    let sched = &solver.full_scope().schedule;
    rep.single("sweep.classes", "count", sched.n_classes() as f64);
    rep.single("sweep.colors", "count", sched.n_colors() as f64);
}

/// A smooth planar displacement field with every dof nonzero, so the bare
/// step loops below do real arithmetic on a stable, bounded state.
fn smooth_field(mesh: &HexMesh, phase: f64) -> Vec<f64> {
    let n = mesh.n_nodes();
    let ext = mesh.coords.iter().fold(1e-300f64, |m, c| m.max(c[0]).max(c[1]).max(c[2]));
    let mut u = vec![0.0; 3 * n];
    for (i, c) in mesh.coords.iter().enumerate() {
        let (x, y, z) = (c[0] / ext, c[1] / ext, c[2] / ext);
        for comp in 0..3 {
            u[comp * n + i] =
                1e-3 * ((3.0 * x + phase + comp as f64).sin() * (2.0 * y).cos() * (1.0 + z));
        }
    }
    u
}

/// Per-step timings of `steps` bare `step_with` calls (seconds each).
fn bare_steps(
    solver: &ElasticSolver<'_>,
    steps: usize,
    instrumented: bool,
) -> (Vec<f64>, quake_telemetry::Registry) {
    let mesh = solver.mesh;
    let ndof = 3 * mesh.n_nodes();
    let mut up = smooth_field(mesh, 0.0);
    let mut un = smooth_field(mesh, 0.01);
    let mut next = vec![0.0; ndof];
    let f = vec![0.0; ndof];
    let mut ws = if instrumented { solver.workspace_instrumented(0) } else { solver.workspace() };
    let mut secs = Vec::with_capacity(steps);
    for _ in 0..steps {
        let t = Instant::now();
        solver.step_with(&up, &un, &f, &mut next, &mut ws);
        secs.push(t.elapsed().as_secs_f64());
        std::mem::swap(&mut up, &mut un);
        std::mem::swap(&mut un, &mut next);
    }
    (secs, ws.into_registry())
}

/// Step latency, phase shares, kernel rates against this host's roofline,
/// and the tracing overhead (instrumented vs plain steps, interleaved).
pub fn step_metrics(rep: &mut Report, solver: &ElasticSolver<'_>, host: &HostCal, steps: usize) {
    let (plain, _) = bare_steps(solver, steps, false);
    rep.single("step.p50_us", "us", median(&plain) * 1e6);
    rep.single("step.p99_us", "us", quantile(&plain, 0.99) * 1e6);

    // Tracing overhead: alternate plain and instrumented blocks.
    let block = (steps / 4).max(3);
    let mut ratios = Vec::new();
    let mut last_reg = quake_telemetry::Registry::new(0);
    for _ in 0..4 {
        let (p, _) = bare_steps(solver, block, false);
        let (t, reg) = bare_steps(solver, block, true);
        ratios.push(t.iter().sum::<f64>() / p.iter().sum::<f64>());
        last_reg = reg;
    }
    rep.sampled(
        "trace.overhead_frac",
        "ratio",
        &ratios.iter().map(|r| r - 1.0).collect::<Vec<_>>(),
    );

    // Phase shares from the last instrumented block's registry.
    let step_total = last_reg.span_stats("step").map_or(0.0, |s| s.total_secs()).max(1e-300);
    for ph in ["fill", "elements", "abc", "fold", "tail", "interp"] {
        let t = last_reg.span_stats(&format!("step/{ph}")).map_or(0.0, |s| s.total_secs());
        rep.single(&format!("phase.{ph}_share"), "ratio", t / step_total);
    }

    let shape = solver.phase_shape(solver.full_scope());
    let phases = elastic_step_phases(&shape);
    let flops: u64 = phases.iter().map(|p| p.flops).sum();
    let bytes: u64 = phases.iter().map(|p| p.bytes).sum();
    let n_el = solver.mesh.n_elements() as f64;
    rep.single("kernel.flops_per_update", "flop", flops as f64 / n_el);
    rep.single("kernel.bytes_per_update", "B", bytes as f64 / n_el);
    let flops_per_s = flops as f64 / median(&plain);
    rep.single("kernel.gflops", "GFLOP/s", flops_per_s / 1e9);
    let intensity = flops as f64 / bytes as f64;
    rep.single(
        "kernel.roofline_frac",
        "ratio",
        host.machine().roofline_efficiency(flops_per_s, intensity),
    );
}

/// `run_simulation` wall time against the sum of the bare `step_with`
/// calls it makes, interleaved over `pairs` pairs: the harness, hook and
/// source-assembly share of a forward solve.
pub fn harness_overhead(
    rep: &mut Report,
    solver: &ElasticSolver<'_>,
    sources: &[quake_solver::AssembledSource],
    receivers: &[u32],
    pairs: usize,
) {
    let harness = SolverHarness::new(solver);
    let mut ws = solver.workspace();
    let mut fracs = Vec::new();
    for _ in 0..pairs {
        let state = solver.initial_state(receivers.len(), None);
        let t = Instant::now();
        let out = harness.run_simulation(sources, receivers, state, &mut ws, None);
        let full = t.elapsed().as_secs_f64();
        assert!(out.is_ok(), "plain run_simulation cannot fail");
        let (bare, _) = bare_steps(solver, solver.n_steps, false);
        fracs.push(full / bare.iter().sum::<f64>() - 1.0);
    }
    rep.sampled("harness.overhead_frac", "ratio", &fracs);
}

/// `RateGroupPlan::build` on the workload's solver (median of three
/// builds) and the plan's shape.
pub fn rategroup_metrics(rep: &mut Report, solver: &ElasticSolver<'_>) {
    let (secs, plan) = timed_rebuilds(3, 0.0, || RateGroupPlan::build(solver, 8));
    rep.sampled("rategroup.build_s", "s", &secs);
    rep.single("rategroup.groups", "count", plan.n_groups() as f64);
    let per_cycle = plan.element_updates_per_cycle();
    let global = solver.mesh.n_elements() as f64 * plan.cycle() as f64;
    rep.single("rategroup.ideal_work_ratio", "ratio", global / per_cycle as f64);
    rep.single("rategroup.updates_per_cycle", "count", per_cycle as f64);
}

/// Global-dt steady-state allocations per step of the harness loop with a
/// receiver hook (the shape of `run_simulation`).
pub fn global_step_allocs(rep: &mut Report, solver: &ElasticSolver<'_>, receivers: &[u32]) {
    let harness = SolverHarness::new(solver);
    let mut ws = solver.workspace();
    let (a, b) = steady_allocs(4, 12, |n| {
        let mut state = solver.initial_state(receivers.len(), None);
        let mut hook = ReceiverHook::new(receivers);
        harness.run(&RunConfig::to_step(n), &mut state, &mut ws, &mut NoExchange, &mut [&mut hook]);
    });
    rep.single("alloc.per_step", "count", a);
    rep.single("alloc.bytes_per_step", "B", b);
}

/// The 2-rank `run_distributed` probe: exchange counts, steady-state
/// allocations per step, and the exchange wait share, plus the comparison
/// with the serial run on the nodes each rank's elements touch. Counts
/// only: 2-rank wall time is not steady on a 2-core host.
pub fn exchange_probe(rep: &mut Report, solver: &ElasticSolver<'_>, steps: usize) {
    let mesh = solver.mesh;
    let n = mesh.n_nodes();
    // Interleaved initial displacement from the smooth planar field.
    let up = smooth_field(mesh, 0.0);
    let mut u0 = vec![0.0; 3 * n];
    for nd in 0..n {
        for c in 0..3 {
            u0[3 * nd + c] = up[c * n + nd];
        }
    }
    let v0 = vec![0.0; 3 * n];
    mesh.interpolate_hanging(&mut u0, 3);
    let serial = SolverHarness::new(solver).run_to_state(Some((&u0, &v0)), steps);
    let run = run_distributed(solver, &DistConfig::new(2, steps).with_initial(&u0, &v0));
    let scale = serial.1.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
    let (mut mismatches, mut max_err) = (0usize, 0.0f64);
    for (r, elems) in run.elements.iter().enumerate() {
        let (rp, rn) = &run.states[r];
        let mut touched = vec![false; n];
        for &e in elems {
            for &nd in &mesh.elements[e as usize].nodes {
                touched[nd as usize] = true;
            }
        }
        for nd in (0..n).filter(|&nd| touched[nd]) {
            for c in 0..3 {
                let d = 3 * nd + c;
                for (a, b) in [(rp[d], serial.0[d]), (rn[d], serial.1[d])] {
                    if a.to_bits() != b.to_bits() {
                        mismatches += 1;
                        max_err = max_err.max((a - b).abs() / scale);
                    }
                }
            }
        }
    }
    // The gate is the solver's own distributed-vs-serial contract
    // (`distributed_matches_serial_exactly` asserts < 1e-12); the count of
    // dofs that are not bit-identical is reported beside it.
    rep.check(
        "exchange.two_rank_matches_serial",
        max_err <= 1e-12,
        format!(
            "after {steps} steps: max relative difference {max_err:e} (gate 1e-12), \
             {mismatches} dof values not bit-identical"
        ),
    );
    rep.single("exchange.bit_mismatches", "count", mismatches as f64);

    let linked = run.volumes.iter().filter(|&&v| v > 0).count();
    rep.single("exchange.msgs_per_step", "count", linked as f64);
    rep.single(
        "exchange.doubles_per_step",
        "count",
        run.volumes.iter().map(|&v| 3 * v as u64).sum::<u64>() as f64,
    );
    let (allocs, _) = steady_allocs(steps as u64 / 2, steps as u64, |k| {
        let _ = run_distributed(solver, &DistConfig::new(2, k as usize).with_initial(&u0, &v0));
    });
    rep.single("exchange.allocs_per_step", "count", allocs);

    let traced =
        run_distributed(solver, &DistConfig::new(2, steps).with_initial(&u0, &v0).with_telemetry());
    let mut fracs = Vec::new();
    for snap in &traced.snapshots {
        let wait = snap.get("span.step/exchange/wait.secs").unwrap_or(0.0);
        let step = snap.get("span.step.secs").unwrap_or(0.0);
        if step > 0.0 {
            fracs.push(wait / step);
        }
    }
    rep.single("exchange.wait_frac", "ratio", if fracs.is_empty() { 0.0 } else { median(&fracs) });
}

/// The small fixed mesh the probes of non-solver workloads run on: a
/// level-3 cube with the x < 1/2 half refined to level 4 (hanging nodes),
/// uniform material; the probe solver adds Rayleigh damping and absorbing
/// boundaries.
fn probe_mesh() -> (LinearOctree, HexMesh) {
    let half = 1u32 << (MAX_LEVEL - 1);
    let mut tree = LinearOctree::build(|o| o.level < 3 || (o.level < 4 && o.x < half));
    tree.balance(BalanceMode::Full);
    let mesh = HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial {
        lambda: 2.0,
        mu: 1.0,
        rho: 1.0,
    });
    (tree, mesh)
}

/// Two subfault point sources inside the probe mesh.
fn probe_sources(tree: &LinearOctree, mesh: &HexMesh) -> Vec<quake_solver::AssembledSource> {
    let mut fault = quake_model::ExtendedFault::northridge_like(8.0);
    fault.center = [4.0, 4.0, 2.0];
    quake_solver::assemble_point_sources(mesh, tree, &fault.discretize(2, 1))
}

fn probe_config() -> ElasticConfig {
    let mut cfg = ElasticConfig::new(1.0);
    cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 2.0 });
    cfg
}

/// Fill every per-layer metric the workload did not measure with a small
/// fixed probe of that layer, so each traced report carries the full set.
pub fn fill_missing(rep: &mut Report, host: &HostCal) {
    let has = |rep: &Report, name: &str| rep.metrics.iter().any(|m| m.name == name);
    let solver_layers = [
        "mesh.build_s",
        "solver.new_s",
        "step.p50_us",
        "harness.overhead_frac",
        "rategroup.build_s",
        "exchange.msgs_per_step",
        "alloc.per_step",
    ];
    if solver_layers.iter().any(|m| !has(rep, m)) {
        let (mesh_s, (tree, mesh)) = timed_rebuilds(3, 0.0, probe_mesh);
        let cfg = probe_config();
        let (new_s, _) = timed_rebuilds(3, 0.0, || ElasticSolver::new(&mesh, &cfg).dt);
        let solver = ElasticSolver::new(&mesh, &cfg);
        let mut probe = Report::default();
        mesh_metrics(&mut probe, &mesh_s, &mesh);
        solver_metrics(&mut probe, &new_s, &solver);
        step_metrics(&mut probe, &solver, host, 40);
        let recv = [0u32, (mesh.n_nodes() / 2) as u32];
        let src = probe_sources(&tree, &mesh);
        harness_overhead(&mut probe, &solver, &src, &recv, 3);
        rategroup_metrics(&mut probe, &solver);
        exchange_probe(&mut probe, &solver, 8);
        global_step_allocs(&mut probe, &solver, &recv);
        merge_missing(rep, probe);
    }
    if !has(rep, "serve.key_us") {
        let mut probe = Report::default();
        crate::serve::layer_probe(&mut probe);
        merge_missing(rep, probe);
    }
    if !has(rep, "gn.iters") {
        let mut probe = Report::default();
        crate::inversion::layer_probe(&mut probe);
        merge_missing(rep, probe);
    }
}

/// Move the probe's metrics and checks that `rep` lacks into `rep`.
fn merge_missing(rep: &mut Report, probe: Report) {
    for m in probe.metrics {
        if !rep.metrics.iter().any(|x| x.name == m.name) {
            rep.metrics.push(m);
        }
    }
    for c in probe.checks {
        rep.checks.push(crate::report::Check { name: format!("probe.{}", c.name), ..c });
    }
}
