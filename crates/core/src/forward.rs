//! Forward basin simulation: model -> mesh -> solve -> seismograms.

use quake_ckpt::{
    CheckpointPolicy, CheckpointReader, CheckpointWriter, CkptError, PeriodicSink, StepSink,
};
use quake_mesh::{mesh_from_model, HexMesh, MeshStats, MeshingParams};
use quake_model::{ExtendedFault, LaBasinModel, MaterialModel};
use quake_octree::LinearOctree;
use quake_solver::{
    assemble_point_sources, ElasticConfig, ElasticSolver, RunResult, SolverHarness, SolverState,
};
use quake_telemetry::Registry;
use std::path::{Path, PathBuf};

/// A complete forward-simulation scenario.
#[derive(Clone, Debug)]
pub struct ForwardScenario {
    pub meshing: MeshingParams,
    pub solve: ElasticConfig,
    pub fault: ExtendedFault,
    /// Subfault discretization (along strike, down dip).
    pub n_subfaults: (usize, usize),
    /// Receiver positions (m); they are snapped to the nearest surface node.
    pub receivers: Vec<[f64; 3]>,
}

/// Everything a forward run produces.
pub struct ForwardOutcome {
    pub tree: LinearOctree,
    pub mesh: HexMesh,
    pub mesh_stats: MeshStats,
    pub receiver_nodes: Vec<u32>,
    pub result: RunResult,
}

/// Builder configuring one forward solve: optional telemetry and optional
/// checkpoint/restart layered onto the same canonical pipeline.
///
/// Every combination runs the identical `model -> mesh -> assemble -> solve`
/// stages and drives the one `SolverHarness` step loop, so a traced or
/// resumable run is **bit-identical** to a plain one.
///
/// ```ignore
/// let out = ForwardRun::new(&model, &scenario)
///     .traced(&reg)                     // spans + mesh stats + per-phase costs
///     .resumable(&ckpt_dir, 50)         // snapshot every 50 steps, resume if possible
///     .execute()?;
/// ```
pub struct ForwardRun<'a, M: MaterialModel> {
    model: &'a M,
    scenario: &'a ForwardScenario,
    reg: Option<&'a Registry>,
    resume: Option<(PathBuf, u64)>,
}

impl<'a, M: MaterialModel> ForwardRun<'a, M> {
    pub fn new(model: &'a M, scenario: &'a ForwardScenario) -> ForwardRun<'a, M> {
        ForwardRun { model, scenario, reg: None, resume: None }
    }

    /// Record telemetry into `reg`: the meshing and assembly stages get
    /// spans, the mesh statistics land in the registry as `mesh/...`
    /// metrics, and the solve runs with an instrumented workspace, so `reg`
    /// afterwards holds the full per-phase breakdown of the run.
    pub fn traced(mut self, reg: &'a Registry) -> ForwardRun<'a, M> {
        self.reg = Some(reg);
        self
    }

    /// Checkpoint/restart: the solve snapshots its state into `ckpt_dir`
    /// every `every_steps` time steps, and if the directory already holds a
    /// valid checkpoint (from an interrupted earlier invocation) the run
    /// resumes from the newest one instead of starting at step zero. The
    /// meshing and assembly stages rerun on resume — they are deterministic
    /// functions of the scenario, so the restored state stays consistent.
    /// Corrupted or truncated checkpoint files are detected by their CRC and
    /// skipped in favor of the previous valid snapshot.
    pub fn resumable(mut self, ckpt_dir: &Path, every_steps: u64) -> ForwardRun<'a, M> {
        self.resume = Some((ckpt_dir.to_path_buf(), every_steps));
        self
    }

    /// Run the configured pipeline. The only error source is checkpoint I/O,
    /// so a run without [`resumable`](Self::resumable) cannot fail.
    pub fn execute(self) -> Result<ForwardOutcome, CkptError> {
        let disabled = Registry::disabled();
        let reg = self.reg.unwrap_or(&disabled);
        let scenario = self.scenario;
        let (tree, mesh) = {
            let _s = reg.span("forward/mesh");
            mesh_from_model(&scenario.meshing, self.model)
        };
        let mesh_stats = MeshStats::compute(&mesh);
        mesh_stats.record(reg);
        let (solver, sources) = {
            let _s = reg.span("forward/assemble");
            let solver = ElasticSolver::new(&mesh, &scenario.solve);
            let sources = assemble_point_sources(
                &mesh,
                &tree,
                &scenario.fault.discretize(scenario.n_subfaults.0, scenario.n_subfaults.1),
            );
            (solver, sources)
        };
        let receiver_nodes: Vec<u32> =
            scenario.receivers.iter().map(|&p| mesh.nearest_node(p)).collect();
        let persist = match &self.resume {
            Some((dir, every)) => {
                let writer = CheckpointWriter::new(dir, "forward")?;
                let policy = CheckpointPolicy::every_steps(*every);
                let state = match CheckpointReader::new(dir, "forward").latest_valid(reg) {
                    Some((step, state)) => {
                        reg.set("forward/resumed_step", step);
                        state
                    }
                    None => solver.initial_state(receiver_nodes.len(), None),
                };
                Some((writer, policy, state))
            }
            None => None,
        };
        let result = {
            let _s = reg.span("forward/solve");
            let mut ws = if reg.is_enabled() {
                solver.workspace_instrumented(reg.rank())
            } else {
                solver.workspace()
            };
            let harness = SolverHarness::new(&solver);
            let result = match persist {
                Some((writer, policy, state)) => {
                    let mut sink = PeriodicSink::new(&writer, &policy);
                    let sink: &mut dyn StepSink<SolverState> = &mut sink;
                    harness.run_simulation(&sources, &receiver_nodes, state, &mut ws, Some(sink))?.0
                }
                None => {
                    let state = solver.initial_state(receiver_nodes.len(), None);
                    harness.run_simulation(&sources, &receiver_nodes, state, &mut ws, None)?.0
                }
            };
            reg.absorb(&ws.into_registry());
            result
        };
        Ok(ForwardOutcome { tree, mesh, mesh_stats, receiver_nodes, result })
    }
}

/// Run a scenario against a material model — shorthand for
/// [`ForwardRun::new(..).execute()`](ForwardRun) with no telemetry or
/// checkpointing.
pub fn run_forward(model: &impl MaterialModel, scenario: &ForwardScenario) -> ForwardOutcome {
    ForwardRun::new(model, scenario).execute().expect("no checkpointing configured")
}

/// A Northridge-like scenario scaled into a cube of edge `extent` meters,
/// resolving `fmax` Hz down to `vs_min` m/s sediments, with `n_receivers`
/// stations along the surface diagonal.
pub fn northridge_scenario(
    extent: f64,
    fmax: f64,
    vs_min: f64,
    duration: f64,
    n_receivers: usize,
) -> (LaBasinModel, ForwardScenario) {
    let model = LaBasinModel::scaled(vs_min, extent);
    let mut meshing = MeshingParams::new(extent, fmax);
    meshing.max_level = 9;
    let receivers = (0..n_receivers)
        .map(|i| {
            let t = (i as f64 + 0.5) / n_receivers as f64;
            [extent * t, extent * (0.25 + 0.5 * t), 0.0]
        })
        .collect();
    let scenario = ForwardScenario {
        meshing,
        solve: ElasticConfig::new(duration),
        fault: ExtendedFault::northridge_like(extent),
        n_subfaults: (6, 4),
        receivers,
    };
    (model, scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_northridge_run_produces_motion() {
        // A miniature end-to-end run: 8 km basin cube, 0.4 Hz.
        let (model, mut scenario) = northridge_scenario(8_000.0, 0.4, 400.0, 4.0, 4);
        scenario.meshing.min_level = 2;
        scenario.meshing.max_level = 5;
        let out = run_forward(&model, &scenario);
        assert!(out.mesh_stats.n_elements > 100);
        assert_eq!(out.result.seismograms.len(), 4);
        // Ground actually moved at every station, and nothing blew up.
        for s in &out.result.seismograms {
            let peak = (0..3).map(|c| s.peak(c)).fold(0.0f64, f64::max);
            assert!(peak.is_finite());
            assert!(peak > 0.0, "silent seismogram");
        }
        assert!(out.result.flops > 0);
        // Receivers snapped to the free surface.
        for &nd in &out.receiver_nodes {
            assert_eq!(out.mesh.grid_coords[nd as usize][2], 0);
        }
    }

    #[test]
    fn resumable_forward_run_matches_plain_run_bitwise() {
        let (model, mut scenario) = northridge_scenario(8_000.0, 0.4, 400.0, 2.0, 2);
        scenario.meshing.min_level = 2;
        scenario.meshing.max_level = 5;
        let plain = run_forward(&model, &scenario);

        let dir = std::env::temp_dir()
            .join("quake-core-tests")
            .join(format!("fwd-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Leg 1: interrupted halfway — run a truncated scenario that
        // checkpoints, leaving snapshots behind.
        let half_steps = plain.result.n_steps / 2;
        let mut short = scenario.clone();
        short.solve.duration = plain.result.dt * half_steps as f64 - plain.result.dt * 0.5;
        let reg = Registry::new(0);
        let partial =
            ForwardRun::new(&model, &short).traced(&reg).resumable(&dir, 3).execute().unwrap();
        assert!(partial.result.n_steps < plain.result.n_steps);
        assert!(CheckpointReader::new(&dir, "forward").steps().last().is_some());

        // Leg 2: the full scenario resumes from the newest snapshot.
        let reg2 = Registry::new(0);
        let resumed =
            ForwardRun::new(&model, &scenario).traced(&reg2).resumable(&dir, 3).execute().unwrap();
        assert!(reg2.counter("forward/resumed_step").unwrap() > 0);
        assert_eq!(resumed.result.n_steps, plain.result.n_steps);
        for (a, b) in resumed.result.seismograms.iter().zip(&plain.result.seismograms) {
            assert_eq!(a.data.len(), b.data.len());
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "resume changed the waveform");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_forward_run_populates_the_registry() {
        let (model, mut scenario) = northridge_scenario(8_000.0, 0.4, 400.0, 2.0, 2);
        scenario.meshing.min_level = 2;
        scenario.meshing.max_level = 5;
        let reg = Registry::new(0);
        let out = ForwardRun::new(&model, &scenario).traced(&reg).execute().unwrap();
        // Driver-stage spans are present and ran exactly once.
        for name in ["forward/mesh", "forward/assemble", "forward/solve"] {
            let s = reg.span_stats(name).unwrap_or_else(|| panic!("missing span {name}"));
            assert_eq!(s.count, 1, "{name}");
        }
        // Mesh statistics were recorded as metrics.
        assert_eq!(reg.counter("mesh/elements"), Some(out.mesh_stats.n_elements as u64));
        assert!(reg.gauge_value("mesh/h_min").is_some());
        // The solver workspace's per-phase breakdown was absorbed: one `step`
        // span per time step, plus the analytic cost counters.
        let step = reg.span_stats("step").expect("absorbed step span");
        assert_eq!(step.count, out.result.n_steps as u64);
        assert!(reg.counter("step/elements/flops").unwrap() > 0);
        // Step time is contained in the solve stage that absorbed it.
        let solve = reg.span_stats("forward/solve").unwrap();
        assert!(step.total_ns <= solve.total_ns);
    }

    /// The blocked sweep computes only the lanes its batches hold: on a
    /// heterogeneous basin, where most same-class runs are one to three
    /// elements long, at least 85% of the matvec lanes carry an element. A
    /// traced run reports the same ratio as `sweep/lane_efficiency`.
    #[test]
    fn basin_sweep_lane_efficiency_is_recorded_and_high() {
        let (model, mut scenario) = northridge_scenario(8_000.0, 0.4, 400.0, 0.5, 2);
        scenario.meshing.min_level = 2;
        scenario.meshing.max_level = 5;
        let reg = Registry::new(0);
        let out = ForwardRun::new(&model, &scenario).traced(&reg).execute().unwrap();
        let solver = ElasticSolver::new(&out.mesh, &scenario.solve);
        let sched = &solver.full_scope().schedule;
        assert!(sched.n_classes() > 50, "a heterogeneous basin, got {} classes", sched.n_classes());
        let eff = sched.n_elements() as f64 / sched.lanes_per_sweep() as f64;
        assert_eq!(reg.gauge_value("sweep/lane_efficiency"), Some(eff));
        assert!(eff >= 0.85, "lane efficiency {eff:.3} below 0.85");
    }
}
