//! The one canonical explicit time loop — [`SolverHarness`] — and the
//! [`StepHook`] surface that composes every cross-cutting concern onto it.
//!
//! Before this module, each feature of the elastic solver forked the leapfrog
//! loop into a new `run_*` variant: telemetry, checkpointing, resumability,
//! distribution, fault injection, and their combinations were ten
//! near-duplicate copies of the same ten-line recurrence. The harness inverts
//! that: there is exactly **one** step loop, driven by a [`RunConfig`], with
//! an ordered list of hooks observing it. The collapsed entry points —
//! `ElasticSolver::run`, `run_distributed`, `run_distributed_recoverable`,
//! `run_forward` — are thin shims that assemble a hook list and delegate
//! here.
//!
//! The loop structure (bit-identical to every variant it replaced):
//!
//! ```text
//! for k in first..until:
//!     before_step(hooks)                  # FaultHook kills here
//!     f = sum of sources at t = k dt      # skipped when there are none
//!     step_scoped(u_prev, u_now, f -> u_next):
//!         mid-step: pre_exchange(hooks)   # FaultHook drops/delays here
//!                   exchange.exchange(k, rhs)
//!     swap(u_prev, u_now); swap(u_now, u_next); state.step = k+1
//!     after_step(hooks)                   # ReceiverHook samples u_k (now in
//!                                         # u_prev), CheckpointHook offers
//!                                         # the state to its StepSink
//! on_run_end(hooks)                       # TelemetryHook records analytic
//!                                         # step costs
//! ```
//!
//! Hook order matters only where hooks share data: [`ReceiverHook`] must
//! precede [`CheckpointHook`] so a snapshot taken after step `k` contains
//! step `k`'s seismogram sample (the order the collapsed serial loop had).
//! Hooks that touch disjoint state commute — the displacement history is
//! bit-identical under any permutation (tested).
//!
//! Hooks are zero-cost in the no-op case: an empty hook slice costs one
//! empty-slice iteration per phase, and `bench_step --check-overhead` gates
//! the no-op-hook harness against the frozen reference step.

use crate::checkpoint::SolverState;
use crate::elastic::{ElasticSolver, RunResult, StepScope, StepWorkspace};
use crate::rategroup::{GroupRunScratch, RateGroupPlan};
use crate::receivers::record_sample_planar;
use crate::sources::AssembledSource;
use quake_ckpt::{CkptError, StepSink};
use quake_machine::phases::ElasticStepShape;
use quake_parcomm::RankFaults;
use quake_telemetry::{Registry, StepObserver};

/// Immutable facts about the run a hook can read from any phase.
#[derive(Clone, Copy, Debug)]
pub struct RunInfo {
    /// Telemetry rank of the driving workspace (0 for serial runs).
    pub rank: usize,
    /// Time-step size.
    pub dt: f64,
    /// First step index this run executes (`state.step` at entry).
    pub first_step: u64,
    /// One past the last step index (exclusive bound).
    pub until_step: u64,
}

/// What a hook sees between steps: the run facts, the mutable solver state,
/// the workspace registry, and whether the state is tainted (an exchange was
/// skipped, so the fields are suspect and must not be persisted).
pub struct HookCtx<'a> {
    pub info: &'a RunInfo,
    pub state: &'a mut SolverState,
    pub reg: &'a Registry,
    pub tainted: bool,
}

/// A hook's verdict on the mid-step interface exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeFlow {
    /// Perform the exchange normally.
    Proceed,
    /// Skip it (fault injection). The run is tainted from this step on.
    Skip,
}

/// Why a run stopped before its final step.
#[derive(Debug)]
pub enum StopReason {
    /// A hook killed the rank (scripted fault) before executing the step.
    Killed,
    /// The mid-step exchange failed (dead peer, protocol skew).
    Comm(String),
    /// A checkpoint sink failed to persist the state.
    Ckpt(CkptError),
    /// The numerics health watchdog ([`crate::health::HealthHook`]) found a
    /// violation (NaN/Inf in the fields, or unphysical energy growth) and
    /// aborted the run after dumping its post-mortem.
    Health(String),
}

/// How a harness run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Reached `until_step`; `executed` steps were performed by this call.
    Finished { executed: u64 },
    /// Stopped at `step` (the step being executed, or — for a checkpoint
    /// failure — the step just completed) for `reason`.
    Stopped { step: u64, reason: StopReason },
}

/// Observer/controller of the canonical step loop. Every method defaults to
/// a no-op, so implementations override only the phases they care about.
pub trait StepHook {
    /// Before the first step. Errors abort the run before any step executes.
    fn on_run_start(&mut self, _ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        Ok(())
    }

    /// At the top of each step, before forces are assembled; `ctx.state.step`
    /// is the step about to execute. Errors stop the run at this step.
    fn before_step(&mut self, _ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        Ok(())
    }

    /// Mid-step, just before the interface exchange of `step`. The solver
    /// state is borrowed by the step kernel here, so only the run facts are
    /// visible. Returning [`ExchangeFlow::Skip`] suppresses the exchange and
    /// taints the run.
    fn pre_exchange(&mut self, _info: &RunInfo, _step: u64) -> ExchangeFlow {
        ExchangeFlow::Proceed
    }

    /// After the step's swaps: `ctx.state.step` is the *next* step, the
    /// just-computed displacement is `ctx.state.u_now`, and the one sampled
    /// at the completed step's time level sits in `ctx.state.u_prev`.
    fn after_step(&mut self, _ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        Ok(())
    }

    /// After the loop finished normally (not called on early stops, matching
    /// the accounting of the collapsed variants).
    fn on_run_end(&mut self, _ctx: &mut HookCtx<'_>) {}
}

/// The default hook: observes nothing, costs nothing.
pub struct NoopHook;

impl StepHook for NoopHook {}

/// The mid-step interface exchange. Serial runs use [`NoExchange`]; the
/// distributed entry points plug the `quake-parcomm` fabric in (fail-stop or
/// step-tagged).
pub trait Exchange {
    /// Sum-exchange the partially assembled interface values of `step`.
    /// `reg` is the driving workspace's registry: an instrumented exchange
    /// records its `wait`/`copy` split there (the `step/exchange` span is
    /// open around this call, so recorded sub-intervals nest under it).
    fn exchange(&mut self, step: u64, rhs: &mut [f64], reg: &Registry) -> Result<(), String>;

    /// Group-aware exchange for rate-group (LTS) stepping: sum-exchange the
    /// interface values of rate group `group`'s pass at base step `step`.
    /// The default forwards to the full [`Exchange::exchange`], which is
    /// *correct* (summed foreign-group dofs land in halo scratch the pass
    /// never consumes and the owning pass's next fill overwrites) but moves
    /// dofs that are idle this substep; implementations with per-group
    /// neighbor lists override it to shrink the message volume.
    fn exchange_group(
        &mut self,
        step: u64,
        group: usize,
        rhs: &mut [f64],
        reg: &Registry,
    ) -> Result<(), String> {
        let _ = group;
        self.exchange(step, rhs, reg)
    }
}

/// No communication: the serial exchange.
pub struct NoExchange;

impl Exchange for NoExchange {
    fn exchange(&mut self, _step: u64, _rhs: &mut [f64], _reg: &Registry) -> Result<(), String> {
        Ok(())
    }
}

/// What to run: the sources, the step bound, and (for distributed ranks) the
/// step schedule. Defaults: no sources, the solver's full-domain scope.
pub struct RunConfig<'a> {
    sources: &'a [AssembledSource],
    until_step: u64,
    scope: Option<&'a StepScope>,
}

impl<'a> RunConfig<'a> {
    /// Run source-free on the full domain up to (exclusive) `until_step`.
    /// Note the bound is **not** clamped to the solver's configured step
    /// count — callers that want the simulation end pass `solver.n_steps`.
    pub fn to_step(until_step: u64) -> RunConfig<'a> {
        RunConfig { sources: &[], until_step, scope: None }
    }

    /// Drive the run with these assembled sources.
    pub fn with_sources(mut self, sources: &'a [AssembledSource]) -> RunConfig<'a> {
        self.sources = sources;
        self
    }

    /// Restrict the step to a rank's schedule (elements, faces, owned nodes).
    pub fn with_scope(mut self, scope: &'a StepScope) -> RunConfig<'a> {
        self.scope = Some(scope);
        self
    }
}

/// The per-run scratch vectors of the step loop: the `u_next` target of the
/// three-term recurrence and the assembled force vector. [`SolverHarness::run`]
/// allocates a fresh pair per call; a caller that drives many runs back to
/// back (the `quake-serve` worker pool) preallocates one of these and uses
/// [`SolverHarness::run_with_scratch`] so steady-state serving performs no
/// per-run heap allocation. Both buffers are zeroed on entry, so a reused
/// scratch is bit-identical to a fresh one.
pub struct RunScratch {
    pub(crate) u_next: Vec<f64>,
    pub(crate) f: Vec<f64>,
}

impl RunScratch {
    /// Scratch for a solver with `ndof` planar degrees of freedom
    /// (`3 * mesh.n_nodes()`).
    pub fn for_ndof(ndof: usize) -> RunScratch {
        RunScratch { u_next: vec![0.0; ndof], f: vec![0.0; ndof] }
    }
}

/// The one canonical step loop. See the module docs for the loop structure
/// and the hook phase map.
pub struct SolverHarness<'s, 'm> {
    solver: &'s ElasticSolver<'m>,
}

impl<'s, 'm> SolverHarness<'s, 'm> {
    pub fn new(solver: &'s ElasticSolver<'m>) -> SolverHarness<'s, 'm> {
        SolverHarness { solver }
    }

    /// Advance `state` from `state.step` up to (exclusive)
    /// `cfg.until_step`, invoking `hooks` in order at each phase. This is
    /// the loop every public `run_*` entry point delegates to.
    pub fn run(
        &self,
        cfg: &RunConfig<'_>,
        state: &mut SolverState,
        ws: &mut StepWorkspace,
        exchange: &mut dyn Exchange,
        hooks: &mut [&mut dyn StepHook],
    ) -> RunOutcome {
        let mut scratch = RunScratch::for_ndof(3 * self.solver.mesh.n_nodes());
        self.run_with_scratch(cfg, state, ws, exchange, hooks, &mut scratch)
    }

    /// [`SolverHarness::run`] with caller-owned scratch vectors, for drivers
    /// that execute many runs against one solver (scenario serving). The
    /// scratch is zeroed here, so the displacement history is bit-identical
    /// to [`SolverHarness::run`] regardless of what a previous run left in
    /// the buffers.
    pub fn run_with_scratch(
        &self,
        cfg: &RunConfig<'_>,
        state: &mut SolverState,
        ws: &mut StepWorkspace,
        exchange: &mut dyn Exchange,
        hooks: &mut [&mut dyn StepHook],
        scratch: &mut RunScratch,
    ) -> RunOutcome {
        let solver = self.solver;
        let ndof = 3 * solver.mesh.n_nodes();
        assert_eq!(state.u_prev.len(), ndof, "state does not match this mesh");
        assert_eq!(state.u_now.len(), ndof, "state does not match this mesh");
        assert_eq!(scratch.u_next.len(), ndof, "scratch does not match this mesh");
        assert_eq!(scratch.f.len(), ndof, "scratch does not match this mesh");
        let scope = cfg.scope.unwrap_or_else(|| solver.full_scope());
        let info = RunInfo {
            rank: ws.reg.rank(),
            dt: solver.dt,
            first_step: state.step,
            until_step: cfg.until_step,
        };
        let u_next = &mut scratch.u_next;
        let f = &mut scratch.f;
        u_next.iter_mut().for_each(|v| *v = 0.0);
        f.iter_mut().for_each(|v| *v = 0.0);
        let mut tainted = false;

        {
            let mut ctx = HookCtx { info: &info, state, reg: &ws.reg, tainted };
            for h in hooks.iter_mut() {
                // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                if let Err(reason) = h.on_run_start(&mut ctx) {
                    return RunOutcome::Stopped { step: info.first_step, reason };
                }
            }
        }

        for k in info.first_step..info.until_step {
            {
                let mut ctx = HookCtx { info: &info, state, reg: &ws.reg, tainted };
                for h in hooks.iter_mut() {
                    // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                    if let Err(reason) = h.before_step(&mut ctx) {
                        return RunOutcome::Stopped { step: k, reason };
                    }
                }
            }
            if !cfg.sources.is_empty() {
                let t = k as f64 * solver.dt;
                f.iter_mut().for_each(|v| *v = 0.0);
                ws.reg.enter(ws.ids.source);
                for s in cfg.sources {
                    s.add_force_planar(t, f);
                }
                ws.reg.exit(ws.ids.source);
            }
            let mut comm_err = None;
            solver.step_scoped(scope, &state.u_prev, &state.u_now, f, u_next, ws, |rhs, reg| {
                let mut flow = ExchangeFlow::Proceed;
                for h in hooks.iter_mut() {
                    // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                    if h.pre_exchange(&info, k) == ExchangeFlow::Skip {
                        flow = ExchangeFlow::Skip;
                    }
                }
                if flow == ExchangeFlow::Skip {
                    tainted = true;
                    return;
                }
                // lint:reach-ok — dyn exchange dispatch: comm fabrics preallocate and return CommError.
                if let Err(e) = exchange.exchange(k, rhs, reg) {
                    comm_err = Some(e);
                }
            });
            // A failed exchange aborts before the swaps: the state keeps
            // describing the last *completed* step.
            if let Some(e) = comm_err {
                return RunOutcome::Stopped { step: k, reason: StopReason::Comm(e) };
            }
            std::mem::swap(&mut state.u_prev, &mut state.u_now);
            std::mem::swap(&mut state.u_now, u_next);
            state.step = k + 1;
            {
                let mut ctx = HookCtx { info: &info, state, reg: &ws.reg, tainted };
                for h in hooks.iter_mut() {
                    // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                    if let Err(reason) = h.after_step(&mut ctx) {
                        return RunOutcome::Stopped { step: k, reason };
                    }
                }
            }
        }

        let executed = state.step - info.first_step;
        {
            let mut ctx = HookCtx { info: &info, state, reg: &ws.reg, tainted };
            for h in hooks.iter_mut() {
                // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                h.on_run_end(&mut ctx);
            }
        }
        RunOutcome::Finished { executed }
    }

    /// [`SolverHarness::run`] on a rate-group stepping plan: advance `state`
    /// by whole **macro cycles** (`plan.cycle()` base steps each), stepping
    /// each rate group at its own dt on the nested LTS schedule (see
    /// [`crate::rategroup`]). Allocates fresh grouped scratch per call.
    ///
    /// Hook semantics at a glance: `before_step`/`after_step` (and therefore
    /// `CheckpointHook`/`TelemetryHook`/`HealthHook`) fire once per macro
    /// cycle, at the global sync steps where every group's `u_now` coincides;
    /// `state.step` still counts *base* steps, advancing by `plan.cycle()`
    /// per iteration; `pre_exchange` fires per due-group pass. With a
    /// single-group plan this delegates verbatim to the global loop and is
    /// bit-identical to [`SolverHarness::run`].
    pub fn run_grouped(
        &self,
        plan: &RateGroupPlan,
        cfg: &RunConfig<'_>,
        state: &mut SolverState,
        ws: &mut StepWorkspace,
        exchange: &mut dyn Exchange,
        hooks: &mut [&mut dyn StepHook],
    ) -> RunOutcome {
        let mut scratch = GroupRunScratch::for_ndof(3 * self.solver.mesh.n_nodes());
        self.run_grouped_with_scratch(plan, cfg, state, ws, exchange, hooks, &mut scratch)
    }

    /// [`SolverHarness::run_grouped`] with caller-owned scratch. The scratch
    /// is zeroed on entry, so a reused scratch is bit-identical to a fresh
    /// one.
    ///
    /// Both the entry step and `cfg.until_step` must be global sync steps
    /// (multiples of `plan.cycle()`) — between sync steps the groups'
    /// histories are staggered and there is no meaningful whole-domain state
    /// to stop at. For the same reason a mid-cycle comm failure leaves
    /// `state` torn (some groups advanced past `state.step`); recovery must
    /// restart from a checkpointed sync step, which is exactly what the
    /// checkpoint cadence provides.
    #[allow(clippy::too_many_arguments)]
    pub fn run_grouped_with_scratch(
        &self,
        plan: &RateGroupPlan,
        cfg: &RunConfig<'_>,
        state: &mut SolverState,
        ws: &mut StepWorkspace,
        exchange: &mut dyn Exchange,
        hooks: &mut [&mut dyn StepHook],
        scratch: &mut GroupRunScratch,
    ) -> RunOutcome {
        if plan.n_groups() == 1 {
            // Degenerate plan: one group owning everything at the base dt is
            // exactly the global loop (same sweep schedule, same fill/tail
            // arithmetic) — delegate so it stays bit-identical by
            // construction.
            return self.run_with_scratch(cfg, state, ws, exchange, hooks, &mut scratch.run);
        }
        let solver = self.solver;
        let ndof = 3 * solver.mesh.n_nodes();
        assert_eq!(state.u_prev.len(), ndof, "state does not match this mesh");
        assert_eq!(state.u_now.len(), ndof, "state does not match this mesh");
        assert!(
            cfg.scope.is_none(),
            "multi-group LTS steps the full domain; distributed multi-group \
             stepping is future work (the group-aware exchange is in place)"
        );
        let m = plan.cycle();
        assert_eq!(
            state.step % m,
            0,
            "grouped runs start at a global sync step (multiple of the macro cycle)"
        );
        assert_eq!(
            cfg.until_step % m,
            0,
            "grouped runs end at a global sync step (multiple of the macro cycle)"
        );
        let info = RunInfo {
            rank: ws.reg.rank(),
            dt: solver.dt,
            first_step: state.step,
            until_step: cfg.until_step,
        };
        let GroupRunScratch { run, ue, we } = scratch;
        let rhs = &mut run.u_next;
        let f = &mut run.f;
        assert_eq!(rhs.len(), ndof, "scratch does not match this mesh");
        assert_eq!(f.len(), ndof, "scratch does not match this mesh");
        rhs.iter_mut().for_each(|v| *v = 0.0);
        f.iter_mut().for_each(|v| *v = 0.0);
        ue.iter_mut().for_each(|v| *v = 0.0);
        we.iter_mut().for_each(|v| *v = 0.0);
        let mut tainted = false;

        {
            let mut ctx = HookCtx { info: &info, state, reg: &ws.reg, tainted };
            for h in hooks.iter_mut() {
                // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                if let Err(reason) = h.on_run_start(&mut ctx) {
                    return RunOutcome::Stopped { step: info.first_step, reason };
                }
            }
        }

        let mut cycle_start = info.first_step;
        while cycle_start < info.until_step {
            {
                let mut ctx = HookCtx { info: &info, state, reg: &ws.reg, tainted };
                for h in hooks.iter_mut() {
                    // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                    if let Err(reason) = h.before_step(&mut ctx) {
                        return RunOutcome::Stopped { step: cycle_start, reason };
                    }
                }
            }
            for s in cycle_start..cycle_start + m {
                if !cfg.sources.is_empty() {
                    let t = s as f64 * solver.dt;
                    f.iter_mut().for_each(|v| *v = 0.0);
                    ws.reg.enter(ws.ids.source);
                    for src in cfg.sources {
                        src.add_force_planar(t, f);
                    }
                    ws.reg.exit(ws.ids.source);
                }
                let res = plan.step_point(
                    solver,
                    s,
                    &mut state.u_prev,
                    &mut state.u_now,
                    f,
                    rhs,
                    ue,
                    we,
                    ws,
                    |g, rhs, reg| {
                        let mut flow = ExchangeFlow::Proceed;
                        for h in hooks.iter_mut() {
                            // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                            if h.pre_exchange(&info, s) == ExchangeFlow::Skip {
                                flow = ExchangeFlow::Skip;
                            }
                        }
                        if flow == ExchangeFlow::Skip {
                            tainted = true;
                            return Ok(());
                        }
                        // lint:reach-ok — dyn exchange dispatch: comm fabrics preallocate and return CommError.
                        exchange.exchange_group(s, g, rhs, reg)
                    },
                );
                if let Err(e) = res {
                    return RunOutcome::Stopped { step: s, reason: StopReason::Comm(e) };
                }
            }
            cycle_start += m;
            state.step = cycle_start;
            {
                let mut ctx = HookCtx { info: &info, state, reg: &ws.reg, tainted };
                for h in hooks.iter_mut() {
                    // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                    if let Err(reason) = h.after_step(&mut ctx) {
                        return RunOutcome::Stopped { step: cycle_start - m, reason };
                    }
                }
            }
        }

        let executed = state.step - info.first_step;
        {
            let mut ctx = HookCtx { info: &info, state, reg: &ws.reg, tainted };
            for h in hooks.iter_mut() {
                // lint:reach-ok — dyn hook fan-out: hot/comm callers install audited hooks (DESIGN.md).
                h.on_run_end(&mut ctx);
            }
        }
        RunOutcome::Finished { executed }
    }

    /// Run source-free from an optional initial `(u0, v0)` for `n_steps` and
    /// return the final `(u_prev, u_now)` pair (for field tests). The bound
    /// is *not* clamped to the solver's configured duration. Both the inputs
    /// and the returned pair use the public interleaved layout; the planar
    /// internal state never leaks out of this call.
    pub fn run_to_state(
        &self,
        initial: Option<(&[f64], &[f64])>,
        n_steps: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut state = self.solver.initial_state(0, initial);
        let mut ws = self.solver.workspace();
        let cfg = RunConfig::to_step(n_steps as u64);
        self.run(&cfg, &mut state, &mut ws, &mut NoExchange, &mut []);
        (
            crate::layout::to_interleaved3(&state.u_prev),
            crate::layout::to_interleaved3(&state.u_now),
        )
    }

    /// Drive a full simulation to the solver's configured end: sources on,
    /// receivers sampled through a [`ReceiverHook`], analytic step costs
    /// recorded through a [`TelemetryHook`], and — when `sink` is given —
    /// the state offered to it after every step through a
    /// [`CheckpointHook`]. Returns the run accounting and the final state;
    /// `flops` and step costs cover only the steps executed by *this* call
    /// (a resumed run accounts only its own tail).
    pub fn run_simulation(
        &self,
        sources: &[AssembledSource],
        receiver_nodes: &[u32],
        mut state: SolverState,
        ws: &mut StepWorkspace,
        sink: Option<&mut dyn StepSink<SolverState>>,
    ) -> Result<(RunResult, SolverState), CkptError> {
        let solver = self.solver;
        let t0 = std::time::Instant::now();
        let executed = (solver.n_steps as u64).saturating_sub(state.step);
        let cfg = RunConfig::to_step(solver.n_steps as u64).with_sources(sources);
        let mut receivers = ReceiverHook::new(receiver_nodes);
        let mut telemetry = TelemetryHook::new(solver);
        // ReceiverHook precedes CheckpointHook: a snapshot after step k must
        // already contain step k's seismogram sample.
        let outcome = match sink {
            Some(sink) => {
                let mut ckpt = CheckpointHook::new(sink);
                self.run(
                    &cfg,
                    &mut state,
                    ws,
                    &mut NoExchange,
                    &mut [&mut receivers, &mut ckpt, &mut telemetry],
                )
            }
            None => self.run(
                &cfg,
                &mut state,
                ws,
                &mut NoExchange,
                &mut [&mut receivers, &mut telemetry],
            ),
        };
        match outcome {
            RunOutcome::Finished { .. } => {}
            RunOutcome::Stopped { reason: StopReason::Ckpt(e), .. } => return Err(e),
            RunOutcome::Stopped { reason, .. } => {
                unreachable!("serial run cannot stop for {reason:?}")
            }
        }
        let flops = quake_machine::flops::elastic_total(
            solver.mesh.n_elements() as u64,
            solver.mesh.n_nodes() as u64,
            solver.faces.len() as u64,
            executed,
        );
        let result = RunResult {
            seismograms: state.seismograms.clone(),
            n_steps: solver.n_steps,
            dt: solver.dt,
            flops,
            wall_secs: t0.elapsed().as_secs_f64(),
        };
        Ok((result, state))
    }
}

/// The central-difference recurrence every solver in this crate shares:
/// seed `(u_prev, u_now)` from an optional `(u0, v0)` (first-order backward
/// start, matching the scheme's order), run `n_steps` force-free steps via
/// `step`, swap-swap, and return the final pair. [`SolverHarness`] embeds
/// these semantics; the tet baseline's `run_to_state` delegates here so the
/// two cannot drift in their start/finish handling again.
pub fn leapfrog_to_state(
    ndof: usize,
    dt: f64,
    initial: Option<(&[f64], &[f64])>,
    n_steps: usize,
    mut step: impl FnMut(&[f64], &[f64], &[f64], &mut [f64]),
) -> (Vec<f64>, Vec<f64>) {
    let mut u_prev = vec![0.0; ndof];
    let mut u_now = vec![0.0; ndof];
    let mut u_next = vec![0.0; ndof];
    let f = vec![0.0; ndof];
    if let Some((u0, v0)) = initial {
        u_now.copy_from_slice(u0);
        for d in 0..ndof {
            u_prev[d] = u0[d] - dt * v0[d];
        }
    }
    for _ in 0..n_steps {
        step(&u_prev, &u_now, &f, &mut u_next);
        std::mem::swap(&mut u_prev, &mut u_now);
        std::mem::swap(&mut u_now, &mut u_next);
    }
    (u_prev, u_now)
}

/// Samples receiver displacements into the state's seismograms — the single
/// home of the interpolation that used to be copy-pasted into every loop.
/// Sample `k` of every trace is the displacement at time `k dt`, taken from
/// `u_prev` *after* the step's swaps (which is the buffer that held `u_now`
/// when the step was computed).
pub struct ReceiverHook<'a> {
    nodes: &'a [u32],
}

impl<'a> ReceiverHook<'a> {
    pub fn new(nodes: &'a [u32]) -> ReceiverHook<'a> {
        ReceiverHook { nodes }
    }
}

impl StepHook for ReceiverHook<'_> {
    fn on_run_start(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        assert_eq!(
            ctx.state.seismograms.len(),
            self.nodes.len(),
            "state has one seismogram per receiver node"
        );
        // One sample per step: reserving the whole run up front keeps the
        // per-step sampling allocation-free.
        let steps = ctx.info.until_step.saturating_sub(ctx.info.first_step) as usize;
        for tr in &mut ctx.state.seismograms {
            tr.reserve(steps);
        }
        Ok(())
    }

    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        record_sample_planar(&mut ctx.state.seismograms, self.nodes, &ctx.state.u_prev);
        Ok(())
    }
}

/// Offers the post-step state to a [`StepSink`] (skipping while the run is
/// tainted, so suspect fields never reach disk). The sink owns cadence and
/// atomicity; a sink failure stops the run with [`StopReason::Ckpt`].
pub struct CheckpointHook<'a> {
    sink: &'a mut dyn StepSink<SolverState>,
}

impl<'a> CheckpointHook<'a> {
    pub fn new(sink: &'a mut dyn StepSink<SolverState>) -> CheckpointHook<'a> {
        CheckpointHook { sink }
    }
}

impl StepHook for CheckpointHook<'_> {
    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        if ctx.tainted {
            return Ok(());
        }
        self.sink.offer(ctx.state.step, ctx.state, ctx.reg).map_err(StopReason::Ckpt)
    }
}

/// Records the run's analytic per-phase step costs on completion (joining
/// the measured spans to the roofline model) and optionally forwards
/// lifecycle notifications to a [`StepObserver`]. The per-step phase spans
/// themselves are emitted by the step kernel via the workspace registry —
/// this hook only adds the end-of-run accounting the collapsed variants did.
pub struct TelemetryHook<'s, 'm> {
    solver: &'s ElasticSolver<'m>,
    shape: ElasticStepShape,
    observer: Option<&'s mut dyn StepObserver>,
}

impl<'s, 'm> TelemetryHook<'s, 'm> {
    /// Costs of the full-domain step (serial runs).
    pub fn new(solver: &'s ElasticSolver<'m>) -> TelemetryHook<'s, 'm> {
        let shape = solver.phase_shape(solver.full_scope());
        TelemetryHook { solver, shape, observer: None }
    }

    /// Costs of a caller-adjusted shape (a distributed rank's scope with its
    /// true interface exchange volume).
    pub fn shaped(solver: &'s ElasticSolver<'m>, shape: ElasticStepShape) -> TelemetryHook<'s, 'm> {
        TelemetryHook { solver, shape, observer: None }
    }

    /// Also forward run lifecycle notifications to `observer`.
    pub fn with_observer(mut self, observer: &'s mut dyn StepObserver) -> TelemetryHook<'s, 'm> {
        self.observer = Some(observer);
        self
    }
}

impl StepHook for TelemetryHook<'_, '_> {
    fn on_run_start(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_run_start(ctx.state.step, ctx.reg);
        }
        Ok(())
    }

    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_step(ctx.state.step, ctx.reg);
        }
        Ok(())
    }

    fn on_run_end(&mut self, ctx: &mut HookCtx<'_>) {
        let executed = ctx.state.step - ctx.info.first_step;
        self.solver.record_step_costs_shaped(&self.shape, executed, ctx.reg);
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_run_end(executed, ctx.reg);
        }
    }
}

/// Injects a scripted [`FaultPlan`](quake_parcomm::FaultPlan) into the loop:
/// kills the rank at the top of its scripted step, corrupts a solution entry
/// with NaN (a silent numerical fault only a `HealthHook` can catch), and
/// drops or delays the mid-step exchange. The production configuration is
/// simply *no FaultHook in the list* — injection support costs nothing when
/// absent.
pub struct FaultHook<'p> {
    faults: RankFaults<'p>,
}

impl<'p> FaultHook<'p> {
    pub fn new(faults: RankFaults<'p>) -> FaultHook<'p> {
        FaultHook { faults }
    }
}

impl StepHook for FaultHook<'_> {
    fn before_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        if self.faults.kills(ctx.state.step) {
            return Err(StopReason::Killed);
        }
        if let Some(index) = self.faults.corrupts(ctx.state.step) {
            let i = index % ctx.state.u_now.len().max(1);
            ctx.state.u_now[i] = f64::NAN;
        }
        Ok(())
    }

    fn pre_exchange(&mut self, _info: &RunInfo, step: u64) -> ExchangeFlow {
        if self.faults.drops(step) {
            return ExchangeFlow::Skip;
        }
        let delay = self.faults.delay_ms(step);
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay));
        }
        ExchangeFlow::Proceed
    }
}
