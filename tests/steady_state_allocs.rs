//! Dynamic witness of the "allocation-free steady state" claim on the serial
//! harness path: `SolverHarness::run_simulation` with point sources and
//! receivers must make no heap allocation per step. A short and a long run
//! make the same set-up allocations, so their difference is the per-step
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quake::core::northridge_scenario;
use quake::mesh::mesh_from_model;
use quake::solver::{assemble_point_sources, ElasticSolver, SolverHarness};

/// Counts the allocations of the calling thread only, so the test harness's
/// other threads cannot disturb the count.
struct ThreadCountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread's allocations during TLS teardown go uncounted
    // instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a thread-local `Cell` without a destructor and has no effect
// on the returned memory.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn run_simulation_allocates_nothing_per_step() {
    let (model, mut sc) = northridge_scenario(8_000.0, 0.4, 400.0, 1.0, 4);
    sc.meshing.min_level = 2;
    sc.meshing.max_level = 4;
    let (tree, mesh) = mesh_from_model(&sc.meshing, &model);
    let sources = sc.fault.discretize(sc.n_subfaults.0, sc.n_subfaults.1);
    let assembled = assemble_point_sources(&mesh, &tree, &sources);
    assert!(!assembled.is_empty(), "the scenario has sources");
    let receivers: Vec<u32> = sc.receivers.iter().map(|&p| mesh.nearest_node(p)).collect();
    let dt = ElasticSolver::new(&mesh, &sc.solve).dt;

    // Allocations of one `run_simulation` call of `n_steps` steps; the
    // solver and its workspace are built outside the counted window.
    let allocs_of_run = |n_steps: usize| {
        let mut cfg = sc.solve;
        cfg.dt = Some(dt);
        cfg.duration = (n_steps as f64 - 0.5) * dt;
        let solver = ElasticSolver::new(&mesh, &cfg);
        assert_eq!(solver.n_steps, n_steps);
        let harness = SolverHarness::new(&solver);
        let mut ws = solver.workspace();
        let state = solver.initial_state(receivers.len(), None);
        let before = thread_allocs();
        let (result, _) = harness
            .run_simulation(&assembled, &receivers, state, &mut ws, None)
            .expect("no checkpointing configured");
        let allocs = thread_allocs() - before;
        assert_eq!(result.seismograms[0].n_samples(), n_steps);
        allocs
    };

    // A first run pays one-time lazy initialisation; count warm runs only.
    let (short, long) = (4, 68);
    allocs_of_run(short);
    let (a_short, a_long) = (allocs_of_run(short), allocs_of_run(long));
    assert_eq!(
        a_long,
        a_short,
        "{} allocations per step ({a_short} in {short} steps, {a_long} in {long} steps)",
        (a_long as f64 - a_short as f64) / (long - short) as f64
    );
}
