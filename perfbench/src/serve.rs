//! `serve_mixed`: one `ServeEngine` worker with an on-disk `ResultCache`,
//! driven as a closed loop of two outstanding requests from one client
//! thread. The seeded request stream spans two registered model scales;
//! about one request in four repeats an earlier, already answered request
//! (a cache read), the rest are new (a solve plus a cache write).

use crate::common::{
    count_allocs, interleave, quantile, report_setup, timed_rebuilds, Lcg, OpSample,
    SETUP_MIN_SECS, SETUP_REBUILDS,
};
use crate::host::Yardstick;
use crate::layers::{self, HostCal};
use crate::report::Report;
use quake_mesh::{mesh_from_model, MeshingParams};
use quake_model::{ExtendedFault, LaBasinModel, PointSource};
use quake_serve::{
    run_scenario, CachedResult, EngineConfig, RequestKey, ResultCache, ScenarioRequest,
    ServeEngine, ServeScratch, Ticket,
};
use quake_solver::{ElasticConfig, ElasticSolver};
use quake_telemetry::Registry;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::time::Instant;

const EXTENT: f64 = 8_000.0;
const MAX_LEVEL: u8 = 5;
const DURATION: f64 = 1.0;
/// Time-step budget of every request.
const STEPS: u64 = 12;
const MODEL_SCALES: [f64; 2] = [1.0, 1.1];
const N_RECEIVERS: usize = 6;
/// Requests kept in flight by the client.
const OUTSTANDING: usize = 2;
/// The small serving meshes are cache-resident and slow down less than
/// the L3-sized yardstick: the slope of log raw rate on log yardstick rate
/// over ten 20 s runs was 0.47, and the exponent that minimised the
/// across-run spread of rate and latency was 0.5-0.6.
const ELASTICITY: f64 = 0.55;
/// The last `REPEATS` requests of every `CYCLE` repeat earlier ones (1 in
/// 4). With two requests outstanding a request's latency spans its own
/// service and the one before it; paired repeats keep most latencies in
/// the miss-after-miss mode, so the median does not sit on the boundary
/// between two modes.
const CYCLE: usize = 8;
const REPEATS: usize = 2;
/// Requests per measured block (one yardstick sweep between blocks); a
/// multiple of `CYCLE`, so every block has the same hit/miss mix.
const BLOCK: usize = 24;
/// At least this many requests per run.
const MIN_REQUESTS: usize = 200;

fn model() -> LaBasinModel {
    LaBasinModel::scaled(400.0, EXTENT)
}

fn meshing() -> MeshingParams {
    let mut m = MeshingParams::new(EXTENT, 0.4);
    m.min_level = 2;
    m.max_level = MAX_LEVEL;
    m
}

/// A scratch directory inside the working directory (the benchmark reads
/// and writes nowhere else), unique to this process and `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("PERFBENCH_TMP")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".perfbench_tmp"));
    base.join(format!("{tag}-{}", std::process::id()))
}

fn engine_config(cache: PathBuf) -> EngineConfig {
    let mut cfg = EngineConfig::new(meshing(), ElasticConfig::new(DURATION)).with_cache(cache, 0);
    cfg.model_scales = MODEL_SCALES.to_vec();
    cfg.workers = 1;
    cfg.queue_capacity = 4 * OUTSTANDING;
    cfg.max_receivers = N_RECEIVERS;
    cfg
}

/// The seeded request stream: each new request perturbs the rupture
/// (timing, rise, slip) and picks a model scale; a repeat re-sends a
/// seeded earlier request at least `OUTSTANDING` positions back, which the
/// closed loop guarantees has been answered (and cached).
struct RequestStream {
    rng: Lcg,
    receivers: Vec<[f64; 3]>,
    sent: Vec<ScenarioRequest>,
    repeats: u64,
}

impl RequestStream {
    fn new(seed: u64) -> RequestStream {
        let receivers = (0..N_RECEIVERS)
            .map(|i| {
                let t = (i as f64 + 0.5) / N_RECEIVERS as f64;
                [EXTENT * t, EXTENT * (0.25 + 0.5 * t), 0.0]
            })
            .collect();
        RequestStream { rng: Lcg::new(seed), receivers, sent: Vec::new(), repeats: 0 }
    }

    fn fresh(&mut self) -> ScenarioRequest {
        let mut sources: Vec<PointSource> = ExtendedFault::northridge_like(EXTENT).discretize(3, 2);
        let t0 = sources.iter().map(|s| s.slip.delay).fold(f64::INFINITY, f64::min);
        for s in &mut sources {
            s.slip.delay = s.slip.delay - t0 + self.rng.range(0.0, 0.02);
            s.slip.rise *= self.rng.range(0.8, 1.2);
            s.slip.amplitude *= self.rng.range(0.5, 1.5);
        }
        let scale = MODEL_SCALES[self.rng.below(MODEL_SCALES.len())];
        ScenarioRequest::new(sources, self.receivers.clone())
            .with_steps(STEPS)
            .with_model_scale(scale)
    }

    fn next_request(&mut self) -> ScenarioRequest {
        let n = self.sent.len();
        let r = if n % CYCLE >= CYCLE - REPEATS {
            self.repeats += 1;
            self.sent[self.rng.below(n + 1 - OUTSTANDING)].clone()
        } else {
            self.fresh()
        };
        self.sent.push(r.clone());
        r
    }
}

/// Per-run serving state: the miss results by key (for the hit check)
/// and counters.
#[derive(Default)]
struct Served {
    by_key: HashMap<RequestKey, CachedResult>,
    hits: u64,
    misses: u64,
    hit_mismatches: u64,
    lost: u64,
    refused: u64,
}

fn same_traces(a: &CachedResult, b: &CachedResult) -> bool {
    a.executed_steps == b.executed_steps
        && a.traces.len() == b.traces.len()
        && a.traces.iter().zip(&b.traces).all(|(x, y)| {
            x.data.len() == y.data.len()
                && x.data.iter().zip(&y.data).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Drive `count` requests through the closed loop; returns per-request
/// latencies (s) and the element updates delivered.
fn closed_loop(
    engine: &ServeEngine,
    stream: &mut RequestStream,
    served: &mut Served,
    count: usize,
) -> (Vec<f64>, f64) {
    let mut inflight: VecDeque<(Ticket, Instant)> = VecDeque::new();
    let mut latencies = Vec::with_capacity(count);
    let mut updates = 0.0;
    let mut submitted = 0;
    while submitted < count || !inflight.is_empty() {
        while submitted < count && inflight.len() < OUTSTANDING {
            let req = stream.next_request();
            let at = Instant::now();
            match engine.submit(req) {
                Ok(t) => inflight.push_back((t, at)),
                Err(_) => served.refused += 1,
            }
            submitted += 1;
        }
        let Some((ticket, at)) = inflight.pop_front() else { continue };
        match ticket.wait() {
            Ok(resp) => {
                latencies.push(at.elapsed().as_secs_f64());
                updates += resp.cost as f64;
                if resp.cache_hit {
                    served.hits += 1;
                    let same =
                        served.by_key.get(&resp.key).is_some_and(|w| same_traces(w, &resp.result));
                    if !same {
                        served.hit_mismatches += 1;
                    }
                } else {
                    served.misses += 1;
                    served.by_key.insert(resp.key, resp.result);
                }
            }
            Err(_) => served.lost += 1,
        }
    }
    (latencies, updates)
}

/// Start an engine on a fresh cache directory and wait until its worker
/// has built its solvers (one 1-step request per model scale).
fn start_engine(dir: PathBuf) -> (ServeEngine, f64) {
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let engine = ServeEngine::start(&model(), engine_config(dir)).expect("cache dir is writable");
    let start_s = t.elapsed().as_secs_f64();
    let mut stream = RequestStream::new(0);
    for &scale in &MODEL_SCALES {
        let warm = stream.fresh().with_steps(1).with_model_scale(scale);
        let ticket = engine.submit(warm).expect("an idle engine accepts the warm-up request");
        ticket.wait().expect("the warm-up request is answered");
    }
    (engine, start_s)
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: Option<&HostCal>,
    yard: &mut Yardstick,
    rep: &mut Report,
) {
    let dir = scratch_dir("serve");
    let mut start_s = Vec::new();
    let (raw_setup_s, ()) = timed_rebuilds(SETUP_REBUILDS, SETUP_MIN_SECS, || {
        let (engine, s) = start_engine(dir.join("setup"));
        start_s.push(s);
        engine.shutdown();
    });
    let _ = std::fs::remove_dir_all(dir.join("setup"));

    let (engine, _) = start_engine(dir.join("cache"));
    let v0 = &engine.variants()[0];
    rep.note(
        "elements_per_variant",
        format!("{:?}", engine.variants().iter().map(|v| v.n_elements).collect::<Vec<_>>()),
    );
    rep.note("steps_per_request", STEPS.min(v0.n_steps));
    let mut stream = RequestStream::new(seed);
    let mut served = Served::default();
    let mut block_latencies: Vec<Vec<f64>> = Vec::new();
    let min_blocks = MIN_REQUESTS.div_ceil(BLOCK);
    let measured = interleave(yard, seconds, min_blocks, ELASTICITY, || {
        let t = Instant::now();
        let (lat, updates) = closed_loop(&engine, &mut stream, &mut served, BLOCK);
        let secs = t.elapsed().as_secs_f64();
        let n = lat.len() as f64;
        block_latencies.push(lat);
        vec![OpSample { secs, elem_updates: updates, results: n }]
    });
    let requests = stream.sent.len() as u64;
    rep.ops_attempted += requests;
    rep.ops_failed += served.lost + served.refused + served.hit_mismatches;
    report_setup(rep, &raw_setup_s, &measured.yard_rates);
    rep.note("requests", requests);
    rep.note("repeats", stream.repeats);
    rep.check(
        "serve.hits_bit_identical",
        served.hit_mismatches == 0 && served.hits > 0,
        format!(
            "{} hits, {} differ from the miss that wrote them",
            served.hits, served.hit_mismatches
        ),
    );
    rep.check(
        "serve.every_request_answered",
        served.lost == 0 && served.refused == 0,
        format!("{} lost, {} refused of {requests}", served.lost, served.refused),
    );

    // Rates per block, latencies per request, each scaled by its block's
    // yardstick factor.
    rep.sampled("elem_updates_per_s", "1/s", &measured.scaled_eups());
    rep.sampled("requests_per_s", "1/s", &measured.scaled_rps());
    let mut ms = Vec::new();
    let mut raw_ms = Vec::new();
    for ((scale, _), lat) in measured.ops.iter().zip(&block_latencies) {
        ms.extend(lat.iter().map(|s| s * 1e3 / scale));
        raw_ms.extend(lat.iter().map(|s| s * 1e3));
    }
    rep.sampled("latency_p50_ms", "ms", &ms);
    rep.single("latency_p95_ms", "ms", quantile(&ms, 0.95));
    rep.sampled("raw.elem_updates_per_s", "1/s", &measured.raw_eups());
    rep.sampled("raw.requests_per_s", "1/s", &measured.raw_rps());
    rep.sampled("raw.latency_p50_ms", "ms", &raw_ms);
    rep.sampled("host.yardstick_eups", "1/s", &measured.yard_rates);

    if let Some(host) = trace {
        let n = 2 * BLOCK;
        let (_, allocs, _) = count_allocs(|| closed_loop(&engine, &mut stream, &mut served, n));
        engine.shutdown();
        engine_metrics(rep, &start_s, &served, allocs as f64 / n as f64);
        layer_metrics(rep, host, seed, &dir);
    } else {
        engine.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The solver layers on the baseline variant's mesh, then the serving
/// calls one by one.
fn layer_metrics(rep: &mut Report, host: &HostCal, seed: u64, dir: &std::path::Path) {
    let model = model();
    let (mesh_s, (tree, mesh)) = timed_rebuilds(3, 0.0, || mesh_from_model(&meshing(), &model));
    let solve_cfg = ElasticConfig::new(DURATION);
    let (new_s, _) = timed_rebuilds(3, 0.0, || ElasticSolver::new(&mesh, &solve_cfg).dt);
    let solver = ElasticSolver::new(&mesh, &solve_cfg);
    layers::mesh_metrics(rep, &mesh_s, &mesh);
    layers::solver_metrics(rep, &new_s, &solver);
    layers::step_metrics(rep, &solver, host, 200);
    let mut stream = RequestStream::new(seed ^ 0x5eed);
    let requests: Vec<ScenarioRequest> = (0..40).map(|_| stream.fresh()).collect();
    let receivers: Vec<u32> = stream.receivers.iter().map(|&p| mesh.nearest_node(p)).collect();
    let sources = quake_solver::assemble_point_sources(&mesh, &tree, &requests[0].sources);
    layers::harness_overhead(rep, &solver, &sources, &receivers, 3);
    layers::rategroup_metrics(rep, &solver);
    layers::exchange_probe(rep, &solver, 8);
    layers::global_step_allocs(rep, &solver, &receivers);
    serve_calls(rep, &solver, &tree, &requests, 8, dir);
}

/// `ScenarioRequest::key` over every request, then for the first `solves`
/// requests a direct `run_scenario`, a `ResultCache::put` and a
/// `ResultCache::get`, each timed; the read must return the written bits.
fn serve_calls(
    rep: &mut Report,
    solver: &ElasticSolver<'_>,
    tree: &quake_octree::LinearOctree,
    requests: &[ScenarioRequest],
    solves: usize,
    dir: &std::path::Path,
) {
    let key_us: Vec<f64> = requests
        .iter()
        .map(|r| {
            let t = Instant::now();
            std::hint::black_box(r.key(0x1234, STEPS));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    rep.sampled("serve.key_us", "us", &key_us);
    let cache_dir = dir.join("layer-cache");
    let cache = ResultCache::open(&cache_dir, 0).expect("cache dir is writable");
    let reg = Registry::disabled();
    let mut scratch = ServeScratch::for_solver(solver, N_RECEIVERS);
    let (mut solve_s, mut put_us, mut get_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0;
    for r in requests.iter().take(solves) {
        let t = Instant::now();
        let res = run_scenario(solver, tree, &r.sources, &r.receivers, r.n_steps, &mut scratch);
        solve_s.push(t.elapsed().as_secs_f64());
        let k = r.key(0x1234, STEPS);
        let t = Instant::now();
        let written = cache.put(&k, &res, &reg).is_ok();
        put_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let got = cache.get(&k, &reg);
        get_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !(written && got.is_some_and(|g| same_traces(&g, &res))) {
            mismatches += 1;
        }
    }
    rep.check(
        "cache.roundtrip_bit_identical",
        mismatches == 0,
        format!("{mismatches} of {solves} cache reads differ from the write"),
    );
    rep.sampled("serve.solve_s", "s", &solve_s);
    rep.sampled("cache.put_us", "us", &put_us);
    rep.sampled("cache.get_us", "us", &get_us);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Engine-level serving metrics of a short closed-loop session: start
/// time, hit ratio, refusals, allocations per request.
fn engine_metrics(rep: &mut Report, start_s: &[f64], served: &Served, allocs_per_request: f64) {
    rep.sampled("engine.start_s", "s", start_s);
    let total = (served.hits + served.misses).max(1);
    rep.single("cache.hit_ratio", "ratio", served.hits as f64 / total as f64);
    rep.single("serve.refused", "count", served.refused as f64);
    rep.single("alloc.per_request", "count", allocs_per_request);
}

/// Small fixed probe of the serving layers for the traced runs of other
/// workloads: a 16-request session on the same engine configuration and
/// four direct solves.
pub fn layer_probe(rep: &mut Report) {
    let dir = scratch_dir("serve-probe");
    let (engine, start_s) = start_engine(dir.join("cache"));
    let mut stream = RequestStream::new(7);
    let mut served = Served::default();
    let (_, allocs, _) = count_allocs(|| closed_loop(&engine, &mut stream, &mut served, 16));
    engine.shutdown();
    engine_metrics(rep, &[start_s], &served, allocs as f64 / 16.0);
    let model = model();
    let (tree, mesh) = mesh_from_model(&meshing(), &model);
    let solver = ElasticSolver::new(&mesh, &ElasticConfig::new(DURATION));
    let requests: Vec<ScenarioRequest> = (0..8).map(|_| stream.fresh()).collect();
    serve_calls(rep, &solver, &tree, &requests, 4, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}
