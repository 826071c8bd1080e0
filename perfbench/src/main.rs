//! Steady, host-normalised benchmark of the quake workspace.
//!
//! ```text
//! quake-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks its outputs, prints the full
//! report as one JSON line (`{"report": ...}`) and then, as the last line,
//! the result object: `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! README.md for the workloads, the metric -> layer -> workload map and the
//! noise rules.

mod common;
mod forward;
mod host;
mod inversion;
mod layers;
mod lts;
mod report;
mod serve;

use common::{quantile, CountingAlloc, Interleaved};
use report::Report;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// End-to-end metrics, reported by every workload (BENCHMARK.json lists
/// the same names).
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "elem_updates_per_s",
    "requests_per_s",
    "latency_p50_ms",
    "latency_p95_ms",
];

pub const WORKLOADS: &[&str] = &["basin_forward", "coarse_lts", "serve_mixed", "basin_inversion"];

/// The end-to-end rate and latency metrics of a sequence of solve
/// operations (each op one result), scaled to the nominal host, plus their
/// raw values and the yardstick rate as per-layer metrics.
pub fn report_solve_metrics(rep: &mut Report, m: &Interleaved) {
    rep.sampled("elem_updates_per_s", "1/s", &m.scaled_eups());
    rep.sampled("requests_per_s", "1/s", &m.scaled_rps());
    let ms: Vec<f64> = m.scaled_secs().iter().map(|s| s * 1e3).collect();
    rep.sampled("latency_p50_ms", "ms", &ms);
    rep.single("latency_p95_ms", "ms", quantile(&ms, 0.95));
    rep.sampled("raw.elem_updates_per_s", "1/s", &m.raw_eups());
    rep.sampled("raw.requests_per_s", "1/s", &m.raw_rps());
    let raw_ms: Vec<f64> = m.raw_secs().iter().map(|s| s * 1e3).collect();
    rep.sampled("raw.latency_p50_ms", "ms", &raw_ms);
    rep.sampled("host.yardstick_eups", "1/s", &m.yard_rates);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let val = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val == "1",
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("quake-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = args.trace.then(layers::HostCal::measure);
    let mut yard = host::Yardstick::new();
    let mut rep = Report::default();
    match args.workload.as_str() {
        "basin_forward" => {
            forward::run(args.seed, args.seconds, host.as_ref(), &mut yard, &mut rep)
        }
        "coarse_lts" => lts::run(args.seed, args.seconds, host.as_ref(), &mut yard, &mut rep),
        "serve_mixed" => serve::run(args.seed, args.seconds, host.as_ref(), &mut yard, &mut rep),
        "basin_inversion" => {
            inversion::run(args.seed, args.seconds, host.as_ref(), &mut yard, &mut rep)
        }
        _ => unreachable!("validated in parse_args"),
    }
    rep.single("peak_rss_mb", "MB", host::peak_rss_mb());
    if let Some(h) = &host {
        rep.single("host.triad_gbs", "GB/s", h.triad_gbs);
        rep.note("triad_array_bytes", h.triad_array_bytes);
        rep.note("l3_bytes", host::L3_BYTES);
        rep.single("host.fma_gflops", "GFLOP/s", h.fma_gflops);
        layers::fill_missing(&mut rep, h);
    }
    let yard_rate =
        rep.metrics.iter().find(|m| m.name == "host.yardstick_eups").map_or(0.0, |m| m.value);
    let prov = host::provenance_json(yard_rate);
    println!("{}", rep.full_json(&args.workload, args.seed, args.trace, &prov));
    let names = if args.trace { layers::PER_LAYER } else { END_TO_END };
    let missing: Vec<&str> =
        names.iter().copied().filter(|n| !rep.metrics.iter().any(|m| m.name == *n)).collect();
    if !missing.is_empty() {
        eprintln!("quake-perfbench: metrics not measured: {missing:?}");
        std::process::exit(3);
    }
    println!("{}", rep.result_json(names));
}
