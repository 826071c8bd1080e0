#!/usr/bin/env python3
"""Build and run the quake benchmark, or compare two sets of its reports.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload basin_forward --seed 1 --seconds 20 --trace 0

builds `perfbench/` with cargo (release, offline, target dir
`$CARGO_TARGET_DIR` or `.bench_build`), runs the benchmark binary and passes
its output through: a full JSON report line, then the one-line result.

Compare reports (files holding captured output of one or more runs):

    python3 perfbench/run.py compare base1.txt base2.txt --vs new1.txt new2.txt

prints, per workload and metric, each side's median and spread and the
relative delta; a metric whose spread exceeds its bound in BENCHMARK.json is
marked "unresolved".
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", BENCH_DIR):
        if top.is_dir():
            files += [p for p in top.rglob("*") if p.is_file() and "target" not in p.parts]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(argv):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"no quake workspace at {ROOT}; nothing to benchmark")
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), CARGO_NET_OFFLINE="true")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    try:
        res = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1
    if res.returncode != 0:
        log("build failed")
        return 1
    binary = target / "release" / "quake-perfbench"
    tmp = target / "perfbench-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    git = ROOT / ".git"
    env.update(
        PERFBENCH_COMMIT=capture(["git", "rev-parse", "HEAD"]) if git.exists() else "unknown",
        PERFBENCH_RUSTC=capture(["rustc", "--version"]),
        PERFBENCH_SOURCE_DIGEST=source_digest(),
        PERFBENCH_TMP=str(tmp),
    )
    try:
        res = subprocess.run([str(binary)] + argv, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    except OSError as e:
        log(f"cannot run {binary}: {e}")
        return 1
    return res.returncode


def read_reports(paths):
    """All `{"report": ...}` lines in the given files."""
    reports = []
    for p in paths:
        for line in Path(p).read_text().splitlines():
            if line.startswith('{"report"'):
                reports.append(json.loads(line)["report"])
    return reports


def summarize(reports):
    """(workload, trace) -> metric -> (median, spread, unit, runs)."""
    grouped = {}
    for r in reports:
        key = (r["workload"], r["trace"])
        for name, m in r["metrics"].items():
            grouped.setdefault(key, {}).setdefault(name, []).append(m)
    out = {}
    for key, metrics in grouped.items():
        for name, ms in metrics.items():
            values = [m["value"] for m in ms if m["value"] is not None]
            if not values:
                continue
            med = statistics.median(values)
            if len(values) >= 2 and med:
                q = statistics.quantiles(values, n=4) if len(values) >= 2 else [med, med, med]
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = ms[0]["spread"] or 0.0
            out.setdefault(key, {})[name] = (med, spread, ms[0]["unit"], len(values))
    return out


def compare(argv):
    if "--vs" not in argv:
        log("usage: run.py compare A... --vs B...")
        return 2
    i = argv.index("--vs")
    a, b = summarize(read_reports(argv[:i])), summarize(read_reports(argv[i + 1:]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    for key in sorted(set(a) & set(b)):
        print(f"\n== {key[0]} ({'traced' if key[1] else 'untraced'}) ==")
        print(f"{'metric':30s} {'A median':>12s} {'A spread':>9s} {'B median':>12s} "
              f"{'B spread':>9s} {'delta':>8s}  verdict")
        for name in sorted(set(a[key]) & set(b[key])):
            ma, sa, unit, _ = a[key][name]
            mb, sb, _, _ = b[key][name]
            delta = (mb - ma) / abs(ma) if ma else 0.0
            bound, direction = bounds.get(name, (None, better.get(name)))
            worse = -delta if direction == "higher" else delta
            if bound is None:
                verdict = "no bound"
            elif max(sa, sb) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "WORSE"
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{name:30s} {ma:12.5g} {sa:9.3f} {mb:12.5g} {sb:9.3f} {delta:+8.3f}  "
                  f"{verdict} [{unit}]")
    return 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    return run_workload(argv)


if __name__ == "__main__":
    sys.exit(main())
