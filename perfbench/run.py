#!/usr/bin/env python3
"""Paper-flow benchmark of snim.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (Release, telemetry and fault hooks on) into .bench_build/
of the checkout this file sits in, then runs the workload as fresh
snim_paperflow processes on one thread, back to back, until --seconds have
passed and at least MIN_RUNS runs are done.  Every run scores its results
against the reference CSVs at the checkout root; a set of runs whose work
signature or checks differ is refused.

--trace 0 prints the end-to-end metrics: medians over the runs.
--trace 1 alternates untraced and traced runs and prints per-layer metrics:
medians over the traced runs of each layer's self time, the work counts and
the tracing overhead (median traced wall time minus median untraced).

Every reported time is a median host time divided by the invocation's
slowdown: the median, over its processes, of a fixed probe's time (probe.hpp,
timed in each process right after the workload) over PROBE_REFERENCE_S.
The shared host drifts by tens of percent over minutes, the probe drifts
with it, and the scaled medians drift about a third as much.  The host
times and the probe of every process are printed too.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only when every check of every run passed.  --data-dir points the runs at
another set of reference CSVs (the self-test uses it to remove one).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "paperflow"
RUN_DIR = ROOT / ".bench_build" / "runs"
EXE = BUILD_DIR / "snim_paperflow"

WORKLOADS = ("small_signal", "vco_session", "ground_width")
# vco_session is the only workload that runs with the obs registry on.
REGISTRY_WORKLOADS = ("vco_session",)

MIN_RUNS = 4
# Probe time that defines the reference machine speed: about the median
# probe on the 4-core Xeon KVM the bounds in BENCHMARK.json were set on,
# so scaled times read close to host times there.
PROBE_REFERENCE_S = 0.04
# No new run starts once this much time has gone, so a run of this script
# ends well inside three minutes whatever --seconds says.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 150.0

END_TO_END = {  # name: (unit, better)
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy_margin_db": ("dB", "higher"),
    "pass_frac": ("ratio", "higher"),
}

# Span names recorded by snim_paperflow; each gives the layer metric
# "<span>_s", the summed self time of its spans.
LAYER_SPANS = (
    "testcases.build",
    "core.build_model",
    "substrate.extract",
    "interconnect.extract",
    "sim.op",
    "sim.ac",
    "rf.capture",
    "dsp.spectrum",
    "core.calibrate",
    "core.calibrate_paths",
    "core.predict",
    "core.simulate",
    "core.contribution",
    "bench.score",
)
ROOT_SPAN = "bench.workload"

PER_LAYER = {name + "_s": ("s", "lower") for name in LAYER_SPANS}
PER_LAYER.update({
    "core.builds": ("count", "lower"),
    "core.analyzer_calls": ("count", "lower"),
    "substrate.mesh_nodes": ("count", "lower"),
    "sim.op_calls": ("count", "lower"),
    "sim.ac_points": ("count", "lower"),
    "rf.sim_ns": ("ns", "lower"),
    "rf.sim_ns_per_s": ("ns/s", "higher"),
    "bench.unaccounted_s": ("s", "lower"),
    "bench.traced_wall_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
})

ANALYZER_CALLS = ("core.calibrate_calls", "core.calibrate_paths_calls",
                  "core.predict_calls", "core.simulate_calls",
                  "core.contribution_calls")


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"snim sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found on PATH")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_tool(cmd, "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_tool(["cmake", "--build", str(BUILD_DIR), "-j", jobs], "build")
    if not EXE.is_file():
        raise BenchError(f"build produced no {EXE}")


def run_tool(cmd, what):
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"{what} failed ({' '.join(cmd)})")
    elapsed = time.monotonic() - t0
    if elapsed > 5:
        log(f"{what} took {elapsed:.1f} s")


def child_env():
    # The snim SNIM_* switches (SNIM_THREADS, SNIM_OBS, SNIM_DATA_DIR, ...)
    # would change what a run measures; every run gets the library defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("SNIM_")}


def run_child(workload, seed, data_dir, trace_file):
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--data-dir", str(data_dir)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, cwd=RUN_DIR, env=child_env(), text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {CHILD_TIMEOUT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    if (proc.returncode == 0) != (record["failed"] == 0):
        raise BenchError(f"{workload}: exit code {proc.returncode} disagrees "
                         f"with {record['failed']} failed checks")
    if trace_file is not None:
        record["trace"] = json.loads(Path(trace_file).read_text())
    return record


def run_workload(workload, seed, seconds, traced, min_runs, data_dir):
    """Fresh processes until `seconds` have passed; alternates untraced and
    traced runs when `traced`, starting with a seed-chosen one."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    records = []
    t0 = time.monotonic()
    while True:
        i = len(records)
        trace_this = traced and (i + seed) % 2 == 1
        trace_file = RUN_DIR / f"{workload}.{seed}.{i}.trace.json" if trace_this else None
        records.append(run_child(workload, seed, data_dir, trace_file))
        elapsed = time.monotonic() - t0
        if len(records) >= min_runs and (elapsed >= seconds or elapsed > LAST_START_S):
            break
    return records


def signature(record):
    checks = [(c["name"], c["delta_db"], c["points"], c["pass"], c["error"])
              for c in record["checks"]]
    return record["work"], checks


def verify(workload, records):
    first = records[0]
    for r in records[1:]:
        if signature(r) != signature(first):
            raise BenchError(f"{workload}: runs disagree on the work signature or "
                             f"checks; refusing to report their timings together:\n"
                             f"  {signature(first)}\n  {signature(r)}")
    build = first["build"]
    if build["type"] not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"unoptimised build type {build['type']!r}")
    if not (build["obs"] and build["faults"]):
        raise BenchError("build has SNIM_ENABLE_OBS or SNIM_ENABLE_FAULTS off")
    for r in records:
        if r["peak_rss_mb"] <= 0:
            raise BenchError(f"{workload}: no peak RSS reading")
        if r["threads"] != 1:
            raise BenchError(f"{workload} ran on {r['threads']} threads, not 1")
        if r["registry"] != (workload in REGISTRY_WORKLOADS):
            raise BenchError(f"{workload}: registry is {'on' if r['registry'] else 'off'}")


def slowdown(records):
    """How much slower than the reference machine the host ran: the median
    probe over the processes.  One probe is short and noisy; its median over
    an invocation follows the drift that separates one invocation from the
    next."""
    return statistics.median(r["probe_s"] for r in records) / PROBE_REFERENCE_S


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def self_times(trace):
    """Per-name self time: each span minus the time its children cover."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end_s"] - s["start_s"]
    out = {}
    for s in spans:
        own = s["end_s"] - s["start_s"] - child_time[s["id"]]
        out[s["name"]] = out.get(s["name"], 0.0) + own
    unknown = set(out) - set(LAYER_SPANS) - {ROOT_SPAN}
    if unknown:
        raise BenchError(f"trace has spans this runner does not know: {sorted(unknown)}")
    return out


def end_to_end_metrics(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    margins = [r["accuracy_margin_db"] for r in records]
    sd = slowdown(records)
    return {
        "wall_s": median_of(records, "wall_s") / sd,
        "setup_s": median_of(records, "setup_s") / sd,
        "peak_rss_mb": median_of(records, "peak_rss_mb"),
        # No check was scored at all: a margin far below any tolerance.
        "accuracy_margin_db": min(m if m is not None else -1e9 for m in margins),
        "pass_frac": 1.0 - failed / attempted,
    }


def per_layer_metrics(records):
    traced = [r for r in records if "trace" in r]
    untraced = [r for r in records if "trace" not in r]
    selfs = [self_times(r["trace"]) for r in traced]
    sd = slowdown(records)
    work = traced[0]["work"]
    out = {f"{name}_s": statistics.median(s.get(name, 0.0) for s in selfs) / sd
           for name in LAYER_SPANS}
    out["core.builds"] = work["core.builds"]
    out["core.analyzer_calls"] = sum(work[k] for k in ANALYZER_CALLS)
    out["substrate.mesh_nodes"] = work["substrate.mesh_nodes"]
    out["sim.op_calls"] = work["sim.op_calls"]
    out["sim.ac_points"] = work["sim.ac_points"]
    out["rf.sim_ns"] = work["rf.sim_ns"]
    capture_s = out["rf.capture_s"]
    out["rf.sim_ns_per_s"] = work["rf.sim_ns"] / capture_s if capture_s else 0.0
    out["bench.unaccounted_s"] = statistics.median(s[ROOT_SPAN] for s in selfs) / sd
    traced_wall = median_of(traced, "wall_s") / sd
    out["bench.traced_wall_s"] = traced_wall
    out["bench.trace_overhead_s"] = traced_wall - median_of(untraced, "wall_s") / sd
    return out


def report(args, records, metrics, table):
    first = records[0]
    build = first["build"]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    traced = sum(1 for r in records if "trace" in r)
    print(f"workload {args.workload}  seed {args.seed}  runs {len(records)} "
          f"({traced} traced)  threads {first['threads']}  "
          f"registry {'on' if first['registry'] else 'off'}")
    print(f"build type {build['type']}  SNIM_ENABLE_OBS="
          f"{'ON' if build['obs'] else 'OFF'}  SNIM_ENABLE_FAULTS="
          f"{'ON' if build['faults'] else 'OFF'}  compiler {build['compiler']}")
    for c in first["checks"]:
        verdict = "pass" if c["pass"] else "FAIL"
        detail = c["error"] or (f"|delta| {c['delta_db']:.4f} dB <= "
                                f"{c['tolerance_db']:g} dB over {c['points']} points")
        print(f"  check {verdict}  {c['name']}: {detail}")
    print(f"  work {json.dumps(first['work'], sort_keys=True)}")
    for key in ("wall_s", "setup_s", "peak_rss_mb", "probe_s"):
        values = " ".join(f"{r[key]:.4f}{'t' if 'trace' in r else ''}" for r in records)
        print(f"  runs {key} {values}")
    print(f"  slowdown {slowdown(records):.4f} (median probe_s / {PROBE_REFERENCE_S} s)")
    print(f"  fail_frac {failed}/{attempted} = {failed / attempted:g} ratio (lower)")
    for name, (unit, better) in table.items():
        print(f"  metric {name} = {metrics[name]!r} {unit} ({better})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }
    print(json.dumps(result), flush=True)
    return failed == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--data-dir", type=Path, default=ROOT)
    ap.add_argument("--min-runs", type=int, default=MIN_RUNS,
                    help=f"runs at least this many processes (default {MIN_RUNS})")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.min_runs < 1 + args.trace:
        ap.error("--trace 1 needs --min-runs >= 2: one traced and one untraced run")
    try:
        build()
        records = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.min_runs,
                               args.data_dir.resolve())
        verify(args.workload, records)
        if args.trace:
            ok = report(args, records, per_layer_metrics(records), PER_LAYER)
        else:
            ok = report(args, records, end_to_end_metrics(records), END_TO_END)
    except BenchError as e:
        log(str(e))
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
