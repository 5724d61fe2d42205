#!/usr/bin/env python3
"""Self-test of the paper-flow benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced (one
process each, plus the untraced partner of the traced one) and checks:

* every end-to-end and per-layer metric of BENCHMARK.json is printed, in the
  result line with its unit and in the table with its unit and direction;
* the result line has exactly the keys correct, attempted, failed, metrics,
  and every check passes on this code;
* the traced layer times plus bench.score_s account for the traced wall
  time, the remainder being within the measured tracing overhead;
* the registry is on in vco_session only;
* a reference CSV removed from the data directory fails the run: a failed
  check, pass_frac below 1 and a non-zero exit code;
* runs that disagree on their work signature are refused;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Scratch files go under .bench_build/selftest/.  Exit code 0 means all passed.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build" / "selftest"

sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the runner under test)

failures = []


def expect(cond, what):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        failures.append(what)


def bench(workload, trace, min_runs, extra=()):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--min-runs", str(min_runs), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def check_metrics(lines, result, spec):
    expect(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
           "result line has exactly correct/attempted/failed/metrics")
    if result is None:
        return
    expect(set(result["metrics"]) == {m["name"] for m in spec},
           "result line carries exactly the BENCHMARK.json metrics")
    for m in spec:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
               f"{m['name']} = {got.get('value')} {got.get('unit')}")
        row = [l for l in lines if l.strip().startswith(f"metric {m['name']} = ")]
        expect(len(row) == 1 and row[0].endswith(f" {m['unit']} ({m['better']})"),
               f"{m['name']} printed with unit {m['unit']} and direction {m['better']}")


def test_workload(w, spec):
    name = w["name"]
    print(f"{name}, untraced:", flush=True)
    proc, lines = bench(name, 0, 1)
    result = result_of(lines)
    expect(proc.returncode == 0, f"exit code {proc.returncode}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
    check_metrics(lines, result, spec["end_to_end"])
    if result:
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{result['attempted']} checks attempted, {result['failed']} failed")
    registry = "registry on" in lines[0] if lines else None
    expect(registry == (name in run.REGISTRY_WORKLOADS),
           f"registry {'on' if registry else 'off'}")

    print(f"{name}, traced:", flush=True)
    proc, lines = bench(name, 1, 2)
    result = result_of(lines)
    expect(proc.returncode == 0, f"exit code {proc.returncode}")
    check_metrics(lines, result, spec["per_layer"])
    if result:
        v = {k: m["value"] for k, m in result["metrics"].items()}
        layers = sum(v[s + "_s"] for s in run.LAYER_SPANS)
        wall = v["bench.traced_wall_s"]
        rest = wall - layers
        # The root span opens just after and closes just before the wall clock.
        expect(abs(rest - v["bench.unaccounted_s"]) < 1e-3,
               f"layer self times {layers:.4f} s + unaccounted "
               f"{v['bench.unaccounted_s']:.4f} s = traced wall {wall:.4f} s")
        expect(rest <= max(abs(v["bench.trace_overhead_s"]), 1e-3 * wall),
               f"unaccounted {rest:.4f} s within the tracing overhead "
               f"{v['bench.trace_overhead_s']:.4f} s")


def test_missing_reference():
    print("small_signal with fig3_nmos_transfer.csv removed:", flush=True)
    refs = SCRATCH / "refs"
    shutil.rmtree(refs, ignore_errors=True)
    refs.mkdir(parents=True)
    for csv in ROOT.glob("*.csv"):
        if csv.name != "fig3_nmos_transfer.csv":
            shutil.copy(csv, refs / csv.name)
    proc, lines = bench("small_signal", 0, 1, ["--data-dir", str(refs)])
    result = result_of(lines)
    expect(proc.returncode != 0, f"non-zero exit code ({proc.returncode})")
    expect(result is not None and result["failed"] > 0 and not result["correct"],
           "the missing reference counts as a failed check")
    expect(result is not None and result["metrics"]["pass_frac"]["value"] < 1.0,
           "pass_frac drops below 1")
    counts = [re.search(r"fail_frac (\d+)/(\d+)", l) for l in lines]
    counts = [m for m in counts if m]
    expect(len(counts) == 1 and int(counts[0].group(1)) > 0,
           f"fail_frac rises above 0 ({counts[0].group(0) if counts else 'not printed'})")


def test_signature_guard():
    print("runs with different work signatures:", flush=True)
    base = {"work": {"core.builds": 2}, "checks": [], "build": {}}
    other = {"work": {"core.builds": 3}, "checks": [], "build": {}}
    try:
        run.verify("small_signal", [base, other])
        refused = False
    except run.BenchError:
        refused = True
    expect(refused, "refused")


def test_bare_directory():
    print("directory with only BENCHMARK.json and perfbench/:", flush=True)
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0, f"non-zero exit code ({proc.returncode})")
    expect(result_of(proc.stdout.strip().splitlines()) is None, "no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_signature_guard()
    test_bare_directory()
    for w in spec["workloads"]:
        test_workload(w, spec)
    test_missing_reference()
    if failures:
        print(f"{len(failures)} self-test check(s) failed")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
