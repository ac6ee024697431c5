#!/usr/bin/env python3
"""lacsim benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout (it finds src/lacsim next to this
directory). Every sample is a fresh process (perfbench/job.py) that does the
workload's whole job; samples repeat until --seconds have passed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the median
over the samples, with times scaled to a reference host speed (see
calibrate). --trace 1 alternates traced and untraced samples and reports
the per-layer metrics, the tracing overhead among them. Both check every
output (see job.py) and compare the CSV bundle's sha256 with
perfbench/reference.json, which holds seeds 0-31; for other seeds they warn
on standard error and only check that the samples agree. Details
(quartiles, tail percentile, sample count, unscaled times, the calibration
loop's times, environment, shas) go to the second-to-last line of standard
output; the last line is the result object. Spans of one traced sample are written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

DEFAULT_SEED = 1
JOB_TIMEOUT_S = 90
DEADLINE_S = 150       # start no sample that could end past this
MIN_UNTRACED = 3       # samples per --trace 0 run
MIN_TRACED = 2         # traced samples per --trace 1 run, so counts can be compared
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CAL_EVENTS = 60_000    # heap events of the calibration loop
CAL_REF_S = 0.0449     # loop time of the reference host speed (see calibrate)
REFERENCE_SEEDS = range(32)  # seeds whose bundle shas reference.json records


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} is missing")
    if not (ROOT / "src" / "lacsim" / "__init__.py").is_file():
        raise SetupError(f"no lacsim sources under {ROOT / 'src'}")
    return json.loads(path.read_text())


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def reference_sha(reference: dict, wl: Workload, seed: int):
    """The recorded bundle sha for this seed, if the reference was recorded
    for exactly this workload definition."""
    entry = reference.get(wl.name)
    if not entry or entry["spec"] != wl.spec():
        return None
    return entry["sha256"].get(str(seed))


# -- samples ------------------------------------------------------------------


def run_sample(wl: Workload, seed: int, traced: bool, tag: str) -> dict:
    """One job in a fresh process; its outputs are deleted afterwards."""
    outdir = OUT / f"{wl.name}-s{seed}-{os.getpid()}-{tag}"
    job = {"workload": wl.spec(), "seed": seed, "trace": traced, "outdir": str(outdir)}
    # lacsim makes no BLAS calls; numpy's OpenBLAS would start a thread per
    # CPU at import, which adds a variable 0-150 ms to setup_s on 2 vCPUs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "job.py"), json.dumps(job)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        problem = proc.stderr.strip().splitlines()[-3:] if result is None else None
    except subprocess.TimeoutExpired:
        result, problem = None, [f"job timed out after {JOB_TIMEOUT_S} s"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if result is None:
        ops = wl.ops_per_job()
        return {"ok": False, "errors": problem or ["job printed no result"], "ops": ops,
                "ops_failed": ops, "sha256": None}
    if not Path(result["lacsim_file"]).resolve().is_relative_to(ROOT / "src"):
        result["ok"] = False
        result["errors"].append(f"imported lacsim from {result['lacsim_file']}")
        result["ops_failed"] = result["ops"]
    return result


def sample_for(wl: Workload, seed: int, seconds: float, traced_run: bool) -> tuple:
    """(traced, result) pairs: samples until `seconds` have passed and each
    kind has its minimum count. A traced run alternates traced and untraced.
    Also the calibration loop's times, one before each sample and one after
    the last."""
    samples, calibration = [], [calibrate()]
    start = time.perf_counter()
    longest = 0.0
    for i in itertools.count():
        traced = traced_run and i % 2 == 0
        t0 = time.perf_counter()
        samples.append((traced, run_sample(wl, seed, traced, str(i))))
        longest = max(longest, time.perf_counter() - t0)
        calibration.append(calibrate())
        elapsed = time.perf_counter() - start
        n_traced = sum(1 for t, _ in samples if t)
        n_plain = len(samples) - n_traced
        enough = (n_traced >= MIN_TRACED and n_plain >= 1 if traced_run
                  else n_plain >= MIN_UNTRACED)
        if enough and elapsed >= seconds or elapsed + longest > DEADLINE_S:
            break
    return samples, calibration


def calibrate() -> float:
    """Seconds for a fixed loop, best of two: a gauge of the host's speed.

    The hosts this benchmark runs on drift in speed by up to +-30% over
    seconds to minutes, on all vCPUs at once, so a run's median host time
    depends on when it ran. A run's times are therefore scaled by CAL_REF_S
    over the median of this loop's times, taken between its samples:
    reported times are seconds at the speed where the loop takes CAL_REF_S,
    about its median over a calm stretch on a 2-vCPU Xeon VM. The loop runs
    in this process, which never imports lacsim, so only the host moves it,
    not the code under test. It does what the simulator's event loop does
    most: heap pushes and pops of tuples, dict updates, list appends and
    float arithmetic.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        rng = random.Random(5)
        heap, totals, out = [], {}, []
        for i in range(CAL_EVENTS):
            heapq.heappush(heap, (rng.random(), i, 1))
            if len(heap) > 64:
                event = heapq.heappop(heap)
                key = i % 97
                totals[key] = totals.get(key, 0.0) + event[0] * 1.5
                out.append(event[0])
                if len(out) == 256:
                    out.clear()
        best = min(best, time.perf_counter() - t0)
    return best


# -- statistics ---------------------------------------------------------------


def describe(values: list) -> dict:
    """Median, quartiles, and the highest percentile of TAIL_LADDER with at
    least ten samples beyond it (None when there are too few samples)."""
    xs = sorted(values)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (xs[0], None, xs[0])
    tail = None
    for pct in TAIL_LADDER:
        value = xs[max(0, math.ceil(pct * n / 100) - 1)]  # nearest rank
        if sum(1 for x in xs if x > value) >= 10:
            tail = {"pct": pct, "value": value}
            break
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "tail": tail, "n": n}


def end_to_end(results: list, scale: float) -> dict:
    """name -> samples of each end-to-end metric, times multiplied by
    `scale` (see calibrate); raw.<name> in host seconds."""
    ok = [r for r in results if r.get("wall_s") is not None]
    raw = {
        "wall_s": [r["wall_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok if r["setup_s"] is not None],
        "requests_per_s": [r["work"] / r["busy_s"] for r in ok if r["busy_s"] > 0],
    }
    out = {f"raw.{name}": xs for name, xs in raw.items()}
    out["wall_s"] = [x * scale for x in raw["wall_s"]]
    out["setup_s"] = [x * scale for x in raw["setup_s"]]
    out["requests_per_s"] = [x / scale for x in raw["requests_per_s"]]
    out["peak_rss_mb"] = [r["peak_rss_mb"] for r in ok]
    return out


def per_layer(samples: list, errors: list, scale: float) -> dict:
    """name -> samples of each per-layer metric, times multiplied by `scale`
    like the end-to-end ones. Counts must repeat exactly."""
    traced = [r for t, r in samples if t and "layers" in r]
    plain = [r["wall_s"] * scale for t, r in samples
             if not t and r.get("wall_s") is not None]
    values = {name: [r["layers"][name] * (scale if is_timing(name) else 1)
                     for r in traced] for name in traced[0]["layers"]} if traced else {}
    for name, xs in values.items():
        if not is_timing(name) and len(set(xs)) > 1:
            errors.append(f"{name} differs between traced runs of one seed: {xs}")
    if traced and plain:
        values["trace.untraced_wall_s"] = plain
        values["trace.overhead"] = [statistics.median(values["trace.wall_s"])
                                    / statistics.median(plain)]
    return values


def is_timing(name: str) -> bool:
    return name.endswith((".s", "_s")) or name.startswith("trace.")


# -- environment --------------------------------------------------------------


def environment(seed: int, samples: list) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lacsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for _, r in samples if "numpy" in r), None),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit():
    """HEAD's commit id when the checkout itself is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
    except (SetupError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    traced_run = bool(args.trace)
    wanted = bench["per_layer" if traced_run else "end_to_end"]

    warm = run_sample(wl.smoke(), args.seed, False, "warm")  # bytecode and page cache
    if not warm["ok"]:
        # a smoke-size job failed: report it alone, measure nothing
        errors = [f"warm-up: {e}" for e in warm["errors"]]
        report({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                "samples": 0, "errors": errors, "env": environment(args.seed, [(False, warm)])},
               {"correct": False, "attempted": warm["ops"], "failed": warm["ops_failed"],
                "metrics": {}})
        return 0

    samples, calibration = sample_for(wl, args.seed, seconds, traced_run)
    results = [r for _, r in samples]
    errors = [f"sample {i}: {e}" for i, r in enumerate(results) for e in r["errors"]]

    expected = reference_sha(load_reference(), wl, args.seed)
    if expected is None:
        print(f"warning: perfbench/reference.json has no {wl.name} bundle sha for seed "
              f"{args.seed}; the samples are only checked against each other. Claims "
              f"that output did not change need a recorded seed "
              f"({REFERENCE_SEEDS[0]}-{REFERENCE_SEEDS[-1]}).",
              file=sys.stderr)
    shas = {r["sha256"] for r in results}
    want = expected or results[0]["sha256"]  # without a reference: self-consistency
    for r in results:
        if r["sha256"] != want:
            r["ops_failed"] = r["ops"]
            errors.append(f"bundle sha {r['sha256']} differs from {want}")

    scale = CAL_REF_S / statistics.median(calibration)
    values = (per_layer(samples, errors, scale) if traced_run
              else end_to_end(results, scale))
    values["calibration_s"] = calibration
    metrics = {}
    stats = {name: describe(xs) for name, xs in values.items() if xs}
    for entry in wanted:
        name = entry["name"]
        if name not in stats:
            errors.append(f"metric {name} was not measured")
            continue
        exact = traced_run and not is_timing(name)  # a count, equal in every sample
        metrics[name] = {"value": values[name][0] if exact else stats[name]["median"],
                         "unit": entry["unit"]}

    attempted = sum(r["ops"] for r in results)
    failed = sum(r["ops_failed"] for r in results)
    spans = next((r["spans"] for t, r in samples if t and "spans" in r), None)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{wl.name}-s{args.seed}.json").write_text(json.dumps(spans))
    report({"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "samples": len(results), "scale": scale, "stats": stats,
            "sha256": sorted(s for s in shas if s), "reference_sha256": expected,
            "errors": errors, "env": environment(args.seed, samples)},
           {"correct": not errors and failed == 0 and len(metrics) == len(wanted),
            "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0


def report(details: dict, result: dict):
    """The details line, then the result line last."""
    print(json.dumps(details))
    print(json.dumps(result))

if __name__ == "__main__":
    sys.exit(main())
