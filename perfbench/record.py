#!/usr/bin/env python3
"""Record the benchmark's reference shas and its baseline.

    python3 perfbench/record.py reference
        One untraced job per workload and seed of run.REFERENCE_SEEDS;
        writes perfbench/reference.json with each CSV bundle's sha256. Rerun
        it, and say so, only in a change that alters lacsim's output on
        purpose.

    python3 perfbench/record.py baseline
        Runs `run.py --trace 0` once per seed of BASELINE_SEEDS for each
        workload and writes perfbench/baseline.json: the median, quartiles
        and relative spread of every end-to-end metric, and the same for the
        unscaled times and the calibration loop's time. The spread is (q3 - q1) / median over the
        runs, the figure the metric's bound must exceed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import HERE, REFERENCE_SEEDS, ROOT, WORKLOADS, load_benchmark, run_sample

BASELINE_SEEDS = range(1, 11)


def record_reference():
    reference = {}
    for name, wl in WORKLOADS.items():
        shas = {}
        for seed in REFERENCE_SEEDS:
            result = run_sample(wl, seed, False, "ref")
            if not result["ok"]:
                sys.exit(f"{name} seed {seed}: {result['errors']}")
            shas[str(seed)] = result["sha256"]
            print(f"{name} seed {seed}: {result['sha256']}", flush=True)
        reference[name] = {"spec": wl.spec(), "sha256": shas}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True)
                                         + "\n")


def record_baseline():
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"recorded": time.strftime("%Y-%m-%d"), "runs": len(BASELINE_SEEDS),
              "seeds": f"{BASELINE_SEEDS[0]}-{BASELINE_SEEDS[-1]}",
              "run_seconds": bench["run_seconds"], "env": None, "workloads": {}}
    for name in WORKLOADS:
        values = {m: [] for m in bounds}
        extra = {}  # unscaled times and calibration loop, from the details line
        for seed in BASELINE_SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed} failed: {proc.stdout[-2000:]}")
            record["env"] = {k: v for k, v in details["env"].items() if k != "seed"}
            for metric, stat in details["stats"].items():
                if metric not in bounds:
                    extra.setdefault(metric, []).append(stat["median"])
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        table = {}
        for metric, xs in [*values.items(), *extra.items()]:
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread, bound = (q3 - q1) / median, bounds.get(metric)
            table[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "values": xs}
            flag = "  <-- above bound/3" if bound and spread >= bound / 3 else ""
            print(f"  {metric:16s} median {median:.6g} spread {spread:.4f}"
                  f" (bound {bound}){flag}", flush=True)
        record["workloads"][name] = table
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("reference", "baseline"))
    if parser.parse_args().what == "reference":
        record_reference()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
