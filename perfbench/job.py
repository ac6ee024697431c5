"""One benchmark job: a workload's whole job in a fresh process.

Usage: python3 perfbench/job.py '<json>' with keys workload (a Workload spec),
seed, trace (bool) and outdir. lacsim must be importable (PYTHONPATH=src).
Prints one JSON object as the last line of standard output.

The clock starts before `import lacsim` and stops when the last output file
is closed. Output checks run off the clock: after each simulation run and
each solve_tau call (see tracing.Recorder.checking), and on the written
bundle once the clock has stopped.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import EVENT_KINDS, Recorder, hot_patched  # noqa: E402
from workloads import (MODEL, SIM, SWEEP, Workload, cli_argv,  # noqa: E402
                       sweep_seeds)

SUMMARY_HEADER = ["policy", "mean_delivery", "stddev_delivery", "overall_miss",
                  "mean_decision_prob"]
SWEEP_HEADER = ["name", "policy_label", "seed", "requests", "elapsed",
                "mean_delivery", "stddev_delivery", "overall_miss"]
MODEL_MAX_RANK = 100  # `lacsim model` default --max-rank
SOLVE_REL_TOL = 1e-6  # residual tolerance that analytics.solve_tau promises


class Checker:
    """Output checks on each run and solve; an op passes when all of its
    checks hold."""

    def __init__(self, wl: Workload, rec: Recorder):
        self.wl = wl
        self.rec = rec
        self.errors = []
        self.passed = 0
        self.requests = 0
        self.solves = 0
        self.iterations = 0
        self._tx_seen = 0

    def fail(self, message: str):
        if len(self.errors) < 20:
            self.errors.append(message)

    def after_run(self, args, kwargs, report):
        sim = args[0]
        expected = self.wl.requests_per_run()
        errors = []
        if not report.user_requests == report.deliveries == expected:
            errors.append(f"requests={report.user_requests} deliveries="
                          f"{report.deliveries}, expected {expected}")
        for ls in report.links:
            rho = ls.busy_seconds / report.elapsed if report.elapsed > 0 else math.nan
            if not 0.0 < rho <= 1.0:
                errors.append(f"link {ls.label} rho={rho!r}")
        if not all(done > issued for issued, done in
                   zip(report.delivery_issued, report.delivery_completed)):
            errors.append("a delivery has a non-positive duration")
        if self.rec.traced:
            calls = self.rec.stat("netsim.Link.transmit_packet")[0]
            sent = (calls - self._tx_seen) * sim.config.packet_size_bytes
            self._tx_seen = calls
            carried = sum(ls.bytes for ls in report.links)
            if sent != carried:
                errors.append(f"transmit_packet saw {sent} bytes, links carried {carried}")
        self.requests += report.user_requests
        self._settle(f"run seed={report.seed} {report.policy_label}", errors)

    def after_solve(self, args, kwargs, sol):
        import numpy as np

        x, rate, popularity = args[:3]
        mean_p = args[3] if len(args) > 3 else kwargs.get("mean_p", 1.0)
        weights = np.asarray(getattr(popularity, "weights", popularity), dtype=np.float64)
        e = np.exp(-rate * weights * sol.tau)
        occupancy = float(np.sum(1.0 - e / (1.0 - (1.0 - e) * (1.0 - mean_p))))
        errors = []
        if not (math.isfinite(sol.tau) and sol.tau > 0.0):
            errors.append(f"tau={sol.tau!r}")
        if not abs(occupancy - x) <= SOLVE_REL_TOL * x:
            errors.append(f"occupancy {occupancy!r} at tau={sol.tau!r}, x={x}")
        self.solves += 1
        self.iterations += sol.iterations
        self._settle(f"solve_tau mean_p={mean_p!r}", errors)

    def _settle(self, what: str, errors: list):
        if errors:
            self.fail(f"{what}: {'; '.join(errors)}")
        else:
            self.passed += 1


def bundle_digest(outdir: str):
    """sha256 over the sorted file names and contents, lines per file, and
    total bytes."""
    digest = hashlib.sha256()
    lines, size = {}, 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        lines[name] = data.count(b"\n")
        size += len(data)
    return digest.hexdigest(), lines, size


def _rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def check_bundle(wl: Workload, outdir: str, lines: dict) -> list:
    """Checks on the written files. Returns error messages."""
    errors = []
    if wl.kind == SIM:
        want = {"delivery.csv", "links.csv", "miss_prob.csv", "summary.csv"}
        if set(lines) != want:
            return [f"bundle holds {sorted(lines)}"]
        rows = _rows(os.path.join(outdir, "summary.csv"))
        if len(rows) != 2 or rows[0] != SUMMARY_HEADER or len(rows[1]) != 5:
            return [f"summary.csv does not parse: {rows!r}"]
        values = [float(v) for v in rows[1][1:]]
        if not all(math.isfinite(v) for v in values) or values[0] <= 0.0:
            errors.append(f"summary.csv values {values!r}")
        if lines["delivery.csv"] != wl.requests_per_run() + 2:
            errors.append(f"delivery.csv has {lines['delivery.csv']} lines")
    elif wl.kind == SWEEP:
        rows = _rows(os.path.join(outdir, "sweep.csv"))
        if not rows or rows[0] != SWEEP_HEADER or len(rows) != wl.ops_per_job() + 1:
            return [f"sweep.csv does not parse: {len(rows)} rows"]
        for row in rows[1:]:
            if len(row) != len(SWEEP_HEADER) or int(row[3]) != wl.requests_per_run():
                errors.append(f"sweep.csv row {row!r}")
    else:
        want = {"model_curves.csv": wl.grid_points * MODEL_MAX_RANK + 1,
                "model_sym.csv": MODEL_MAX_RANK + 1,
                "model_eta.csv": wl.grid_points * wl.epsilons + 1}
        if lines != want:
            errors.append(f"model bundle lines {lines}, expected {want}")
    return errors


def execute(lacsim, wl: Workload, seed: int, outdir: str):
    if wl.kind == SWEEP:
        rows = lacsim.harness.run_matrix(wl.preset, list(wl.policies),
                                         sweep_seeds(wl, seed), wl.horizon)
        # the file `lacsim sweep` writes
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "sweep.csv"), "w") as fh:
            fh.write(",".join(lacsim.harness.RunSummary.CSV_FIELDS) + "\n")
            for row in rows:
                fh.write(row.csv_row() + "\n")
        return 0
    return lacsim.cli.main(cli_argv(wl, seed, outdir))


def layer_metrics(rec: Recorder, chk: Checker, bundle_lines: dict, bundle_bytes: int,
                  import_s: float, wall: float) -> dict:
    def stat(name):
        return rec.stats.get(name, [0, 0.0, 0.0])

    def per(num, den):
        return num / den if den else 0.0

    requests = chk.requests
    tx, run = stat("netsim.Link.transmit_packet"), stat("netsim.Simulation.run")
    lookup, decide = stat("cache.LruCache.lookup"), stat("cache.decide_insertion")
    summaries = stat("harness.run_summary")
    solve, export = stat("analytics.solve_tau"), stat("metrics.export_csv")
    out = {
        "netsim.Link.transmit_packet.calls": tx[0],
        "netsim.Link.transmit_packet.s": tx[1],
        "netsim.Link.transmit_packet.per_request": per(tx[0], requests),
        "netsim.heap.push.s": stat("netsim.heap.push")[1],
        "netsim.heap.pop.s": stat("netsim.heap.pop")[1],
        "netsim.heap.peak": rec.heap_peak[0],
        "netsim.events_per_request": per(sum(rec.events), requests),
        "netsim.Simulation.run.s": run[1],
        "netsim.Simulation.run.self_s": run[1] - run[2],
        "netsim.Simulation.init.s": stat("netsim.Simulation.init")[1],
        "netsim.requests": requests,
        "cache.LruCache.lookup.calls": lookup[0],
        "cache.LruCache.lookup.s": lookup[1],
        "cache.LruCache.lookup.hit_ratio": per(rec.lookup_hits[0], lookup[0]),
        "cache.LruCache.insert.calls": stat("cache.LruCache.insert")[0],
        "cache.LruCache.insert.s": stat("cache.LruCache.insert")[1],
        "cache.decide_insertion.calls": decide[0],
        "cache.decide_insertion.s": decide[1],
        "cache.decide_insertion.accept_ratio": per(rec.decisions[0], decide[0]),
        "cache.decide_insertion.mean_prob": per(rec.decisions[1], decide[0]),
        "cache.LatencyEstimator.calls": stat("cache.LatencyEstimator")[0],
        "cache.LatencyEstimator.s": stat("cache.LatencyEstimator")[1],
        "workload.sample_rank.calls": stat("workload.sample_rank")[0],
        "workload.sample_rank.s": stat("workload.sample_rank")[1],
        "workload.next_interarrival.calls": stat("workload.next_interarrival")[0],
        "workload.next_interarrival.s": stat("workload.next_interarrival")[1],
        "workload.draws": rec.counts.get("workload.draws", 0),
        "workload.zipf_weights.s": stat("workload.zipf_weights")[1],
        "metrics.export_csv.s": export[1],
        "metrics.export_csv.bytes": bundle_bytes if export[0] else 0,
        "metrics.delivery_rows": max(bundle_lines.get("delivery.csv", 2) - 2, 0),
        "harness.run_matrix.s": stat("harness.run_matrix")[1],
        "harness.run_summary.s": per(summaries[1], summaries[0]),
        "harness.summarize.s": stat("harness.summarize")[1],
        "harness.runs": summaries[0],
        "analytics.solve_tau.calls": solve[0],
        "analytics.solve_tau.s": solve[1],
        "analytics.solve_tau.iterations": chk.iterations,
        "analytics.fig1_grid.s": stat("analytics.fig1_grid")[1],
        "analytics.miss_asym.calls": rec.counts.get("analytics.miss_asym", 0),
        "cli.import_s": import_s,
        "trace.wall_s": wall,
    }
    for kind, count in zip(EVENT_KINDS, rec.events):
        out[f"netsim.events.{kind}"] = count
    return out


def run_job(wl: Workload, seed: int, traced: bool, outdir: str) -> dict:
    """Run one job in this process and return its measurements."""
    rec = Recorder(traced)
    t0 = rec.now()
    import lacsim.cli
    import_s = rec.now() - t0
    rec.span("cli.import", t0, t0 + import_s)
    chk = Checker(wl, rec)
    rec.install(lacsim, after_run=chk.after_run, after_solve=chk.after_solve)
    try:
        try:
            status = execute(lacsim, wl, seed, outdir)
        except Exception as exc:  # a failed op is reported, not fatal
            status = "".join(traceback.format_exception(exc, limit=-2))
        t_end = rec.now()
        patched, hot_total = hot_patched(lacsim)
    finally:
        rec.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # failures of the job or its bundle fail every op of the job
    job_errors = []
    if status != 0:
        job_errors.append(f"job ended with {status}")
    if len(patched) != (hot_total if traced else 0):
        job_errors.append(f"hot calls wrapped: {patched}")
    sha, lines, size = bundle_digest(outdir) if os.path.isdir(outdir) else (None, {}, 0)
    if sha is None:
        job_errors.append("no output directory")
    else:
        job_errors += check_bundle(wl, outdir, lines)
    ops = wl.ops_per_job()
    passed = 0 if job_errors else min(chk.passed, ops)
    if wl.kind == MODEL:
        setup_end = rec.first_end("workload.zipf_weights")
        busy, work = rec.stat("analytics.solve_tau")[1], chk.solves
    else:
        setup_end = rec.first_end("netsim.Simulation.init")
        busy, work = rec.stat("netsim.Simulation.run")[1], chk.requests
    result = {
        "ok": passed == ops,
        "errors": job_errors + chk.errors,
        "ops": ops,
        "ops_failed": ops - passed,
        "wall_s": t_end - t0,
        "setup_s": (setup_end - t0) if setup_end is not None else None,
        "busy_s": busy,
        "work": work,
        "peak_rss_mb": peak_rss_mb,
        "sha256": sha,
        "numpy": sys.modules["numpy"].__version__,
        "lacsim_file": lacsim.__file__,
    }
    if traced:
        result["layers"] = layer_metrics(rec, chk, lines, size, import_s, t_end - t0)
        result["spans"] = rec.spans
    return result


def main():
    job = json.loads(sys.argv[1])
    spec = dict(job["workload"], policies=tuple(job["workload"]["policies"]))
    result = run_job(Workload(**spec), job["seed"], job["trace"], job["outdir"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
