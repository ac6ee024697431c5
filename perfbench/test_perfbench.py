"""Self-tests of the benchmark, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import job  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import SWEEP, WORKLOADS, cli_argv, sweep_seeds  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench_main(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(argv)
    return status, out.getvalue().strip().splitlines()


@pytest.fixture
def tiny(monkeypatch):
    for name, wl in WORKLOADS.items():
        monkeypatch.setitem(run.WORKLOADS, name, wl.smoke())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_reports_every_metric_with_a_unit(tiny, name, trace):
    status, lines = bench_main(["--workload", name, "--seed", str(SEED),
                                "--seconds", "0", "--trace", str(trace)])
    result = json.loads(lines[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], json.loads(lines[-2])["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        assert NAME.fullmatch(entry["name"]) and UNIT.fullmatch(entry["unit"])
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_bundles_are_equal(name):
    wl = WORKLOADS[name].smoke()
    plain = run.run_sample(wl, SEED, False, "test-plain")
    traced = run.run_sample(wl, SEED, True, "test-traced")
    assert plain["ok"] and traced["ok"], plain["errors"] + traced["errors"]
    assert plain["sha256"] == traced["sha256"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bundle_equals_plain_cli_output(name, tmp_path):
    wl = WORKLOADS[name].smoke()
    if wl.kind == SWEEP:
        seeds = sweep_seeds(wl, SEED)
        argv = ["sweep", "--preset", wl.preset, "--policies", ",".join(wl.policies),
                "--seeds", f"{seeds[0]}-{seeds[-1]}", "--horizon", str(wl.horizon),
                "--outdir", str(tmp_path)]
    else:
        argv = cli_argv(wl, SEED, str(tmp_path))
    subprocess.run([sys.executable, "-m", "lacsim.cli", *argv], check=True,
                   capture_output=True, env={"PYTHONPATH": str(HERE.parent / "src")})
    sha = job.bundle_digest(str(tmp_path))[0]
    assert run.run_sample(wl, SEED, False, "test-cli")["sha256"] == sha


@pytest.mark.parametrize("traced", [False, True])
def test_untraced_job_runs_without_hot_wrappers(traced, tmp_path):
    import lacsim

    result = job.run_job(WORKLOADS["tree-lac"].smoke(), SEED, traced, str(tmp_path))
    # the job fails itself when the hot calls were (not) wrapped while it ran
    assert result["ok"], result["errors"]
    assert lacsim.netsim.heappush is heapq.heappush
    assert lacsim.netsim.heappop is heapq.heappop
    assert lacsim.netsim.sample_rank is lacsim.workload.sample_rank
    assert lacsim.netsim.next_interarrival is lacsim.workload.next_interarrival
    assert lacsim.netsim.decide_insertion is lacsim.cache.decide_insertion
    assert tracing.hot_patched(lacsim)[0] == []
    assert not hasattr(lacsim.netsim.Simulation.run, "__wrapped__")


def test_wrong_reference_fails_every_op(tiny, monkeypatch):
    wl = run.WORKLOADS["single-lac"]
    monkeypatch.setattr(run, "load_reference", lambda: {
        wl.name: {"spec": wl.spec(), "sha256": {str(SEED): "0" * 64}}})
    _, lines = bench_main(["--workload", wl.name, "--seed", str(SEED),
                           "--seconds", "0", "--trace", "0"])
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_seed_without_reference_warns(tiny, capsys):
    # smoke-size workloads have no recorded shas
    _, lines = bench_main(["--workload", "model-grid", "--seed", str(SEED),
                           "--seconds", "0", "--trace", "0"])
    assert json.loads(lines[-1])["correct"]
    assert json.loads(lines[-2])["reference_sha256"] is None
    assert "no model-grid bundle sha for seed 3" in capsys.readouterr().err


def test_failed_warm_up_is_reported_alone(tiny, monkeypatch):
    tags = []

    def failing(wl, seed, traced, tag):
        tags.append(tag)
        return {"ok": False, "errors": ["boom"], "ops": 2, "ops_failed": 2, "sha256": None}

    monkeypatch.setattr(run, "run_sample", failing)
    _, lines = bench_main(["--workload", "single-lac", "--seed", str(SEED),
                           "--seconds", "0", "--trace", "0"])
    assert json.loads(lines[-1]) == {"correct": False, "attempted": 2, "failed": 2,
                                     "metrics": {}}
    assert json.loads(lines[-2])["errors"] == ["warm-up: boom"]
    assert tags == ["warm"]


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "single-lac",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.describe(list(range(100)))["tail"] == {"pct": 90.0, "value": 89}
    assert run.describe([1.0] * 8 + [2.0])["tail"] is None
