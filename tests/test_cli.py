"""Command line behavior: flags, exit codes, output files."""

import math
import os

import pytest
import yaml

from lacsim.cli import main

MINI_SCENARIO = {
    "name": "mini",
    "catalog_size": 40,
    "zipf_alpha": 1.7,
    "request_rate_per_user": 1.0,
    "object_size_bytes": 10_000,
    "packet_size_bytes": 10_000,
    "requests_per_user": 80,
    "policy": "lru",
    "nodes": [
        {"id": 1, "kind": "user"},
        {"id": 2, "kind": "cache", "cache_capacity_objects": 4},
        {"id": 3, "kind": "repository"},
    ],
    "links": [
        {"down": 1, "up": 2, "capacity_bps": 200_000},
        {"down": 2, "up": 3, "capacity_bps": 30_000},
    ],
}

CSV_BUNDLE = ("miss_prob.csv", "delivery.csv", "links.csv", "summary.csv")


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["sim", "--policy", "lcp:zz", "--horizon", "10"]) == 1
    assert main(["sim", "--preset", "bogus"]) == 1
    assert main(["sim", "--config", str(tmp_path / "missing.yaml")]) == 1
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    bad = tmp_path / "broken.yaml"
    bad.write_text("nodes: [oops\n")
    assert main(["sim", "--config", str(bad)]) == 1
    capsys.readouterr()


def test_help_and_version_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "sim" in out and "compare" in out


def test_sim_writes_csv_bundle(tmp_path, capsys):
    outdir = tmp_path / "run"
    code = main(["sim", "--preset", "single", "--horizon", "300",
                 "--outdir", str(outdir)])
    assert code == 0
    for name in CSV_BUNDLE:
        assert (outdir / name).is_file()
    out = capsys.readouterr().out
    assert "policy=lru" in out
    assert "rho=" in out


def test_sim_single_request_yields_one_delivery(tmp_path):
    outdir = tmp_path / "one"
    code = main(["sim", "--preset", "line", "--policy", "lru",
                 "--horizon", "1", "--outdir", str(outdir)])
    assert code == 0
    lines = (outdir / "delivery.csv").read_text().splitlines()
    # schema comment + column header + exactly one record
    assert len(lines) == 3
    assert lines[2].startswith("1,")


def test_sim_runs_config_file(tmp_path, capsys):
    path = tmp_path / "mini.yaml"
    path.write_text(yaml.safe_dump(MINI_SCENARIO))
    outdir = tmp_path / "out"
    code = main(["sim", "--config", str(path), "--policy", "lcp:0.5",
                 "--seed", "6", "--outdir", str(outdir)])
    assert code == 0
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0].endswith("seed=6")
    assert summary[2].startswith("lcp:0.5,")


def test_sim_rejects_non_finite_config_values(tmp_path, capsys):
    raw = dict(MINI_SCENARIO)
    raw["links"] = [dict(MINI_SCENARIO["links"][0], capacity_bps=math.nan),
                    MINI_SCENARIO["links"][1]]
    path = tmp_path / "nan.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["sim", "--config", str(path),
                 "--outdir", str(tmp_path / "nan")]) == 1
    assert "capacity" in capsys.readouterr().err
    # a flag that overwrites a loaded config is checked as well
    path.write_text(yaml.safe_dump(MINI_SCENARIO))
    assert main(["sim", "--config", str(path), "--warmup", "nan",
                 "--outdir", str(tmp_path / "warm")]) == 1
    assert "stats_warmup_s" in capsys.readouterr().err


def test_outdir_defaults_to_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LACSIM_OUTDIR", str(tmp_path / "envout"))
    code = main(["sim", "--preset", "single", "--horizon", "120"])
    assert code == 0
    roots = list((tmp_path / "envout").iterdir())
    assert len(roots) == 1
    for name in CSV_BUNDLE:
        assert (roots[0] / name).is_file()


def test_calibrate_lcp_reruns_fixed_prob(tmp_path, capsys):
    code = main(["sim", "--preset", "single", "--policy", "lcp",
                 "--calibrate-lcp", "--horizon", "2500",
                 "--outdir", str(tmp_path / "cal")])
    assert code == 0
    out = capsys.readouterr().out
    assert "calibrated policy: lcp:" in out
    assert "policy=lcp:" in out


def test_model_writes_curve_files(tmp_path):
    outdir = tmp_path / "model"
    code = main(["model", "--max-rank", "6", "--outdir", str(outdir)])
    assert code == 0
    curves = (outdir / "model_curves.csv").read_text().splitlines()
    assert curves[0] == "rank,mean_p,pi,tau_x"
    assert len(curves) == 1 + 6 * 4  # four default mean_p values
    sym = (outdir / "model_sym.csv").read_text().splitlines()
    assert sym[0] == "rank,pi_sym"
    eta = (outdir / "model_eta.csv").read_text().splitlines()
    assert eta[0] == "mean_p,epsilon,eta_sym,eta_asym"
    assert len(eta) == 1 + 4


def test_compare_gate_passes_for_settled_lru(capsys):
    assert main(["compare", "--preset", "single", "--policy", "lru",
                 "--horizon", "60000"]) == 0
    out = capsys.readouterr().out
    assert "max|delta|" in out


def test_compare_gate_fails_noisy_run(capsys):
    # 8000 requests leave the tail ranks far from steady state
    assert main(["compare", "--preset", "single", "--policy", "lru",
                 "--horizon", "8000"]) == 2
    capsys.readouterr()


def test_compare_does_not_gate_latency_aware(capsys):
    assert main(["compare", "--preset", "single", "--policy", "lac:5,5",
                 "--horizon", "8000"]) == 0
    out = capsys.readouterr().out
    assert "gate off" in out


def test_compare_needs_enough_data(capsys):
    assert main(["compare", "--preset", "single", "--policy", "lru",
                 "--horizon", "300"]) == 1
    err = capsys.readouterr().err
    assert "increase --horizon" in err


def test_sweep_writes_batch_csv(tmp_path, capsys):
    outdir = tmp_path / "sweeps"
    code = main(["sweep", "--preset", "single",
                 "--policies", "lru,lcp:0.1,lac:5,5",
                 "--seeds", "1-2", "--horizon", "400",
                 "--outdir", str(outdir)])
    assert code == 0
    rows = (outdir / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("name,policy_label,seed,")
    assert len(rows) == 7
    assert rows[1].startswith("single,lru,1,400,")
    assert rows[4].startswith("single,lcp:0.1,2,400,")
    # the two-parameter label is one quoted CSV field, not two columns
    assert rows[5].startswith('single,"lac:5,5",1,400,')


def test_sweep_prints_per_policy_means(tmp_path, capsys):
    outdir = tmp_path / "sweeps"
    assert main(["sweep", "--preset", "line", "--policies", "lru,lac:5,5",
                 "--seeds", "1-3", "--horizon", "300",
                 "--outdir", str(outdir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["policy", "delivery", "stddev", "miss",
                                "cache1->user1", "cache2->cache1",
                                "cache3->cache2", "repo->cache3"]
    table = {cols[0]: [float(c) for c in cols[1:]]
             for cols in (line.split() for line in lines[1:3])}
    assert list(table) == ["lru", "lac:5,5"]
    rows = (outdir / "sweep.csv").read_text().splitlines()[1:]
    lru = [row.split(",") for row in rows if row.startswith("line,lru,")]
    assert len(lru) == 3
    # columns 5..7 of sweep.csv: mean_delivery, stddev_delivery, overall_miss
    for col, value in zip((5, 6, 7), table["lru"][:3]):
        assert value == pytest.approx(sum(float(r[col]) for r in lru) / 3,
                                      abs=5e-5)
    assert all(0.0 < rho <= 1.0 for rho in table["lac:5,5"][3:])
