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
    assert main(["sim", "--policy", "lac:nan,5", "--horizon", "10",
                 "--outdir", str(tmp_path / "nan")]) == 1
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


def test_sim_rejects_zero_horizon_on_both_paths(tmp_path, capsys):
    assert main(["sim", "--preset", "single", "--horizon", "0",
                 "--outdir", str(tmp_path / "preset")]) == 1
    path = tmp_path / "mini.yaml"
    path.write_text(yaml.safe_dump(MINI_SCENARIO))
    assert main(["sim", "--config", str(path), "--horizon", "0",
                 "--outdir", str(tmp_path / "config")]) == 1
    assert "requests_per_user" in capsys.readouterr().err
    assert not (tmp_path / "preset").exists()


def test_sim_without_insertion_decisions_writes_bundle(tmp_path, capsys):
    # a zero-capacity cache never decides on insertion, so the summary's
    # mean decision probability is left empty
    raw = dict(MINI_SCENARIO)
    raw["nodes"] = [dict(n) for n in MINI_SCENARIO["nodes"]]
    raw["nodes"][1]["cache_capacity_objects"] = 0
    path = tmp_path / "nocache.yaml"
    path.write_text(yaml.safe_dump(raw))
    outdir = tmp_path / "out"
    assert main(["sim", "--config", str(path), "--outdir", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == sorted(CSV_BUNDLE)
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert len(summary) == 3
    assert summary[2].startswith("lru,")
    assert summary[2].split(",")[-1] == ""
    capsys.readouterr()


@pytest.mark.parametrize("cap,means", [
    (0.5, "lru,,,,"),                 # seed 1 issues its first request later
    (5.0, "lru,,,1.000000000,"),      # one request, still on its way back
])
def test_sim_capped_before_first_delivery_writes_bundle(cap, means, tmp_path,
                                                        capsys):
    # a mean with no samples is an empty summary field
    path = tmp_path / "capped.yaml"
    path.write_text(yaml.safe_dump(dict(MINI_SCENARIO, max_sim_time_s=cap)))
    outdir = tmp_path / "out"
    assert main(["sim", "--config", str(path), "--outdir", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == sorted(CSV_BUNDLE)
    assert (outdir / "summary.csv").read_text().splitlines()[2] == means
    assert len((outdir / "delivery.csv").read_text().splitlines()) == 2
    assert "deliveries=0" in capsys.readouterr().out


def test_lac_with_overflowing_exponent_runs(tmp_path, capsys):
    # delta_t**400 exceeds the float range once a latency passes ~5.9 s
    assert main(["sim", "--preset", "single", "--policy", "lac:400,1",
                 "--horizon", "3000", "--outdir", str(tmp_path / "big")]) == 0
    assert "policy=lac:400,1" in capsys.readouterr().out


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


@pytest.mark.parametrize("policy", ["lru", "sym:0.1"])
def test_compare_models_a_catalog_smaller_than_the_gate(policy, tmp_path,
                                                        capsys):
    # both model curves stop at the catalog's 12 ranks and the gate checks
    # those: a verdict (0 or 2), not a usage error or a traceback
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(dict(MINI_SCENARIO, catalog_size=12,
                                        requests_per_user=20_000)))
    assert main(["compare", "--config", str(path), "--policy", policy]) != 1
    assert "over ranks 1..12:" in capsys.readouterr().out


def test_compare_gates_the_cache_it_models(tmp_path, capsys):
    # the leaf has the lower id but the label that sorts last: compare must
    # check the leaf's curve against the leaf model, not the core's
    chain = dict(MINI_SCENARIO, catalog_size=20_000, requests_per_user=60_000)
    chain["nodes"] = [
        {"id": 1, "kind": "user"},
        {"id": 2, "kind": "cache", "cache_capacity_objects": 8, "label": "edge"},
        {"id": 3, "kind": "cache", "cache_capacity_objects": 8, "label": "core"},
        {"id": 4, "kind": "repository"},
    ]
    chain["links"] = [
        {"down": 1, "up": 2, "capacity_bps": 200_000},
        {"down": 2, "up": 3, "capacity_bps": 200_000},
        {"down": 3, "up": 4, "capacity_bps": 30_000},
    ]
    path = tmp_path / "chain.yaml"
    path.write_text(yaml.safe_dump(chain))
    assert main(["compare", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cache=edge ")


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


def test_sweep_rejects_empty_seed_list(tmp_path, capsys):
    outdir = tmp_path / "sweeps"
    assert main(["sweep", "--preset", "single", "--seeds", "3-1",
                 "--horizon", "10", "--outdir", str(outdir)]) == 1
    assert "names no seed" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("flags,message", [
    (["--horizon", "0"], "requests_per_user"),
    (["--seeds=-3"], "seed"),
    (["--policies", "bogus"], "bogus"),
])
def test_sweep_config_error_leaves_no_output_dir(flags, message, tmp_path,
                                                 capsys):
    outdir = tmp_path / "sweeps"
    argv = ["sweep", "--preset", "single", "--seeds", "1", "--horizon", "10",
            "--outdir", str(outdir)]
    assert main(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not outdir.exists()


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
