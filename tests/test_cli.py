"""Command line behavior: flags, exit codes, output files."""

import importlib
import math
import os
import pkgutil
import subprocess
import sys

import pytest
import yaml

import lacsim
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


def test_sim_warmup_narrows_only_miss_prob(tmp_path, capsys):
    # --warmup moves the per-rank counters' window and nothing else
    bundles = []
    for flags in ([], ["--warmup", "150"]):
        outdir = tmp_path / str(len(bundles))
        assert main(["sim", "--preset", "single", "--seed", "3",
                     "--horizon", "300", "--outdir", str(outdir)] + flags) == 0
        bundles.append({name: (outdir / name).read_bytes()
                        for name in CSV_BUNDLE})
    capsys.readouterr()
    whole, warm = bundles
    for name in ("delivery.csv", "links.csv", "summary.csv"):
        assert warm[name] == whole[name]
    assert warm["miss_prob.csv"] != whole["miss_prob.csv"]

    def requests(bundle):
        rows = bundle["miss_prob.csv"].decode().splitlines()[2:]
        return sum(int(row.split(",")[2]) for row in rows)

    assert 0 < requests(warm) < requests(whole)


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


def test_config_name_cannot_leave_the_output_directory(tmp_path, monkeypatch,
                                                      capsys):
    # the name is joined into the default output leaf, so a name with a path
    # separator would write outside LACSIM_OUTDIR
    monkeypatch.setenv("LACSIM_OUTDIR", str(tmp_path / "out" / "root"))
    cfg = tmp_path / "escape.yaml"
    cfg.write_text(yaml.safe_dump(dict(MINI_SCENARIO, name="../../escaped")))
    assert main(["sim", "--config", str(cfg)]) == 1
    assert "name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["escape.yaml"]


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


@pytest.mark.parametrize("max_rank", ["0", "-3"])
def test_model_rejects_max_rank_below_one(max_rank, tmp_path, capsys):
    # a curve over no ranks is a usage error, not an empty model_sym.csv
    outdir = tmp_path / "model"
    code = main(["model", "--max-rank", max_rank, "--outdir", str(outdir)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "--max-rank" in err[0]
    assert not outdir.exists()


def test_model_rejects_mean_p_that_vanishes_against_one(tmp_path, capsys):
    # 1 - 1e-17 rounds to 1: one error line naming mean_p, no traceback
    code = main(["model", "--mean-p", "1e-17", "--epsilon", "0.01",
                 "--outdir", str(tmp_path / "model")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "mean_p" in err[0]


@pytest.mark.parametrize("flags,message", [
    (["--alpha", "0.8"], "alpha"), (["--epsilon", "1.5"], "eps"),
    (["--rate", "nan"], "rate_lambda"), (["--rate", "inf"], "rate_lambda"),
    # finite, but the characteristic time cannot be bracketed or solved
    (["--rate", "1e-200"], "--rate"), (["--rate", "1e200"], "--rate"),
])
def test_model_bad_input_writes_nothing(flags, message, tmp_path, capsys):
    # every row is computed before any file is written
    outdir = tmp_path / "model"
    code = main(["model", "--catalog", "10", "--max-rank", "5", *flags,
                 "--outdir", str(outdir)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not outdir.exists()


def test_model_sym_stops_at_the_catalog(tmp_path):
    # like model_curves.csv, model_sym.csv holds only ranks that exist
    outdir = tmp_path / "model"
    code = main(["model", "--catalog", "10", "--max-rank", "100",
                 "--mean-p", "1.0", "--outdir", str(outdir)])
    assert code == 0
    sym = (outdir / "model_sym.csv").read_text().splitlines()
    assert len(sym) == 11 and sym[-1].startswith("10,")
    curves = (outdir / "model_curves.csv").read_text().splitlines()
    assert len(curves) == 11


def test_every_export_exists():
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *`
    for info in pkgutil.iter_modules(lacsim.__path__):
        module = importlib.import_module(f"lacsim.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_importing_the_cli_leaves_yaml_unloaded():
    # only load_scenario reads YAML, so no workload pays for importing it
    code = "import sys, lacsim.cli; sys.exit('yaml' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(lacsim.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
    # a warm-up past the end of the run leaves no request counted
    assert main(["compare", "--preset", "single", "--policy", "lru",
                 "--horizon", "300", "--warmup", "1e9"]) == 1
    assert "lower --warmup" in capsys.readouterr().err


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
    (["--policies", ""], "names no policy"),
    (["--policies", ","], "names no policy"),
    (["--seeds", "1,5-3"], "'5-3'"),
    (["--seeds", "1-3,2"], "'2' repeats seed 2"),
    # a sweep's rows count the whole run, so it takes no warm-up
    (["--warmup", "1"], "--warmup"),
])
def test_sweep_config_error_leaves_no_output_dir(flags, message, tmp_path,
                                                 capsys):
    outdir = tmp_path / "sweeps"
    argv = ["sweep", "--preset", "single", "--seeds", "1", "--horizon", "10",
            "--outdir", str(outdir)]
    assert main(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_sweep_builds_every_config_before_the_first_run(tmp_path, capsys,
                                                       monkeypatch):
    # a bad policy late in --policies fails before any run of the good ones
    runs = []
    monkeypatch.setattr("lacsim.harness.run_summary",
                        lambda *args: runs.append(args))
    outdir = tmp_path / "sweeps"
    assert main(["sweep", "--preset", "single", "--policies", "lru,bogus",
                 "--seeds", "1-2", "--horizon", "10",
                 "--outdir", str(outdir)]) == 1
    assert "bogus" in capsys.readouterr().err
    assert runs == []
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


@pytest.mark.parametrize("where", ["top", "node"])
@pytest.mark.parametrize("policy", [5, ["lru"]])
def test_sim_rejects_non_string_policy(where, policy, tmp_path, capsys):
    raw = dict(MINI_SCENARIO)
    if where == "top":
        raw["policy"] = policy
    else:
        raw["nodes"] = [dict(n) for n in MINI_SCENARIO["nodes"]]
        raw["nodes"][1]["policy"] = policy
    path = tmp_path / "policy.yaml"
    path.write_text(yaml.safe_dump(raw))
    outdir = tmp_path / "run"
    assert main(["sim", "--config", str(path), "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "policy" in err
    assert not outdir.exists()
