"""End-to-end runs of the command line harness."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import process_left_running

from twospecies import cli, coupling, lattice, macro
from twospecies.cli import main


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, cfg, *extra):
    cfg_path = write_cfg(tmp_path, f"{command}.json", cfg)
    out = tmp_path / f"out_{command}"
    code = main([command, "--config", cfg_path, "--out", str(out), *extra])
    return code, out


SIM_CFG = {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.25, "seed": 17}
TENT_PROFILE = {
    "grid": {"r_min": -2.0, "r_max": 2.0, "n_cells": 400},
    "u_tent": [-1.0, 0.0, 1.0],
    "v_tent": [-0.5, 1.0, 1.0],
}


@pytest.fixture
def four_cpus(monkeypatch):
    """Let --threads alone set the worker count, whatever this host has."""
    monkeypatch.setattr(lattice, "usable_cpus", lambda: 4)


def reports_at(tmp_path, command, cfg, seeds, *threads):
    """report.json of `command` at each --threads value, and its out dir."""
    cfg_path = write_cfg(tmp_path, f"{command}.json", cfg)
    outs = []
    for t in threads:
        out = tmp_path / f"out_{command}_t{t}"
        assert main([command, "--config", cfg_path, "--out", str(out),
                     "--seeds", str(seeds), "--threads", str(t)]) == 0
        outs.append(out)
    return outs


class TestSimulate:
    def test_artifacts_and_report(self, tmp_path):
        code, out = run(tmp_path, "simulate", SIM_CFG, "--seeds", "2")
        assert code == 0
        for rep in range(2):
            assert (out / f"occupation_seed{rep}.csv").exists()
            assert (out / f"empirical_seed{rep}.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report["runs"]) == 2
        assert report["runs"][0]["M"] == 20
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seeds"] == 2

    def test_threading_does_not_change_results(self, tmp_path):
        _, out1 = run(tmp_path, "simulate", SIM_CFG, "--seeds", "3")
        cfg_path = write_cfg(tmp_path, "sim2.json", SIM_CFG)
        out2 = tmp_path / "out_threads"
        assert main(["simulate", "--config", cfg_path, "--out", str(out2),
                     "--seeds", "3", "--threads", "2"]) == 0
        for rep in range(3):
            name = f"occupation_seed{rep}.csv"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_uneven_split_does_not_change_results(self, tmp_path, four_cpus):
        out1, out3 = reports_at(tmp_path, "simulate", SIM_CFG, 5, 1, 3)
        names = sorted(f.name for f in out1.iterdir() if f.suffix == ".csv")
        assert len(names) == 10
        for name in names + ["report.json"]:
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes()
        assert [json.loads((out / "manifest.json").read_text())["workers"]
                for out in (out1, out3)] == [1, 3]

    def test_custom_profile_block(self, tmp_path):
        code, _ = run(tmp_path, "simulate", dict(SIM_CFG, profile=TENT_PROFILE))
        assert code == 0

    def test_seed_beyond_int64(self, tmp_path):
        # SeedSequence takes integers of any size
        code, _ = run(tmp_path, "simulate", dict(SIM_CFG, seed=10**400))
        assert code == 0


class TestCoupleVerify:
    def test_exhaustive_and_sandwich(self, tmp_path):
        cfg = {
            "exhaustive": {"max_particles": 3, "n_sites": 3, "max_marks": 2},
            "sandwich": {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.25,
                         "seed": 4, "delta": 0.25},
        }
        code, out = run(tmp_path, "couple-verify", cfg, "--seeds", "5")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["exhaustive"]["ok"]
        assert report["sandwich"]["n_violations"] == 0

    def test_threads_do_not_change_the_report(self, tmp_path, monkeypatch,
                                              four_cpus):
        fanned = []

        def spy(fn, n_seeds, threads):
            fanned.append(threads)
            return lattice.map_seeds(fn, n_seeds, threads)

        monkeypatch.setattr(coupling, "map_seeds", spy)
        cfg = {"sandwich": {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.5,
                            "seed": 4, "delta": 0.25}}
        outs = reports_at(tmp_path, "couple-verify", cfg, 6, 1, 2)
        reports = [(out / "report.json").read_bytes() for out in outs]
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["sandwich"]["n_seeds"] == 6
        assert fanned == [1, 2]

    def test_empty_config_is_a_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "couple-verify", {})
        assert code == 2


class TestBarriers:
    def test_bracket_stays_ordered(self, tmp_path):
        cfg = {"kappa": 0.5, "delta": 0.02, "horizon_T": 0.1}
        code, out = run(tmp_path, "barriers", cfg)
        assert code == 0
        assert (out / "final_minus.csv").exists()
        assert (out / "final_plus.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["ordered"]
        assert report["n_steps"] == 5
        assert len(report["bracket_widths"]) == 6
        assert not report["annihilated"]

    def test_annihilation_is_a_violation(self, tmp_path):
        # kappa * delta = 2 exceeds each species' unit mass at the first
        # step: every subcommand gives the one annihilation report
        macro_cfg = {"kappa": 200, "delta": 0.01, "horizon_T": 0.5}
        for i, (command, cfg) in enumerate([
                ("barriers", {"kappa": 40.0, "delta": 0.05, "horizon_T": 0.5}),
                ("barriers", macro_cfg),
                ("fbp", macro_cfg),
                ("fbp", dict(macro_cfg, mc={"t": 0.4, "n_paths": 200,
                                            "dt": 0.01})),
                ("hydro-compare", dict(SIM_CFG, kappa=200, horizon_T=0.5))]):
            (tmp_path / str(i)).mkdir()
            code, out = run(tmp_path / str(i), command, cfg)
            assert code == 1, (command, cfg)
            report = json.loads((out / "report.json").read_text())
            assert report.keys() == {"annihilated", "error"}
            assert report["annihilated"]
            assert not list(out.glob("*.csv"))
            assert (out / "manifest.json").exists()

    def test_final_width_is_the_fbp_summary_width(self, tmp_path):
        cfg = {"kappa": 0.5, "delta": 0.02, "horizon_T": 0.1}
        (_, out_b), (_, out_f) = (run(tmp_path, c, cfg)
                                  for c in ("barriers", "fbp"))
        widths = json.loads((out_b / "report.json").read_text())["bracket_widths"]
        summary = json.loads((out_f / "summary.json").read_text())
        assert widths[-1] == summary["final_bracket_width"]

    def test_separated_tents_need_no_boundaries(self, tmp_path):
        # the supports never overlap, so no boundary pair can be read off;
        # barriers reports the bracket without one
        profile = dict(TENT_PROFILE, u_tent=[-1.0, 0.0, 1.0],
                       v_tent=[0.5, 1.5, 1.0])
        cfg = {"kappa": 0.5, "delta": 0.02, "horizon_T": 0.1,
               "profile": profile}
        code, out = run(tmp_path, "barriers", cfg)
        assert code == 0
        assert json.loads((out / "report.json").read_text())["ordered"]


class TestFbp:
    def test_solve_with_mc_block(self, tmp_path):
        cfg = {"kappa": 0.5, "delta": 0.01, "horizon_T": 0.1,
               "mc": {"t": 0.1, "n_paths": 2000, "seed": 12, "dt": 2e-3,
                      "z_max": 5.0}}
        code, out = run(tmp_path, "fbp", cfg)
        assert code == 0
        for name in ("boundaries.csv", "final_minus.csv", "summary.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["n_steps"] == 10
        assert {c["side"] for c in report["mc"]} == {"u", "v"}

    def test_mc_time_that_passes_the_check_is_a_stored_step(self, tmp_path):
        # 2e-9 off step 6: inside step_count's tolerance, 1e-9 * mc.t
        cfg = {"kappa": 0.5, "delta": 0.5, "horizon_T": 4.0,
               "mc": {"t": 3.000000002, "n_paths": 50, "dt": 0.5}}
        code, _ = run(tmp_path, "fbp", cfg)
        assert code == 0

    def test_interval_without_paths_keeps_a_standard_error(self, tmp_path):
        # at t 0 some interval can hold no path at all; its plug-in variance
        # p(1 - p) would be 0 and its |z| near 1e149
        cfg = {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
               "mc": {"t": 0, "n_paths": 10}}
        code, out = run(tmp_path, "fbp", cfg)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert all(c["max_abs_z"] < 4.0 for c in report["mc"])


class TestImports:
    def test_barrier_work_leaves_numpy_ma_unimported(self, tmp_path):
        # np.union1d imports numpy.ma, about 0.8 MB of resident memory
        runs = [[cmd, "--config", write_cfg(tmp_path, f"{cmd}.json", cfg),
                 "--out", str(tmp_path / f"out_{cmd}")] for cmd, cfg in (
            ("barriers", {"kappa": 0.5, "delta": 0.02, "horizon_T": 0.1}),
            ("fbp", {"kappa": 0.5, "delta": 0.01, "horizon_T": 0.1}))]
        script = f"""
import sys
from twospecies import cli, fbp, macro
sol = fbp.solve_reference(macro.tent_pair(), 0.5, 0.1, 0.01)
macro.order_gap(sol.minus[-1], sol.plus[-1])
for argv in {runs!r}:
    assert cli.main(argv) == 0
print("numpy.ma" in sys.modules)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], text=True,
                              capture_output=True, timeout=300,
                              env=os.environ | {"PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


    def test_cli_import_leaves_the_process_pool_unimported(self):
        # the fan-out forks directly and needs neither: they cost tens of ms
        # at start-up
        script = ("import sys, twospecies.cli\n"
                  "print(sorted({'multiprocessing', 'concurrent.futures'}"
                  " & set(sys.modules)))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], text=True,
                              capture_output=True, timeout=300,
                              env=os.environ | {"PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestReplicaFailures:
    """A replica's exception reaches main with its type at any --threads,
    and no worker outlives the call."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_simulation_error_in_a_replica_exits_2(self, tmp_path, capsys,
                                                   four_cpus, threads):
        # 0.2 total mass at epsilon 0.5: each replica draws zero particles
        tiny = dict(TENT_PROFILE, u_tent=[-1.0, 0.0, 0.1],
                    v_tent=[-0.5, 1.0, 0.1])
        code, _ = run(tmp_path, "simulate",
                      dict(SIM_CFG, epsilon=0.5, profile=tiny),
                      "--seeds", "3", "--threads", threads)
        assert code == 2
        assert "zero particles" in capsys.readouterr().err
        assert not process_left_running()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_unexpected_error_in_a_replica_exits_3(self, tmp_path, capsys,
                                                   monkeypatch, four_cpus,
                                                   threads):
        def broken(*args, **kwargs):
            raise RuntimeError("walks broke")

        monkeypatch.setattr(lattice, "run_true", broken)
        code, _ = run(tmp_path, "simulate", SIM_CFG, "--seeds", "3",
                      "--threads", threads)
        assert code == 3
        assert "RuntimeError: walks broke" in capsys.readouterr().err
        assert not process_left_running()

    @pytest.mark.parametrize("outcome", ["annihilated", "simulation error",
                                         "unexpected error"])
    def test_hydro_compare_fails_alike_at_two_threads(self, tmp_path, capsys,
                                                      monkeypatch, four_cpus,
                                                      outcome):
        cfg = dict(SIM_CFG)
        if outcome == "annihilated":
            # kappa * delta_ref = 2 exhausts a species at the first step
            cfg.update(kappa=200, horizon_T=0.5)
        elif outcome == "simulation error":
            # each replica draws zero particles, as in the simulate case
            cfg.update(epsilon=0.5, profile=dict(
                TENT_PROFILE, u_tent=[-1.0, 0.0, 0.1], v_tent=[-0.5, 1.0, 0.1]))
        else:
            def broken(*args, **kwargs):
                raise RuntimeError("walks broke")

            monkeypatch.setattr(lattice, "run_true", broken)
        results = []
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            code, out = run(tmp_path / threads, "hydro-compare", cfg,
                            "--seeds", "3", "--threads", threads)
            report = out / "report.json"
            results.append((code, report.exists() and json.loads(
                report.read_text()), capsys.readouterr().err.splitlines()))
            assert not list(out.glob("*.csv"))
            assert not process_left_running()
        (code, report, err), (code2, report2, err2) = results
        assert code == code2 == {"annihilated": 1, "simulation error": 2,
                                 "unexpected error": 3}[outcome]
        assert report == report2
        if outcome == "annihilated":
            assert report.keys() == {"annihilated", "error"}
            assert err == err2 == []
        elif outcome == "simulation error":
            assert not report
            assert err == err2 and "zero particles" in err[0]
        else:
            # the tracebacks differ; the exception they end with does not
            assert err[-1] == err2[-1] == "RuntimeError: walks broke"


class TestHydroCompare:
    def test_small_run_reports_deviations(self, tmp_path):
        cfg = {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.1, "seed": 2,
               "t_eval": 0.1, "delta_ref": 0.02, "threshold": 2.0}
        code, out = run(tmp_path, "hydro-compare", cfg, "--seeds", "2")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["runs"]) == 2
        assert 0.0 < report["mean_sup_dev"] < 2.0

    def test_t_eval_before_the_horizon(self, tmp_path):
        cfg = {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.2, "seed": 2,
               "t_eval": 0.1, "delta_ref": 0.02, "threshold": 2.0}
        code, out = run(tmp_path, "hydro-compare", cfg, "--seeds", "2")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["t_eval"] == 0.1

    def test_threading_does_not_change_results(self, tmp_path):
        cfg = {"epsilon": 0.05, "kappa": 1.0, "horizon_T": 0.1, "seed": 3,
               "delta_ref": 0.02}
        cfg_path = write_cfg(tmp_path, "hydro.json", cfg)
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out_threads{threads}"
            assert main(["hydro-compare", "--config", cfg_path, "--out",
                         str(out), "--seeds", "4", "--threads", threads]) == 0
            runs.append(json.loads((out / "report.json").read_text())["runs"])
        assert runs[0] == runs[1]

    def test_uneven_split_does_not_change_results(self, tmp_path, four_cpus):
        cfg = {"epsilon": 0.05, "kappa": 1.0, "horizon_T": 0.1, "seed": 3,
               "delta_ref": 0.02}
        outs = reports_at(tmp_path, "hydro-compare", cfg, 5, 1, 3)
        runs = [json.loads((out / "report.json").read_text())["runs"]
                for out in outs]
        assert [r["seed_index"] for r in runs[0]] == list(range(5))
        assert runs[0] == runs[1]

    def test_t_eval_past_the_horizon_is_a_config_error(self, tmp_path):
        cfg = {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.1, "seed": 2,
               "t_eval": 0.2, "delta_ref": 0.02}
        code, _ = run(tmp_path, "hydro-compare", cfg)
        assert code == 2

    def test_negative_t_eval_is_named_in_the_error(self, tmp_path, capsys):
        cfg = {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.1, "seed": 2,
               "t_eval": -0.1, "delta_ref": 0.02}
        code, _ = run(tmp_path, "hydro-compare", cfg)
        assert code == 2
        assert "'t_eval'" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("command, cfg", [
        ("barriers", {"kappa": 0.5, "delta": 0, "horizon_T": 0.1}),
        ("fbp", {"kappa": 0.5, "delta": -0.01, "horizon_T": 0.1}),
        ("couple-verify", {"exhaustive": {"max_particles": "x"}}),
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "mc": {"t": 0.1, "n_paths": 10, "dt": "x"}}),
        ("simulate", dict(SIM_CFG, seed=-1)),
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "mc": {"t": 0.1, "n_paths": 10, "seed": -1}}),
        ("couple-verify", {"exhaustive": {"max_particles": True, "n_sites": 2,
                                          "max_marks": 1}}),
        ("barriers", {"kappa": True, "delta": 0.05, "horizon_T": 0.1}),
        ("barriers", {"kappa": 0.5, "delta": 0.05, "horizon_T": -0.1}),
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": -0.1}),
        ("barriers", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.01}),
        ("barriers", {"kappa": 0.5, "delta": 0.03, "horizon_T": 0.1}),
        ("fbp", {"kappa": 0.5, "delta": float("inf"), "horizon_T": 0.1}),
        ("barriers", {"kappa": 0.5, "delta": float("inf"), "horizon_T": 0.1}),
        ("couple-verify", {"sandwich": dict(SIM_CFG, delta=0)}),
        ("couple-verify", {"sandwich": dict(SIM_CFG, delta=-0.1)}),
        ("simulate", dict(SIM_CFG, profile=dict(TENT_PROFILE,
                                                u_tent=["x", 0, 1]))),
        ("simulate", dict(SIM_CFG, profile=dict(TENT_PROFILE,
                                                v_tent=[-0.5, 1.0, True]))),
        ("simulate", dict(SIM_CFG, kappa=float("inf"))),
        ("barriers", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                      "profile": dict(TENT_PROFILE,
                                      u_tent=[-1.0, float("inf"), 1.0])}),
        ("couple-verify", {"exhaustive": {"max_particles": 0, "n_sites": 0,
                                          "max_marks": -5}}),
        ("couple-verify", {"exhaustive": {"max_particles": 2, "n_sites": 0,
                                          "max_marks": 1}}),
        ("couple-verify", {"exhaustive": {"max_particles": 2, "n_sites": 2,
                                          "max_marks": -1}}),
        ("simulate", dict(SIM_CFG, profile=dict(TENT_PROFILE,
                                                v_tent=[-0.5, 1.0, -1.0]))),
        # JSON integers too large for a float
        ("barriers", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                      "profile": dict(TENT_PROFILE,
                                      u_tent=[-1.0, 10**400, 1.0])}),
        ("barriers", {"kappa": 10**400, "delta": 0.05, "horizon_T": 0.1}),
        ("couple-verify", {"sandwich": dict(SIM_CFG, delta=0.25,
                                            kappa=10**400)}),
        ("couple-verify", {"sandwich": dict(SIM_CFG, delta=0.25,
                                            horizon_T=10**400)}),
        ("couple-verify", {"sandwich": dict(SIM_CFG, delta=10**400)}),
        # JSON integers too large for an int64 in an int key
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "mc": {"t": 0.1, "n_paths": 10**400}}),
        ("simulate", dict(SIM_CFG, profile=dict(
            TENT_PROFILE, grid=dict(TENT_PROFILE["grid"], n_cells=10**400)))),
        # JSON NaN in a float key
        ("hydro-compare", {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.1,
                           "seed": 2, "t_eval": float("nan"),
                           "delta_ref": 0.02}),
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "mc": {"t": float("nan"), "n_paths": 10}}),
        ("barriers", {"kappa": float("nan"), "delta": 0.05, "horizon_T": 0.1}),
        ("hydro-compare", {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.1,
                           "seed": 2, "delta_ref": 0.02,
                           "threshold": float("nan")}),
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "mc": {"t": 0.1, "n_paths": 10, "z_max": float("nan")}}),
        # negative gates, a negative t_eval, sandwich horizons that are no
        # multiple of delta
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "mc": {"t": 0.1, "n_paths": 10, "z_max": -1}}),
        ("hydro-compare", {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.1,
                           "seed": 2, "delta_ref": 0.02, "threshold": -1}),
        ("hydro-compare", {"epsilon": 0.1, "kappa": 1.0, "horizon_T": 0.1,
                           "seed": 2, "t_eval": -0.1, "delta_ref": 0.02}),
        ("couple-verify", {"sandwich": dict(SIM_CFG, horizon_T=0.25,
                                            delta=5.0)}),
        ("couple-verify", {"sandwich": dict(SIM_CFG, horizon_T=1.0,
                                            delta=0.3)}),
        # an MC time outside [0, horizon_T]
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "mc": {"t": -0.1, "n_paths": 10}}),
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "mc": {"t": 0.2, "n_paths": 10}}),
        # an MC step that does not divide the MC time
        ("fbp", {"kappa": 0.5, "delta": 0.001, "horizon_T": 0.1,
                 "mc": {"t": 0.1, "n_paths": 20000, "dt": 0.03}}),
        ("fbp", {"kappa": 0.5, "delta": 0.001, "horizon_T": 0.1,
                 "mc": {"t": 0.1, "n_paths": 20000, "dt": 1}}),
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, command, cfg):
        code, _ = run(tmp_path, command, cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("t", [-0.1, 0.2])
    def test_mc_time_outside_the_horizon_is_named(self, tmp_path, capsys, t):
        cfg = {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
               "mc": {"t": t, "n_paths": 10}}
        code, _ = run(tmp_path, "fbp", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'mc.t'" in err

    def test_mc_step_that_does_not_divide_the_time_is_named(self, tmp_path,
                                                           capsys):
        cfg = {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
               "mc": {"t": 0.1, "n_paths": 10, "dt": 0.03}}
        code, out = run(tmp_path, "fbp", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'mc.dt'" in err
        # rejected before the reference solve writes anything
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command, cfg, keys", [
        ("barriers", {"kappa": 0.5, "delta": 0.03, "horizon_T": 0.1},
         ("horizon_T", "delta")),
        ("fbp", {"kappa": 0.5, "delta": 0.01, "horizon_T": 0.1,
                 "mc": {"t": 0.055, "n_paths": 200, "dt": 0.005}},
         ("mc.t", "delta")),
        ("couple-verify", {"exhaustive": {},
                           "sandwich": dict(SIM_CFG, horizon_T=1.0, delta=0.3)},
         ("sandwich.horizon_T", "sandwich.delta")),
        ("hydro-compare", dict(SIM_CFG, horizon_T=0.1, t_eval=0.055),
         ("t_eval", "delta_ref")),
        ("hydro-compare", dict(SIM_CFG, horizon_T=0.055),
         ("horizon_T", "delta_ref")),
    ])
    def test_time_that_is_no_multiple_is_named_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, cfg, keys):
        def work(*args, **kwargs):
            raise RuntimeError("work started")

        monkeypatch.setattr(cli.fbp, "solve_reference", work)
        monkeypatch.setattr(coupling, "exhaustive_balance_check", work)
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is not a multiple of" in err
        assert all(f"'{key}'" in err for key in keys)
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command, cfg, message", [
        ("fbp", {"kappa": 0.5, "delta": 0.02, "horizon_T": 0.1},
         "error: boundaries crossed at t=0.0: V=0.5000005 >= "
         "U=-5.000000000091737e-07"),
        ("hydro-compare", dict(SIM_CFG, horizon_T=0.1, delta_ref=0.02),
         "error: initial profile is invalid: support ordering violated: "
         "L=-1.0, D=0.5, R=0.0, E=1.5"),
    ], ids=["fbp", "hydro-compare"])
    def test_separated_tents_are_rejected_before_any_barrier_step(
            self, tmp_path, capsys, monkeypatch, command, cfg, message):
        steps = []
        step = macro.barrier_step
        monkeypatch.setattr(macro, "barrier_step",
                            lambda *a, **k: steps.append(a) or step(*a, **k))
        profile = dict(TENT_PROFILE, u_tent=[-1.0, 0.0, 1.0],
                       v_tent=[0.5, 1.5, 1.0])
        code, _ = run(tmp_path, command, dict(cfg, profile=profile))
        assert code == 2
        assert capsys.readouterr().err.strip() == message
        assert steps == []

    @pytest.mark.parametrize("command", ["barriers", "fbp"])
    def test_negative_kappa_is_named(self, tmp_path, capsys, command):
        cfg = {"kappa": -0.5, "delta": 0.05, "horizon_T": 0.1}
        code, _ = run(tmp_path, command, cfg)
        assert code == 2
        assert "'kappa'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, key", [
        ("hydro-compare", dict(SIM_CFG, treshold=0.0), "treshold"),
        ("hydro-compare", dict(SIM_CFG, deltaref=0.05), "deltaref"),
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "both_variants": False}, "both_variants"),
        ("fbp", {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
                 "mc": {"t": 0.1, "n_path": 10}}, "mc.n_path"),
        ("couple-verify", {"exhaustive": {"max_particle": 2}},
         "exhaustive.max_particle"),
        ("couple-verify", {"sandwich": dict(SIM_CFG, deltaa=0.25)},
         "sandwich.deltaa"),
        ("simulate", dict(SIM_CFG, profile=dict(
            TENT_PROFILE, grid={"r_min": -2.0, "r_max": 2.0, "ncells": 400})),
         "profile.grid.ncells"),
    ])
    def test_unknown_key_is_named(self, tmp_path, capsys, command, cfg, key):
        code, _ = run(tmp_path, command, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err

    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_required_key(self, tmp_path):
        code, _ = run(tmp_path, "simulate", {"epsilon": 0.1})
        assert code == 2

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_that_is_a_file(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "s.json", SIM_CFG)
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["simulate", "--config", cfg_path, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_nonpositive_seeds(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "s.json", SIM_CFG)
        code = main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "o"), "--seeds", "0"])
        assert code == 2

    def test_unexpected_error_has_its_own_status(self, tmp_path, capsys,
                                                 monkeypatch):
        def broken(args, cfg, out):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "simulate", broken)
        code, _ = run(tmp_path, "simulate", SIM_CFG)
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_unknown_command(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", "x", "--out", "y"])


def readme_json_blocks():
    """(heading, parsed block) for each ```json block of the README's
    "Command line" section; the heading is the last ### title above it, or
    None for the shared blocks before the first one."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    heading, block, blocks = None, None, []
    for line in section.splitlines():
        if line.startswith("### "):
            heading = line[4:].strip()
        elif line.strip() == "```json":
            block = []
        elif line.strip() == "```" and block is not None:
            blocks.append((heading, json.loads("\n".join(block))))
            block = None
        elif block is not None:
            block.append(line)
    return blocks


class TestReadmeConfigs:
    def test_every_subcommand_has_a_config(self):
        headings = {h for h, _ in readme_json_blocks()}
        assert headings == set(cli.SCHEMAS) | {None}

    @pytest.mark.parametrize("heading, block", [
        pytest.param(h, b, id=h or "profile") for h, b in readme_json_blocks()])
    def test_config_passes_the_schema(self, heading, block):
        if heading is None:
            assert list(block) == ["profile"]
            cli.read(block["profile"], cli.PROFILE, "profile.")
        else:
            cli.read(block, cli.SCHEMAS[heading])
