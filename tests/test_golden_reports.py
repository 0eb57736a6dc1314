"""Every subcommand's report.json against a recorded golden copy.

Each case runs in about a second or less, at --threads 1 and 2.  Floats
must agree to a relative 1e-12, everything else exactly, so a change that
claims "same results" is held to them.  The golden files in tests/golden/
were written by the code before such a change, never by the change itself;
a change that moves a report on purpose (a new random stream, new keys)
re-records only the cases it moves.  To record from another checkout of the
package, run

    PYTHONPATH=<that checkout>/src python tests/test_golden_reports.py [CASE ...]

which records the named cases, or every case when none is named, and
refuses to record (exit 1) when twospecies is imported from this checkout's
own src/ or a name is not a case.  A case named in FILES also records, and
compares exactly, those artifacts of its --threads 1 run, in
tests/golden/<case>/.  The "-asymmetric" cases run on a datum
that is not its own mirror image, so a v side that reads u's data changes
their reports.
"""
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from twospecies import lattice
from twospecies.cli import main

GOLDEN = Path(__file__).with_name("golden")

# a class-U datum that is not its own mirror image, unlike the default tents
ASYMMETRIC = {"grid": {"r_min": -2.0, "r_max": 3.0, "n_cells": 1000},
              "u_tent": [-1.2, 0.6, 1.4], "v_tent": [0.1, 1.9, 0.7]}

# name: (subcommand, config, --seeds); few particles and a fast clock, so
# that some replicas leave the survival set and some flip an absent species
CASES = {
    "simulate": ("simulate", {"epsilon": 0.2, "kappa": 3.0, "horizon_T": 0.5,
                              "seed": 7}, 4),
    "couple-verify": ("couple-verify", {
        "exhaustive": {"max_particles": 2, "n_sites": 3, "max_marks": 2},
        "sandwich": {"epsilon": 0.2, "kappa": 3.0, "horizon_T": 0.4,
                     "seed": 5, "delta": 0.2}}, 4),
    "barriers": ("barriers", {"kappa": 0.5, "delta": 0.05,
                              "horizon_T": 0.5}, 1),
    "fbp": ("fbp", {"kappa": 0.5, "delta": 0.01, "horizon_T": 0.2,
                    "mc": {"t": 0.1, "n_paths": 2000, "seed": 1,
                           "dt": 0.001, "z_max": 4.0}}, 1),
    "hydro-compare": ("hydro-compare", {
        "epsilon": 0.05, "kappa": 0.5, "horizon_T": 0.5, "seed": 3,
        "delta_ref": 0.05, "threshold": 0.5}, 3),
    "barriers-asymmetric": ("barriers", {
        "kappa": 0.5, "delta": 0.05, "horizon_T": 0.5,
        "profile": ASYMMETRIC}, 1),
    "fbp-asymmetric": ("fbp", {
        "kappa": 0.5, "delta": 0.01, "horizon_T": 0.2,
        "mc": {"t": 0.1, "n_paths": 2000, "seed": 1, "dt": 0.001,
               "z_max": 4.0}, "profile": ASYMMETRIC}, 1),
    "hydro-compare-asymmetric": ("hydro-compare", {
        "epsilon": 0.05, "kappa": 0.5, "horizon_T": 0.5, "seed": 3,
        "delta_ref": 0.05, "threshold": 0.5, "profile": ASYMMETRIC}, 3),
}


# the simulate report holds no value that depends on the walks (only M, ring
# counts, in_X and absent flips); its occupation counts do
FILES = {"simulate": [f"occupation_seed{rep}.csv" for rep in range(4)]}


def run_case(name: str, threads: int, workdir: Path) -> Path:
    """Run a case; its --out directory."""
    command, cfg, seeds = CASES[name]
    cfg_path = workdir / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = workdir / f"{name}-t{threads}"
    main([command, "--config", str(cfg_path), "--out", str(out),
          "--seeds", str(seeds), "--threads", str(threads)])
    return out


def mismatches(got, want, path="report") -> list[str]:
    """Where `got` differs from `want`: floats beyond a relative 1e-12,
    anything else not exactly equal (types, keys and their order too)."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or math.isclose(got, want, rel_tol=1e-12) or (
                math.isnan(got) and math.isnan(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k],
                                                    f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(name, threads, tmp_path, monkeypatch):
    # two usable CPUs, so that --threads 2 forks two workers on any host
    monkeypatch.setattr(lattice, "usable_cpus", lambda: 2)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    out = run_case(name, threads, tmp_path)
    assert mismatches(json.loads((out / "report.json").read_text()),
                      want) == []
    for file in FILES.get(name, []):
        assert (out / file).read_text() == (GOLDEN / name / file).read_text()


def test_mismatches_sees_floats_keys_and_types():
    assert mismatches({"a": 1.0, "b": [1]}, {"a": 1.0 + 1e-15, "b": [1]}) == []
    assert mismatches({"a": 1.0}, {"a": 1.0 + 1e-9})
    assert mismatches({"b": 1, "a": 1}, {"a": 1, "b": 1})
    assert mismatches({"a": 1}, {"a": 1.0})
    assert mismatches([True], [1])


if __name__ == "__main__":
    own_src = Path(__file__).resolve().parents[1] / "src"
    if Path(lattice.__file__).resolve().parents[1] == own_src:
        sys.exit("refusing to record: twospecies is imported from this "
                 "checkout's src/; put another checkout's src/ on PYTHONPATH")
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"refusing to record: no case named {', '.join(unknown)}; "
                 f"the cases are {', '.join(CASES)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = run_case(name, 1, Path(tmp))
            report = json.loads((out / "report.json").read_text())
            (GOLDEN / f"{name}.json").write_text(
                json.dumps(report, indent=2) + "\n")
            for file in FILES.get(name, []):
                (GOLDEN / name).mkdir(exist_ok=True)
                shutil.copyfile(out / file, GOLDEN / name / file)
            print(f"recorded {name}", file=sys.stderr)
