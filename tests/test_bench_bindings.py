"""The bench tracer's bindings (bench/layers.py) resolve in the toolkit.

`bench/layers.installed` replaces each function of its TRACED table at
every module or class that binds it, looking the function up with
`vars(owner)[name]`.  A rename, a moved import or a call that bypasses the
binding breaks `bench/run.py --trace 1` without failing any other test, and
so does a counter hook that reads an attribute the traced result no longer
has.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from twospecies import cli, fbp, macro

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/layers.py and bench/spans.py, imported without writing
    bytecode into bench/ and without leaving bench/ on sys.path."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_layers",
                                                      BENCH / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        spans = sys.modules["spans"]
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in set(sys.modules) - before:
            del sys.modules[name]
    return layers, spans


def test_every_traced_binding_resolves(bench):
    layers, _ = bench
    for owners, attr, span, _ in layers.TRACED:
        raw = vars(owners[0]).get(attr)
        assert raw is not None, f"{owners[0].__name__}.{attr} ({span})"
        for owner in owners[1:]:
            assert vars(owner).get(attr) is raw, (
                f"{owner.__name__}.{attr} is not {owners[0].__name__}.{attr}")


def test_traced_solve_reaches_the_step_and_solution_hooks(bench):
    layers, spans = bench
    tracer, step = spans.Tracer(), macro.barrier_step
    with layers.installed(tracer):
        fbp.solve_reference(macro.tent_pair(), 0.5, 0.1, 0.05)
    names = {s.name for s in tracer.spans}
    assert {"fbp.solve_reference", "macro.barrier_step",
            "macro.l1_distance_u", "fbp.boundaries"} <= names
    # two families of two steps, each counted through macro's namespace
    assert sum(s.name == "macro.barrier_step" for s in tracer.spans) == 4
    assert tracer.counters["macro.nodes"] > 0
    assert tracer.counters["fbp.solution_bytes"] > 0
    assert macro.barrier_step is step


# one tiny config per subcommand; together they reach every counter hook
SUBCOMMANDS = {
    "simulate": {"epsilon": 0.2, "kappa": 1.0, "horizon_T": 0.1, "seed": 7},
    "couple-verify": {
        "exhaustive": {"max_particles": 2, "n_sites": 3, "max_marks": 2},
        "sandwich": {"epsilon": 0.2, "kappa": 1.0, "horizon_T": 0.2,
                     "seed": 5, "delta": 0.2}},
    "barriers": {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1},
    "fbp": {"kappa": 0.5, "delta": 0.05, "horizon_T": 0.1,
            "mc": {"t": 0.1, "n_paths": 200, "seed": 1, "dt": 0.01,
                   "z_max": 4.0}},
    "hydro-compare": {"epsilon": 0.2, "kappa": 0.5, "horizon_T": 0.1,
                      "seed": 3, "delta_ref": 0.05},
}
HOOK_COUNTERS = ["coupling.exhaustive.runs", "coupling.sandwich.seeds",
                 "lattice.stored_jumps", "lattice.rings", "macro.nodes",
                 "fbp.solution_bytes", "fbp.path_steps"]


def test_every_counter_hook_fires_from_the_command_line(bench, tmp_path):
    # a hook that reads an attribute its object no longer has raises inside
    # the traced call, and the subcommand exits 3 instead of 0
    layers, spans = bench
    tracer = spans.Tracer()
    with layers.installed(tracer):
        for command, cfg in SUBCOMMANDS.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(cfg))
            code = cli.main([command, "--config", str(path), "--out",
                             str(tmp_path / command), "--threads", "1"])
            assert code == 0, command
    missing = [c for c in HOOK_COUNTERS if not tracer.counters[c] > 0]
    assert not missing, missing
