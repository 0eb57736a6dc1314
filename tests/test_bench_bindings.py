"""The bench tracer's bindings (bench/layers.py) resolve in the toolkit.

`bench/layers.installed` replaces each function of its TRACED table at
every module or class that binds it, looking the function up with
`vars(owner)[name]`.  A rename, a moved import or a call that bypasses the
binding breaks `bench/run.py --trace 1` without failing any other test.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from twospecies import fbp, macro

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
