"""Traced bindings of the twospecies layers and the per-layer metrics.

`installed(tracer)` replaces each traced function at every binding where
its callers look it up: the module attribute, the by-name imports in other
modules (`coupling` imports `run_true`, `sample_initial`, `sample_clock`
and `in_X` from `lattice`; `fbp` imports `iterate_barriers`,
`tail_integral` and `l1_distance_u` from `macro`) and class attributes
(`PositionRealization.sample`, `TrueTrajectory.state_at`).  Counters are
taken in the same wrappers, from each call's arguments and result.
"""
from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from twospecies import cli, coupling, fbp, lattice, macro

from spans import SpanTable, Tracer
from workloads import FANOUT_EPSILON, FULL, hydro_tag


# ---------------------------------------------------------------------------
# counters derived from a call's arguments and result


def _on_realization(tr: Tracer, real, args) -> None:
    arrays = [real.x0, *real.jump_times, *real.steps, *real.paths]
    tr.add("lattice.stored_jumps", sum(len(t) for t in real.jump_times))
    tr.add("lattice.stored_bytes", sum(a.nbytes for a in arrays))


def _on_run_true(tr: Tracer, traj, args) -> None:
    tr.add("lattice.rings", int(np.count_nonzero(traj.log.times <= traj.t_end)))
    tr.add("lattice.absent_flips", traj.absent_flip_count)


def _on_barrier_step(tr: Tracer, result, args) -> None:
    tr.add("macro.nodes", args["p"].grid.n_nodes)


def _on_solve_reference(tr: Tracer, sol, args) -> None:
    profiles = list(sol.minus) + list(sol.plus or [])
    arrays = [a for p in profiles for a in (p.u, p.v)]
    arrays += [sol.times, sol.boundaries.times, sol.boundaries.U,
               sol.boundaries.V]
    if sol.bracket_widths is not None:
        arrays.append(sol.bracket_widths)
    tr.peak("fbp.solution_bytes", sum(a.nbytes for a in arrays))


def _on_simulate_absorbed(tr: Tracer, result, args) -> None:
    _, absorbed = result
    n_steps = int(round(args["t_end"] / args["dt"]))
    start_idx = np.clip(np.ceil(np.asarray(args["starts_t"], float)
                                / args["dt"] - 1e-12).astype(int), 0, n_steps)
    tr.add("fbp.path_steps", int(np.sum(n_steps - start_idx)))
    tr.add("fbp.paths", len(absorbed))
    tr.add("fbp.absorbed", int(np.count_nonzero(absorbed)))


def _on_exhaustive(tr: Tracer, rep, args) -> None:
    tr.add("coupling.exhaustive.runs", rep.n_runs)


def _on_sandwich(tr: Tracer, rep, args) -> None:
    tr.add("coupling.sandwich.seeds", rep.n_seeds)
    tr.add("coupling.sandwich.excluded", rep.n_excluded)
    tr.add("coupling.sandwich.violations", rep.n_violations)


# (owners, attribute, span name, counter hook); every owner gets the same
# traced stand-in for the function the first owner holds.
TRACED = [
    ((lattice, coupling), "sample_initial", "lattice.sample_initial", None),
    ((lattice, coupling), "sample_clock", "lattice.sample_clock", None),
    ((lattice, coupling), "run_true", "lattice.run_true", _on_run_true),
    ((lattice, coupling), "in_X", "lattice.in_X", None),
    ((lattice,), "evolve_positions", "lattice.evolve_positions", None),
    ((lattice.PositionRealization,), "sample", "lattice.realization",
     _on_realization),
    ((lattice.TrueTrajectory,), "state_at", "lattice.state_at", None),
    ((coupling,), "couple_block", "coupling.couple_block", None),
    ((coupling,), "build_splitting", "coupling.build_splitting", None),
    ((coupling,), "apply_C1", "coupling.apply_C", None),
    ((coupling,), "apply_C2", "coupling.apply_C", None),
    ((coupling,), "order_witness", "coupling.order_witness", None),
    ((coupling,), "exhaustive_balance_check", "coupling.exhaustive",
     _on_exhaustive),
    ((coupling,), "verify_sandwich", "coupling.sandwich", _on_sandwich),
    ((macro,), "barrier_step", "macro.barrier_step", _on_barrier_step),
    ((macro,), "apply_cut", "macro.apply_cut", None),
    ((macro,), "gauss_convolve", "macro.gauss_convolve", None),
    ((macro,), "order_gap", "macro.order_gap", None),
    ((macro,), "cut_points", "macro.cut_points", None),
    ((macro,), "repair_upper", "macro.repair", None),
    ((macro,), "repair_lower", "macro.repair", None),
    ((macro, fbp), "tail_integral", "macro.tail_integral", None),
    ((macro, fbp), "iterate_barriers", "macro.iterate_barriers", None),
    ((macro, fbp), "l1_distance_u", "macro.l1_distance_u", None),
    ((fbp,), "solve_reference", "fbp.solve_reference", _on_solve_reference),
    ((fbp,), "extract_boundaries", "fbp.boundaries", None),
    ((fbp,), "refined_boundary_curves", "fbp.boundaries", None),
    ((fbp,), "simulate_absorbed", "fbp.simulate_absorbed",
     _on_simulate_absorbed),
    ((fbp,), "mc_validate", "fbp.mc_validate", None),
    ((fbp,), "constant_boundary_check", "fbp.constant_boundary_check", None),
    ((cli,), "write_report", "cli.write", None),
    ((cli,), "write_manifest", "cli.write", None),
    ((macro,), "profile_to_csv", "cli.write", None),
    ((fbp,), "boundaries_to_csv", "cli.write", None),
    ((fbp,), "solution_summary_json", "cli.write", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Route every binding in TRACED through the tracer; restore on exit."""
    saved = []
    try:
        for owners, attr, name, hook in TRACED:
            raw = vars(owners[0])[attr]
            if isinstance(raw, classmethod):
                stand_in = classmethod(tracer.wrap(name, raw.__func__, hook))
            else:
                stand_in = tracer.wrap(name, raw, hook)
            for owner in owners:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, stand_in)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit); BENCHMARK.json lists the same names


INCLUSIVE_S = [
    "macro.barrier_step", "macro.apply_cut", "macro.gauss_convolve",
    "macro.order_gap", "macro.cut_points", "macro.repair",
    "fbp.solve_reference", "fbp.boundaries", "fbp.simulate_absorbed",
    "fbp.mc_validate", "fbp.constant_boundary_check",
    "lattice.realization", "lattice.run_true", "lattice.state_at",
    "lattice.sample_initial", "lattice.sample_clock",
    "lattice.evolve_positions",
    "coupling.build_splitting", "coupling.order_witness",
    "coupling.exhaustive",
    "cli.fbp", "cli.barriers", "cli.hydro_compare", "cli.couple_verify",
    "cli.write",
]
CALLS = ["macro.cut_points", "macro.tail_integral", "fbp.simulate_absorbed",
         "coupling.couple_block", "coupling.apply_C"]
HYDRO_EPSILONS = tuple(eps for eps, _ in FULL.hydro)
SWEEP_DELTAS = {"0.0125": "barriers", "1e-3": "fbp"}

METRICS: dict[str, str] = (
    {f"{n}.s": "s" for n in INCLUSIVE_S}
    | {f"{n}.calls": "count" for n in CALLS}
    | {
        "coupling.couple_block.s": "s",
        "macro.nodes_per_step": "nodes",
        **{f"macro.solve_s.delta{d}": "s" for d in SWEEP_DELTAS},
        "macro.delta_cost_slope": "ratio",
        "fbp.solution_bytes": "bytes",
        "fbp.path_steps": "count",
        "fbp.path_steps_per_s": "1/s",
        "fbp.absorbed_frac": "ratio",
        "lattice.stored_jumps": "count",
        "lattice.stored_mb": "MB",
        "lattice.jumps_per_ring": "ratio",
        "lattice.rings": "count",
        "lattice.absent_flips": "count",
        **{f"lattice.replica_s.eps{e}": "s" for e in HYDRO_EPSILONS},
        "lattice.eps_cost_slope": "ratio",
        "coupling.exhaustive.runs": "count",
        "coupling.sandwich.kept_frac": "ratio",
        "coupling.sandwich.violations": "count",
        "cli.output_bytes": "bytes",
        "cli.fanout_speedup": "ratio",
        "trace.overhead_frac": "ratio",
    })
# Counts that depend only on the inputs: equal on every traced run of a seed.
EXACT_COUNTS = ["macro.tail_integral.calls", "coupling.exhaustive.runs",
                "lattice.stored_jumps", "lattice.rings"]

REPLICA_SPANS = ("lattice.sample_initial", "lattice.sample_clock",
                 "lattice.run_true", "lattice.state_at")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _log_slope(costs: dict[float, float]) -> float:
    """Least-squares slope of log(cost) against log(1/x); 0 if any point is
    missing."""
    if len(costs) < 2 or not all(v > 0 for v in costs.values()):
        return 0.0
    xs = np.log([1.0 / x for x in costs])
    ys = np.log(list(costs.values()))
    return float(np.polyfit(xs, ys, 1)[0])


def per_layer(tracer: Tracer, untraced, traced, hydro_replicas: dict,
              overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `untraced` and `traced` are the two passes' Iteration objects (wall time,
    per-tag wall times, output bytes); `hydro_replicas` maps epsilon to the
    replica count of the hydro-compare call at that epsilon; `overhead` is
    the traced pass's time over the untraced one's, less 1, both at
    reference speed.
    """
    table = SpanTable(tracer.spans)
    c = tracer.counters
    m: dict[str, float] = {f"{n}.s": table.total(n) for n in INCLUSIVE_S}
    m |= {f"{n}.calls": float(table.calls(n)) for n in CALLS}
    m["coupling.couple_block.s"] = table.self_total("coupling.couple_block")
    m["macro.nodes_per_step"] = _ratio(c["macro.nodes"],
                                       table.calls("macro.barrier_step"))

    sweep = {}
    for label, tag in SWEEP_DELTAS.items():
        span = table.tagged(tag)
        within = table.descendants(span) if span else set()
        m[f"macro.solve_s.delta{label}"] = table.total("macro.barrier_step",
                                                       within)
        if span is not None:
            sweep[float(label)] = m[f"macro.solve_s.delta{label}"]
    m["macro.delta_cost_slope"] = _log_slope(sweep)

    m["fbp.solution_bytes"] = c["fbp.solution_bytes"]
    m["fbp.path_steps"] = c["fbp.path_steps"]
    m["fbp.path_steps_per_s"] = _ratio(c["fbp.path_steps"],
                                       m["fbp.simulate_absorbed.s"])
    m["fbp.absorbed_frac"] = _ratio(c["fbp.absorbed"], c["fbp.paths"])

    m["lattice.stored_jumps"] = c["lattice.stored_jumps"]
    m["lattice.stored_mb"] = c["lattice.stored_bytes"] / 1e6
    m["lattice.rings"] = c["lattice.rings"]
    m["lattice.absent_flips"] = c["lattice.absent_flips"]
    m["lattice.jumps_per_ring"] = _ratio(c["lattice.stored_jumps"],
                                         c["lattice.rings"])
    costs = {}
    for eps in HYDRO_EPSILONS:
        span = table.tagged(hydro_tag(eps, 2))
        cost = 0.0
        if span is not None:
            within = table.descendants(span)
            cost = sum(table.total(n, within) for n in REPLICA_SPANS)
            cost /= hydro_replicas[eps]
            costs[eps] = cost
        m[f"lattice.replica_s.eps{eps}"] = cost
    m["lattice.eps_cost_slope"] = _log_slope(costs)

    m["coupling.exhaustive.runs"] = c["coupling.exhaustive.runs"]
    m["coupling.sandwich.kept_frac"] = _ratio(
        c["coupling.sandwich.seeds"] - c["coupling.sandwich.excluded"],
        c["coupling.sandwich.seeds"])
    m["coupling.sandwich.violations"] = c["coupling.sandwich.violations"]

    m["cli.output_bytes"] = float(traced.output_bytes)
    m["cli.fanout_speedup"] = _ratio(
        untraced.walls.get(hydro_tag(FANOUT_EPSILON, 1), 0.0),
        untraced.walls.get(hydro_tag(FANOUT_EPSILON, 2), 0.0))
    m["trace.overhead_frac"] = overhead
    if set(m) != set(METRICS):
        raise RuntimeError(f"metric set mismatch: {set(m) ^ set(METRICS)}")
    return {k: float(v) if math.isfinite(v) else 0.0 for k, v in m.items()}
