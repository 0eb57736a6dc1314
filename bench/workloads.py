"""The benchmark's four workloads.

Each workload is a closed loop with a single client: it drives the
`twospecies.cli.main` subcommands in-process, one after another, on config
files generated from the workload seed (the README configs, at the sizes
below), and calls library functions directly only where no subcommand
exists: the order audit, the total-mass heat check and the
constant-boundary oracle.  Every operation is checked; a CLI exit other
than 0, a failed output check or a failed order, oracle or z gate counts
as one failed operation and is never retried.

Why these four (layer = module of `twospecies`):

* barrier_bracket: `macro` and `fbp` do nearly all the work (the 100-step
  bisections in `cut_points` and the repairs, the Python loop in
  `split_tail`); `lattice` and `coupling` do none.
* particle_hydro: the stored O(eps^-3) walk realization and the per-ring
  rank selection of `lattice` dominate; the `macro` work is three coarse
  reference solves.
* sandwich: the per-jump Python of `coupling`; `lattice` is used
  differently here (every stored jump is traversed, not only positions at
  rings); `macro` does no work.
* mc_representation: the absorbed-path sampler of `fbp`, which the other
  workloads never reach.

`twospecies.auxiliary` has no caller outside its own tests (the sandwich
builds its comparison copies through `coupling.couple_block`), so no
workload exercises it.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from twospecies import fbp, lattice, macro

KAPPA_MACRO = 0.5
HORIZON = 0.5
SANDWICH_DELTA = 0.2
# Sandwich seeds are drawn from a pool whose exclusion counts were recorded
# in reference.json, so each run can compare its count with the record.
SANDWICH_SEED_POOL = 64
# The Monte Carlo gates are 3- and 4-sigma tests on both sides plus the
# oracle.  With seeds drawn per run they would fail by chance in a few runs
# per hundred, so the MC block keeps the README's seed and the oracle the
# acceptance suite's seed; their verdicts are then fixed by the program,
# not by the draw.
MC_SEED = 1
ORACLE_SEED = 31
MC_DT = 2.5e-4
ORDER_TOL = 1e-9
DIGEST_TOL = 1e-9
HEAT_SEEDS = 100
HEAT_TOL = 0.05


@dataclass(frozen=True)
class Size:
    fbp_delta: float
    barriers_delta: float
    audit_pairs: int            # pairs per audit kind
    audit_candidates: int       # drawn pairs per audit kind (some redrawn)
    hydro: tuple                # (epsilon, replicas) at --threads 2
    exhaustive: tuple           # (max_particles, n_sites, max_marks)
    sandwich_seeds: int
    mc_paths: int
    oracle_paths: int


FULL = Size(fbp_delta=1e-3, barriers_delta=0.0125, audit_pairs=50,
            audit_candidates=200,
            hydro=((0.02, 40), (0.01, 16), (0.005, 8)),
            exhaustive=(4, 4, 3), sandwich_seeds=100, mc_paths=30000,
            oracle_paths=20000)
# The self-check's size: every code path and metric in seconds; the
# reference digest applies to FULL only.
TINY = Size(fbp_delta=0.01, barriers_delta=0.05, audit_pairs=2,
            audit_candidates=100,
            hydro=((0.02, 2), (0.01, 2), (0.005, 1)),
            exhaustive=(2, 3, 2), sandwich_seeds=3, mc_paths=2000,
            oracle_paths=2000)
FANOUT_EPSILON = 0.01
UNEXERCISED = {"auxiliary": "no caller outside its own tests; the sandwich "
                            "builds its comparison copies through "
                            "coupling.couple_block"}


def hydro_tag(epsilon: float, threads: int) -> str:
    return f"hydro-eps{epsilon}-t{threads}"


def sandwich_sim(seed: int) -> dict:
    return {"epsilon": 0.05, "kappa": 1.0, "horizon_T": 1.0, "seed": seed}


def derived_seeds(seed: int, workload: str, n: int) -> list[int]:
    ss = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    return [int(x) for x in ss.generate_state(n)]


@dataclass
class Inputs:
    """Everything a workload's body receives, generated from the seed."""

    seed: int
    size: Size
    derived: dict[str, int]
    configs: dict[str, dict]
    paths: dict[str, str] = field(default_factory=dict)
    audit: dict[str, np.ndarray] = field(default_factory=dict)

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, cfg in self.configs.items():
            path = directory / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1))
            self.paths[name] = str(path)

    def record(self) -> dict:
        return {"seed": self.seed, "derived_seeds": self.derived,
                "configs": self.configs,
                "audit_candidates": {k: len(v) for k, v in self.audit.items()}}


# ---------------------------------------------------------------------------
# input generation


def _audit_candidates(rng: np.random.Generator, n: int, frac_range
                      ) -> np.ndarray:
    """Rows (L, D, R, E, mass_u, mass_v, n_cells, frac): random class-U tent
    pairs with the geometry of the acceptance suite's generators."""
    return np.column_stack([
        rng.uniform(-1.6, -0.8, n), rng.uniform(-0.2, 0.2, n),
        rng.uniform(0.4, 0.8, n), rng.uniform(1.1, 1.8, n),
        rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n),
        rng.integers(160, 240, n), rng.uniform(*frac_range, n)])


def build_barrier_bracket(seed: int, size: Size) -> Inputs:
    (audit_seed,) = derived_seeds(seed, "barrier_bracket", 1)
    rng = np.random.default_rng(audit_seed)
    macro_cfg = {"kappa": KAPPA_MACRO, "horizon_T": HORIZON}
    return Inputs(
        seed, size, {"audit": audit_seed},
        {"fbp": macro_cfg | {"delta": size.fbp_delta},
         "barriers": macro_cfg | {"delta": size.barriers_delta}},
        audit={"order": _audit_candidates(rng, size.audit_candidates,
                                          (0.02, 0.1)),
               "repair": _audit_candidates(rng, size.audit_candidates,
                                           (0.2, 0.5))})


def build_particle_hydro(seed: int, size: Size) -> Inputs:
    hydro_seed, heat_seed = derived_seeds(seed, "particle_hydro", 2)
    configs = {}
    for epsilon, _ in size.hydro:
        configs[f"hydro-eps{epsilon}"] = {
            "epsilon": epsilon, "kappa": KAPPA_MACRO, "horizon_T": HORIZON,
            "seed": hydro_seed, "t_eval": HORIZON, "delta_ref": 0.01,
            "threshold": 0.5}
    return Inputs(seed, size, {"hydro": hydro_seed, "heat": heat_seed},
                  configs)


def build_sandwich(seed: int, size: Size) -> Inputs:
    (raw,) = derived_seeds(seed, "sandwich", 1)
    s = raw % SANDWICH_SEED_POOL
    max_particles, n_sites, max_marks = size.exhaustive
    return Inputs(seed, size, {"sandwich": s}, {"couple": {
        "exhaustive": {"max_particles": max_particles, "n_sites": n_sites,
                       "max_marks": max_marks},
        "sandwich": sandwich_sim(s) | {"delta": SANDWICH_DELTA}}})


def build_mc_representation(seed: int, size: Size) -> Inputs:
    return Inputs(seed, size, {"mc": MC_SEED, "oracle": ORACLE_SEED}, {
        "fbp-mc": {"kappa": KAPPA_MACRO, "delta": size.fbp_delta,
                   "horizon_T": HORIZON,
                   "mc": {"t": 0.25, "n_paths": size.mc_paths,
                          "seed": MC_SEED, "dt": MC_DT, "z_max": 4.0}}})


# ---------------------------------------------------------------------------
# output checks: each returns the problems it found


def _digest(name: str, value, expected, tol: float = DIGEST_TOL) -> list[str]:
    if isinstance(value, (int, float)) and abs(value - expected) <= tol:
        return []
    return [f"{name} = {value!r}, reference {expected!r} (tol {tol})"]


def check_fbp_summary(report: dict, ref: dict | None) -> list[str]:
    s = report["summary"]
    problems = ["solve annihilated"] if s["annihilated"] else []
    if ref is not None:
        for key in ("U_final", "V_final", "final_bracket_width"):
            problems += _digest(key, s[key], ref["fbp"][key])
    return problems


def check_barriers(report: dict, ref: dict | None) -> list[str]:
    problems = []
    if not report["ordered"] or not report["final_order_gap"] <= ORDER_TOL:
        problems.append(f"bracket not ordered: gap {report['final_order_gap']}")
    if ref is not None:
        problems += _digest("final bracket width", report["bracket_widths"][-1],
                            ref["barriers_final_width"])
    return problems


def check_hydro(report: dict, replicas: int) -> list[str]:
    devs = [max(r["sup_dev_u"], r["sup_dev_v"]) for r in report["runs"]]
    problems = []
    if len(devs) != replicas:
        problems.append(f"{len(devs)} replicas reported, {replicas} run")
    if not all(math.isfinite(d) for d in devs):
        problems.append("non-finite deviation")
    if not report["mean_sup_dev"] <= report["threshold"]:
        problems.append(f"mean deviation {report['mean_sup_dev']} over "
                        f"threshold {report['threshold']}")
    return problems


def check_couple(report: dict, inp: Inputs, ref: dict | None) -> list[str]:
    ex, sw = report["exhaustive"], report["sandwich"]
    problems = []
    if not ex["ok"]:
        problems.append(f"balance identity fails: {ex['first_failure']}")
    if sw["n_violations"] != 0 or sw["counts_mismatch"] != 0:
        problems.append(f"sandwich: {sw['n_violations']} violations, "
                        f"{sw['counts_mismatch']} count mismatches")
    if ref is not None:
        for key in ("n_instances", "n_runs", "n_skipped_depleting"):
            problems += _digest(f"exhaustive {key}", ex[key],
                                ref["exhaustive"][key], 0)
        problems += _digest(
            "excluded seeds", sw["n_excluded"],
            ref["sandwich_excluded"][str(inp.derived["sandwich"])], 0)
    return problems


def check_mc(report: dict, ref: dict | None) -> list[str]:
    problems = check_fbp_summary(report, ref)
    if len(report.get("mc", [])) != 2:
        problems.append("MC block did not run on both sides")
    for mc in report.get("mc", []):
        if not abs(mc["max_abs_z"]) <= 4.0:
            problems.append(f"side {mc['side']}: max |z| {mc['max_abs_z']}")
        if not abs(mc["mass"]["z"]) <= 3.0:
            problems.append(f"side {mc['side']}: mass z {mc['mass']['z']}")
    return problems


# ---------------------------------------------------------------------------
# library-level operations (no subcommand exists for these)


def _class_u_pair(row) -> macro.ProfilePair:
    L, D, R, E, mass_u, mass_v, n_cells, _ = row
    grid = macro.GridSpec(L - 1.0, E + 1.0, int(n_cells))
    return macro.ProfilePair(grid, macro.tent(grid, L, R, mass_u),
                             macro.tent(grid, D, E, mass_v))


def _uncrossed(p: macro.ProfilePair, q: float) -> bool:
    cp = macro.cut_points(p, q)
    return cp.D_delta < cp.R_delta


def _gap_problem(what: str, gap: float, tol: float = ORDER_TOL) -> list[str]:
    return [] if gap <= tol else [f"{what}: order gap {gap} > {tol}"]


def order_audit_pair(rows) -> list[str]:
    """Acceptance item 5 on the next usable candidate: the cut and the
    smoothing keep an ordered pair ordered.  Candidates whose transfer
    points cross are outside the theorem's regime and are redrawn."""
    for row in rows:
        p = _class_u_pair(row)
        q0 = row[7] * min(p.mass_u, p.mass_v)
        if not _uncrossed(p, q0):
            continue
        lower, upper = macro.apply_cut(p, q0), p
        q = 0.02 * min(lower.mass_u, lower.mass_v)
        if not (_uncrossed(lower, q) and _uncrossed(upper, q)):
            continue
        return (_gap_problem("cut", macro.order_gap(
                    macro.apply_cut(lower, q), macro.apply_cut(upper, q))[0])
                + _gap_problem("smoothing", macro.order_gap(
                    macro.gauss_convolve(lower, 0.02),
                    macro.gauss_convolve(upper, 0.02))[0]))
    return ["order audit ran out of candidates"]


def repair_audit_pair(rows) -> list[str]:
    """Acceptance item 6 on the next usable candidate: the repairs bound
    an order defect modulo m and a plus step keeps it within 2m."""
    delta, kappa = 0.05, 0.5
    for row in rows:
        p = _class_u_pair(row)
        m = 0.02 * min(p.mass_u, p.mass_v)
        q1 = row[7] * m
        if not _uncrossed(p, q1):
            continue
        try:
            p1 = macro.repair_upper(p, m - q1, m0=macro.default_m0(p))
            p2 = macro.apply_cut(p, q1)
            upper = macro.repair_upper(p2, m, m0=macro.default_m0(p2))
            lower = macro.repair_lower(p1, m, m0=macro.default_m0(p1))
        except macro.RepairError:
            continue
        s1 = macro.barrier_step(p1, delta, kappa, "plus")
        s2 = macro.barrier_step(p2, delta, kappa, "plus")
        return (_gap_problem("p1 <= upper", macro.order_gap(p1, upper)[0])
                + _gap_problem("p2 <= upper", macro.order_gap(p2, upper)[0])
                + _gap_problem("plus step mod 2m", macro.order_gap(s1, s2)[0],
                               2.0 * m + 1e-8)
                + _gap_problem("lower <= p1", macro.order_gap(lower, p1)[0])
                + _gap_problem("lower <= p2", macro.order_gap(lower, p2)[0]))
    return ["repair audit ran out of candidates"]


def heat_check(seed: int) -> list[str]:
    """Acceptance item 7: total-mass tails of `evolve_positions` runs follow
    the heat semigroup (sup error of the seed-averaged tail <= 0.05)."""
    epsilon, t = 0.02, HORIZON
    profile = macro.tent_pair()
    cfg = lattice.SimConfig(epsilon=epsilon, kappa=1.0, horizon_T=t, seed=seed)
    conv = macro.gauss_convolve(profile, t)
    xs = np.arange(int(np.ceil(-3.0 / epsilon)),
                   int(np.floor(3.0 / epsilon)) + 1)
    rs = epsilon * (xs - 0.5)
    ref = (np.asarray(macro.tail_integral(conv.u, conv.grid, rs))
           + np.asarray(macro.tail_integral(conv.v, conv.grid, rs)))
    acc = np.zeros_like(rs)
    for rep in range(HEAT_SEEDS):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
        rng_init, _, rng_walk = map(np.random.default_rng, ss.spawn(3))
        ps = lattice.sample_initial(profile, cfg, rng_init)
        st = lattice.evolve_positions(ps, 0.0, cfg.micro_horizon, rng_walk)
        acc += (lattice.scaled_tail_curve(st, lattice.A, rs, epsilon)
                + lattice.scaled_tail_curve(st, lattice.B, rs, epsilon))
    sup_dev = float(np.max(np.abs(acc / HEAT_SEEDS - ref)))
    return [] if sup_dev <= HEAT_TOL else [f"heat sup error {sup_dev}"]


def oracle_check(n_paths: int) -> list[str]:
    """Constant-boundary oracle: the MC hitting probability is within 3
    standard errors of the reflection-principle value."""
    rng = np.random.default_rng(np.random.SeedSequence(ORACLE_SEED))
    est, exact, se = fbp.constant_boundary_check(0.0, 1.0, 0.25, n_paths,
                                                 MC_DT, rng)
    if abs(est - exact) <= 3.0 * se:
        return []
    return [f"oracle {est} vs exact {exact} (se {se})"]


# ---------------------------------------------------------------------------
# bodies: one closed-loop pass of each workload


def run_barrier_bracket(it, inp: Inputs, ref: dict | None) -> None:
    it.cli("fbp", "fbp", inp.paths["fbp"],
           check=lambda r: check_fbp_summary(r, ref))
    it.cli("barriers", "barriers", inp.paths["barriers"],
           check=lambda r: check_barriers(r, ref))
    for kind, audit in (("order", order_audit_pair),
                        ("repair", repair_audit_pair)):
        rows = iter(inp.audit[kind])
        for k in range(inp.size.audit_pairs):
            it.op(f"{kind}-audit-{k}", lambda: audit(rows))


def run_particle_hydro(it, inp: Inputs, ref: dict | None) -> None:
    reports = {}
    for epsilon, replicas in inp.size.hydro:
        reports[epsilon] = it.cli(
            hydro_tag(epsilon, 2), "hydro-compare",
            inp.paths[f"hydro-eps{epsilon}"],
            ["--seeds", str(replicas), "--threads", "2"],
            check=lambda r, n=replicas: check_hydro(r, n))
    replicas = dict(inp.size.hydro)[FANOUT_EPSILON]
    threaded = reports[FANOUT_EPSILON]
    it.cli(hydro_tag(FANOUT_EPSILON, 1), "hydro-compare",
           inp.paths[f"hydro-eps{FANOUT_EPSILON}"],
           ["--seeds", str(replicas), "--threads", "1"],
           check=lambda r: check_hydro(r, replicas) + (
               [] if threaded is not None and r["runs"] == threaded["runs"]
               else ["--threads 1 and --threads 2 disagree"]))
    it.op("heat-check", lambda: heat_check(inp.derived["heat"]))


def run_sandwich(it, inp: Inputs, ref: dict | None) -> None:
    it.cli("couple-verify", "couple-verify", inp.paths["couple"],
           ["--seeds", str(inp.size.sandwich_seeds)],
           check=lambda r: check_couple(r, inp, ref))


def run_mc_representation(it, inp: Inputs, ref: dict | None) -> None:
    it.cli("fbp-mc", "fbp", inp.paths["fbp-mc"],
           check=lambda r: check_mc(r, ref))
    it.op("oracle", lambda: oracle_check(inp.size.oracle_paths))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Size], Inputs]
    body: Callable


WORKLOADS = {w.name: w for w in (
    Workload("barrier_bracket", build_barrier_bracket, run_barrier_bracket),
    Workload("particle_hydro", build_particle_hydro, run_particle_hydro),
    Workload("sandwich", build_sandwich, run_sandwich),
    Workload("mc_representation", build_mc_representation,
             run_mc_representation),
)}
