"""Command line harness.

Subcommands:
  simulate        microscopic particle runs, occupation and profile dumps
  couple-verify   exhaustive balance check and pathwise sandwich check
  barriers        deterministic barrier iterations with bracket diagnostics
  fbp             free-boundary reference solve, optional MC validation
  hydro-compare   particle tails against the macroscopic reference

Every run writes manifest.json and report.json (plus CSVs) into --out.
Exit status: 0 on pass, 1 on a detected violation, 2 on usage or config
errors, 3 on an unexpected error (its traceback goes to stderr).
"""
from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, coupling, fbp, lattice, macro


class ConfigError(Exception):
    pass


# Seeds are integers of any size, since SeedSequence takes big integers;
# every other integer key is a count or size that numpy takes as an int64.
SEED = numbers.Integral


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _finite(val) -> bool:
    """False for NaN, an infinity (JSON `NaN`, `Infinity`) or an integer
    too large for a float."""
    return abs(val) <= sys.float_info.max


def require(cfg: dict, key: str, typ=None):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    val = cfg[key]
    if typ is None:
        return val
    types = typ if isinstance(typ, tuple) else (typ,)
    # JSON true/false load as bool, a subclass of int: only bool keys take them
    if not isinstance(val, types) or (isinstance(val, bool)
                                      and bool not in types):
        raise ConfigError(f"config key {key!r} has wrong type")
    if float in types and not _finite(val):
        raise ConfigError(f"config key {key!r} must be a finite number")
    if types == (int,) and not -2**63 <= val < 2**63:
        raise ConfigError(f"config key {key!r} does not fit an int64")
    return val


def optional(cfg: dict, key: str, typ, default):
    """Like `require`, but an absent key gives `default`."""
    return require(cfg, key, typ) if key in cfg else default


def positive(val, key: str):
    if not 0 < val < math.inf:
        raise ConfigError(f"config key {key!r} must be positive and finite")
    return val


def nonnegative(val, key: str):
    if not val >= 0:
        raise ConfigError(f"config key {key!r} must be nonnegative")
    return val


def grid_from_config(spec: dict) -> macro.GridSpec:
    return macro.GridSpec(require(spec, "r_min", (int, float)),
                          require(spec, "r_max", (int, float)),
                          require(spec, "n_cells", int))


def profile_from_config(cfg: dict) -> macro.ProfilePair:
    """Build the initial datum; defaults to the overlapping tents."""
    spec = optional(cfg, "profile", dict, None)
    if spec is None:
        return macro.tent_pair()
    grid = grid_from_config(require(spec, "grid", dict))
    ut = require(spec, "u_tent", list)
    vt = require(spec, "v_tent", list)
    for key, entries in (("u_tent", ut), ("v_tent", vt)):
        if len(entries) != 3 or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                and _finite(x) for x in entries):
            raise ConfigError(f"{key} must be [left, right, mass], "
                              "three finite numbers")
    return macro.ProfilePair(grid, macro.tent(grid, *ut), macro.tent(grid, *vt))


def sim_config(cfg: dict) -> lattice.SimConfig:
    return lattice.SimConfig(
        epsilon=require(cfg, "epsilon", (int, float)),
        kappa=require(cfg, "kappa", (int, float)),
        horizon_T=require(cfg, "horizon_T", (int, float)),
        seed=nonnegative(require(cfg, "seed", SEED), "seed"),
    )


def write_manifest(out: Path, args, cfg: dict, t0: float) -> None:
    with open(out / "manifest.json", "w") as fh:
        json.dump({
            "command": args.command,
            "config": cfg,
            "seeds": args.seeds,
            "threads": args.threads,
            "version": __version__,
            "wall_time_s": round(time.time() - t0, 3),
        }, fh, indent=2)


def write_report(out: Path, report: dict) -> None:
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)


def map_seeds(fn, n_seeds: int, threads: int) -> list:
    """Run fn(rep) for rep in 0..n_seeds-1; each replica owns a seed
    substream, so thread scheduling cannot change the results."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n_seeds)))
    return [fn(rep) for rep in range(n_seeds)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args, cfg: dict, out: Path) -> int:
    scfg = sim_config(cfg)
    profile = profile_from_config(cfg)

    def one(rep: int) -> dict:
        ss = np.random.SeedSequence(entropy=scfg.seed, spawn_key=(rep,))
        rng_init, rng_clock, rng_walk = map(np.random.default_rng, ss.spawn(3))
        ps0 = lattice.sample_initial(profile, scfg, rng_init)
        log = lattice.sample_clock(scfg, rng_clock)
        traj = lattice.run_true(ps0, log, scfg.micro_horizon, rng=rng_walk)
        final = traj.state_at(scfg.micro_horizon)
        lattice.write_occupation_csv(out / f"occupation_seed{rep}.csv", final)
        emp = lattice.empirical_profile(final, scfg, profile.grid)
        macro.profile_to_csv(emp, out / f"empirical_seed{rep}.csv")
        h_a0 = int(np.sum(ps0.colors == lattice.A))
        return {
            "seed_index": rep,
            "M": ps0.M,
            "n_rings": len(log),
            "in_X": lattice.in_X(h_a0, ps0.M, log, scfg.micro_horizon),
            "absent_flips": traj.absent_flip_count,
        }

    rows = map_seeds(one, args.seeds, args.threads)
    write_report(out, {"runs": rows})
    return 0


def cmd_couple_verify(args, cfg: dict, out: Path) -> int:
    report: dict = {}
    ok = True
    enum_cfg = optional(cfg, "exhaustive", dict, None)
    if enum_cfg is not None:
        rep = coupling.exhaustive_balance_check(
            max_particles=positive(optional(enum_cfg, "max_particles", int, 4),
                                   "max_particles"),
            n_sites=positive(optional(enum_cfg, "n_sites", int, 4), "n_sites"),
            max_marks=nonnegative(optional(enum_cfg, "max_marks", int, 3),
                                  "max_marks"))
        report["exhaustive"] = vars(rep)
        ok = ok and rep.ok
    sand_cfg = optional(cfg, "sandwich", dict, None)
    if sand_cfg is not None:
        scfg = sim_config(sand_cfg)
        profile = profile_from_config(sand_cfg)
        delta = positive(require(sand_cfg, "delta", (int, float)), "delta")
        srep = coupling.verify_sandwich(scfg, profile, delta, args.seeds)
        report["sandwich"] = srep.to_dict()
        ok = ok and srep.ok
    if not report:
        raise ConfigError("couple-verify needs an 'exhaustive' or 'sandwich' block")
    write_report(out, report)
    return 0 if ok else 1


def cmd_barriers(args, cfg: dict, out: Path) -> int:
    kappa = require(cfg, "kappa", (int, float))
    delta = positive(require(cfg, "delta", (int, float)), "delta")
    T = positive(require(cfg, "horizon_T", (int, float)), "horizon_T")
    p0 = profile_from_config(cfg)
    n = macro.step_count(T, delta)
    try:
        minus = macro.iterate_barriers(p0, delta, kappa, n, "minus")
        plus = macro.iterate_barriers(p0, delta, kappa, n, "plus")
    except macro.AnnihilationError as exc:
        # a model outcome, not a usage error: reported like fbp's
        write_report(out, {"n_steps": n, "annihilated": True,
                           "error": str(exc)})
        return 1
    macro.profile_to_csv(minus[-1], out / "final_minus.csv")
    macro.profile_to_csv(plus[-1], out / "final_plus.csv")
    gap, r_at = macro.order_gap(minus[-1], plus[-1])
    widths = [macro.l1_distance_u(a, b) for a, b in zip(minus, plus)]
    ordered = gap <= 1e-9
    write_report(out, {
        "n_steps": n,
        "annihilated": False,
        "bracket_widths": widths,
        "final_order_gap": gap,
        "final_order_gap_at": r_at,
        "ordered": ordered,
    })
    return 0 if ordered else 1


def cmd_fbp(args, cfg: dict, out: Path) -> int:
    kappa = require(cfg, "kappa", (int, float))
    delta = positive(require(cfg, "delta", (int, float)), "delta")
    T = positive(require(cfg, "horizon_T", (int, float)), "horizon_T")
    p0 = profile_from_config(cfg)
    sol = fbp.solve_reference(p0, kappa, T, delta,
                              both_variants=optional(cfg, "both_variants",
                                                     bool, True))
    fbp.boundaries_to_csv(sol.boundaries, out / "boundaries.csv")
    macro.profile_to_csv(sol.minus[-1], out / "final_minus.csv")
    fbp.solution_summary_json(sol, out / "summary.json")
    report = {"summary": fbp.solution_summary(sol)}
    ok = not sol.annihilated
    mc_cfg = optional(cfg, "mc", dict, None)
    if mc_cfg is not None:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                nonnegative(optional(mc_cfg, "seed", SEED, 0), "mc.seed")))
        z_max = nonnegative(optional(mc_cfg, "z_max", (int, float), 4.0),
                            "mc.z_max")
        t = require(mc_cfg, "t", (int, float))
        n_paths = positive(require(mc_cfg, "n_paths", int), "n_paths")
        dt = positive(optional(mc_cfg, "dt", (int, float), 1e-4), "dt")
        checks = []
        for side in ("u", "v"):
            mc = fbp.mc_validate(sol, t, n_paths, rng, side=side, dt=dt)
            checks.append(mc.to_dict())
            ok = ok and mc.max_abs_z <= z_max and abs(mc.mass.z) <= 3.0
        report["mc"] = checks
    write_report(out, report)
    return 0 if ok else 1


def cmd_hydro_compare(args, cfg: dict, out: Path) -> int:
    scfg = sim_config(cfg)
    profile = profile_from_config(cfg)
    t_eval = nonnegative(optional(cfg, "t_eval", (int, float), scfg.horizon_T),
                         "t_eval")
    if t_eval > scfg.horizon_T:
        raise ConfigError(f"t_eval {t_eval} exceeds horizon_T {scfg.horizon_T}: "
                          "the clock rings only up to horizon_T")
    delta_ref = positive(optional(cfg, "delta_ref", (int, float), 0.01),
                         "delta_ref")
    threshold = optional(cfg, "threshold", (int, float), None)
    if threshold is not None:
        nonnegative(threshold, "threshold")
    sol = fbp.solve_reference(profile, scfg.kappa, t_eval, delta_ref)
    ref = sol.profile_at(t_eval)
    rs = ref.grid.nodes()
    ref_tail_u = np.asarray(macro.tail_integral(ref.u, ref.grid, rs))
    ref_tail_v = np.asarray(macro.tail_integral(ref.v, ref.grid, rs))

    def one(rep: int) -> dict:
        ss = np.random.SeedSequence(entropy=scfg.seed, spawn_key=(rep,))
        rng_init, rng_clock, rng_walk = map(np.random.default_rng, ss.spawn(3))
        ps0 = lattice.sample_initial(profile, scfg, rng_init)
        log = lattice.sample_clock(scfg, rng_clock)
        t_micro = t_eval / scfg.epsilon**2
        traj = lattice.run_true(ps0, log, t_micro, rng=rng_walk)
        st = traj.state_at(t_micro)
        dev_u = np.max(np.abs(
            lattice.scaled_tail_curve(st, lattice.A, rs, scfg.epsilon) - ref_tail_u))
        dev_v = np.max(np.abs(
            lattice.scaled_tail_curve(st, lattice.B, rs, scfg.epsilon) - ref_tail_v))
        return {"seed_index": rep, "sup_dev_u": float(dev_u),
                "sup_dev_v": float(dev_v)}

    rows = map_seeds(one, args.seeds, args.threads)
    devs = np.array([max(r["sup_dev_u"], r["sup_dev_v"]) for r in rows])
    mean = float(devs.mean())
    se = float(devs.std(ddof=1) / np.sqrt(len(devs))) if len(devs) > 1 else 0.0
    ok = threshold is None or mean <= threshold
    write_report(out, {
        "t_eval": t_eval,
        "epsilon": scfg.epsilon,
        "mean_sup_dev": mean,
        "se_sup_dev": se,
        "threshold": threshold,
        "runs": rows,
    })
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "simulate": cmd_simulate,
    "couple-verify": cmd_couple_verify,
    "barriers": cmd_barriers,
    "fbp": cmd_fbp,
    "hydro-compare": cmd_hydro_compare,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twospecies",
        description="Two-species exchange-driven particle system toolkit")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON config file")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seeds", type=int, default=1,
                    help="number of independent replicas (default 1)")
    ap.add_argument("--threads", type=int, default=1,
                    help="max worker threads for replica fan-out (default 1)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seeds < 1 or args.threads < 1:
        print("error: --seeds and --threads must be positive", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        status = COMMANDS[args.command](args, cfg, out)
        write_manifest(out, args, cfg, t0)
        return status
    except (ConfigError, macro.ProfileError, lattice.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # neither a verdict nor a usage error: exit 1 would read as a violation
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
