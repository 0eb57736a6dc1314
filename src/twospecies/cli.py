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
import numbers
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__, coupling, fbp, lattice, macro


class ConfigError(Exception):
    pass


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


def _number(val) -> bool:
    """A finite number that is not a bool, as `_checked` takes for NUMBER."""
    return isinstance(val, NUMBER) and not isinstance(val, bool) and _finite(val)


# A schema maps each key to (type, default or REQUIRED, bound or None); a
# type that is itself a schema is a nested block, and a bound is (test, what).
# Seeds are integers of any size, since SeedSequence takes big integers;
# every other integer key is a count or size that numpy takes as an int64.
REQUIRED = object()
NUMBER = (int, float)
SEED = numbers.Integral
POSITIVE = (lambda v: v > 0, "positive")
NONNEGATIVE = (lambda v: v >= 0, "nonnegative")
TENT = (lambda v: len(v) == 3 and all(map(_number, v)),
        "[left, right, mass], three finite numbers")

GRID = {"r_min": (NUMBER, REQUIRED, None), "r_max": (NUMBER, REQUIRED, None),
        "n_cells": (int, REQUIRED, None)}
PROFILE = {"grid": (GRID, REQUIRED, None), "u_tent": (list, REQUIRED, TENT),
           "v_tent": (list, REQUIRED, TENT)}
SIM = {"epsilon": (NUMBER, REQUIRED, None), "kappa": (NUMBER, REQUIRED, None),
       "horizon_T": (NUMBER, REQUIRED, None),
       "seed": (SEED, REQUIRED, NONNEGATIVE), "profile": (PROFILE, None, None)}
MACRO = {"kappa": (NUMBER, REQUIRED, NONNEGATIVE),
         "delta": (NUMBER, REQUIRED, POSITIVE),
         "horizon_T": (NUMBER, REQUIRED, POSITIVE),
         "profile": (PROFILE, None, None)}
EXHAUSTIVE = {"max_particles": (int, 4, POSITIVE), "n_sites": (int, 4, POSITIVE),
              "max_marks": (int, 3, NONNEGATIVE)}
MC = {"t": (NUMBER, REQUIRED, NONNEGATIVE), "n_paths": (int, REQUIRED, POSITIVE),
      "seed": (SEED, 0, NONNEGATIVE), "dt": (NUMBER, 1e-4, POSITIVE),
      "z_max": (NUMBER, 4.0, NONNEGATIVE)}
SCHEMAS = {
    "simulate": SIM,
    "couple-verify": {
        "exhaustive": (EXHAUSTIVE, None, None),
        "sandwich": (SIM | {"delta": (NUMBER, REQUIRED, POSITIVE)}, None, None)},
    "barriers": MACRO,
    "fbp": MACRO | {"mc": (MC, None, None)},
    # a t_eval of None means horizon_T
    "hydro-compare": SIM | {"t_eval": (NUMBER, None, NONNEGATIVE),
                            "delta_ref": (NUMBER, 0.01, POSITIVE),
                            "threshold": (NUMBER, None, NONNEGATIVE)},
}


def read(cfg: dict, schema: dict, where: str = "") -> dict:
    """Check cfg against schema and return it with the defaults filled in;
    `where` is the dotted prefix of a nested block in error messages."""
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"unknown config key {where + key!r}")
    out = {}
    for key, (typ, default, bound) in schema.items():
        name = where + key
        if key not in cfg:
            if default is REQUIRED:
                raise ConfigError(f"missing config key {name!r}")
            out[key] = default
        elif isinstance(typ, dict):
            out[key] = read(_checked(cfg[key], dict, None, name), typ, name + ".")
        else:
            out[key] = _checked(cfg[key], typ, bound, name)
    return out


def _checked(val, typ, bound, name: str):
    # JSON true/false load as bool, a subclass of int: no key takes them
    if not isinstance(val, typ) or isinstance(val, bool):
        raise ConfigError(f"config key {name!r} has wrong type")
    if typ is NUMBER and not _finite(val):
        raise ConfigError(f"config key {name!r} must be a finite number")
    if typ is int and not -2**63 <= val < 2**63:
        raise ConfigError(f"config key {name!r} does not fit an int64")
    if bound is not None and not bound[0](val):
        raise ConfigError(f"config key {name!r} must be {bound[1]}")
    return val


def profile_from_config(cfg: dict) -> macro.ProfilePair:
    """Build the initial datum; defaults to the overlapping tents."""
    spec = cfg["profile"]
    if spec is None:
        return macro.tent_pair()
    grid = macro.GridSpec(**spec["grid"])
    return macro.ProfilePair(grid, macro.tent(grid, *spec["u_tent"]),
                             macro.tent(grid, *spec["v_tent"]))


def check_multiple(T: float, t_key: str, step: float, step_key: str) -> None:
    """Exit 2, naming both keys, unless T is a whole number of steps."""
    try:
        macro.step_count(T, step)
    except macro.ProfileError:
        raise ConfigError(f"config key {t_key!r} {T} is not a multiple of "
                          f"{step_key!r} {step}") from None


def sim_config(cfg: dict) -> lattice.SimConfig:
    return lattice.SimConfig(epsilon=cfg["epsilon"], kappa=cfg["kappa"],
                             horizon_T=cfg["horizon_T"], seed=cfg["seed"])


def write_manifest(out: Path, args, cfg: dict, t0: float) -> None:
    with open(out / "manifest.json", "w") as fh:
        json.dump({
            "command": args.command,
            "config": cfg,
            "seeds": args.seeds,
            "threads": args.threads,
            "workers": lattice.worker_count(args.threads, args.seeds),
            "version": __version__,
            "wall_time_s": round(time.time() - t0, 3),
        }, fh, indent=2)


def write_report(out: Path, report: dict) -> None:
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args, cfg: dict, out: Path) -> int:
    scfg = sim_config(cfg)
    profile = profile_from_config(cfg)

    def one(rep: int) -> dict:
        rng_init, rng_clock, rng_walk = lattice.replica_rngs(scfg.seed, rep)
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

    rows = lattice.map_seeds(one, args.seeds, args.threads)
    write_report(out, {"runs": rows})
    return 0


def cmd_couple_verify(args, cfg: dict, out: Path) -> int:
    sand_cfg = cfg["sandwich"]
    if sand_cfg is not None:
        scfg = sim_config(sand_cfg)
        check_multiple(scfg.horizon_T, "sandwich.horizon_T",
                       sand_cfg["delta"], "sandwich.delta")
    elif cfg["exhaustive"] is None:
        raise ConfigError("couple-verify needs an 'exhaustive' or 'sandwich' block")
    report: dict = {}
    ok = True
    if cfg["exhaustive"] is not None:
        rep = coupling.exhaustive_balance_check(**cfg["exhaustive"])
        report["exhaustive"] = vars(rep)
        ok = ok and rep.ok
    if sand_cfg is not None:
        srep = coupling.verify_sandwich(scfg, profile_from_config(sand_cfg),
                                        sand_cfg["delta"], args.seeds,
                                        threads=args.threads)
        report["sandwich"] = srep.to_dict()
        ok = ok and srep.ok
    write_report(out, report)
    return 0 if ok else 1


def cmd_barriers(args, cfg: dict, out: Path) -> int:
    check_multiple(cfg["horizon_T"], "horizon_T", cfg["delta"], "delta")
    sol = fbp.solve_reference(profile_from_config(cfg), cfg["kappa"],
                              cfg["horizon_T"], cfg["delta"])
    lo, hi = sol.minus[-1], sol.plus[-1]
    macro.profile_to_csv(lo, out / "final_minus.csv")
    macro.profile_to_csv(hi, out / "final_plus.csv")
    gap, r_at = macro.order_gap(lo, hi)
    ordered = gap <= 1e-9
    write_report(out, {
        "n_steps": len(sol.times) - 1,
        "annihilated": False,
        "bracket_widths": sol.bracket_widths.tolist(),
        "final_order_gap": gap,
        "final_order_gap_at": r_at,
        "ordered": ordered,
    })
    return 0 if ordered else 1


def cmd_fbp(args, cfg: dict, out: Path) -> int:
    mc_cfg = cfg["mc"]
    check_multiple(cfg["horizon_T"], "horizon_T", cfg["delta"], "delta")
    if mc_cfg is not None:
        if mc_cfg["t"] > cfg["horizon_T"]:
            raise ConfigError("config key 'mc.t' exceeds horizon_T "
                              f"{cfg['horizon_T']}")
        check_multiple(mc_cfg["t"], "mc.t", cfg["delta"], "delta")
        check_multiple(mc_cfg["t"], "mc.t", mc_cfg["dt"], "mc.dt")
    initial = profile_from_config(cfg)
    # the t = 0 boundaries, checked before any barrier step
    fbp.extract_boundaries([0.0], [fbp.support_edges(initial)])
    sol = fbp.solve_reference(initial, cfg["kappa"], cfg["horizon_T"],
                              cfg["delta"],
                              keep=() if mc_cfg is None else (mc_cfg["t"],))
    fbp.boundaries_to_csv(sol.boundaries, out / "boundaries.csv")
    macro.profile_to_csv(sol.minus[-1], out / "final_minus.csv")
    fbp.solution_summary_json(sol, out / "summary.json")
    report = {"summary": fbp.solution_summary(sol)}
    ok = True
    if mc_cfg is not None:
        rng = np.random.default_rng(np.random.SeedSequence(mc_cfg["seed"]))
        checks = []
        for side in ("u", "v"):
            mc = fbp.mc_validate(sol, mc_cfg["t"], mc_cfg["n_paths"], rng,
                                 side=side, dt=mc_cfg["dt"])
            checks.append(mc)
            ok = (ok and mc["max_abs_z"] <= mc_cfg["z_max"]
                  and abs(mc["mass"]["z"]) <= 3.0)
        report["mc"] = checks
    write_report(out, report)
    return 0 if ok else 1


def cmd_hydro_compare(args, cfg: dict, out: Path) -> int:
    scfg = sim_config(cfg)
    profile = profile_from_config(cfg)
    t_eval = scfg.horizon_T if cfg["t_eval"] is None else cfg["t_eval"]
    if t_eval > scfg.horizon_T:
        raise ConfigError(f"t_eval {t_eval} exceeds horizon_T {scfg.horizon_T}: "
                          "the clock rings only up to horizon_T")
    check_multiple(t_eval, "horizon_T" if cfg["t_eval"] is None else "t_eval",
                   cfg["delta_ref"], "delta_ref")
    lattice.check_class_U(profile)
    t_micro = t_eval / scfg.epsilon**2
    ref = None

    def solve() -> None:
        # the parent solves while the workers run the replicas
        nonlocal ref
        ref = fbp.reference_profile(profile, scfg.kappa, t_eval,
                                    cfg["delta_ref"])

    def one(rep: int) -> lattice.ParticleState:
        rng_init, rng_clock, rng_walk = lattice.replica_rngs(scfg.seed, rep)
        ps0 = lattice.sample_initial(profile, scfg, rng_init)
        log = lattice.sample_clock(scfg, rng_clock)
        traj = lattice.run_true(ps0, log, t_micro, rng=rng_walk)
        return traj.state_at(t_micro)

    finals = lattice.map_seeds(one, args.seeds, args.threads, meanwhile=solve)
    rs = ref.grid.nodes()
    ref_tail_u = np.asarray(macro.tail_integral(ref.u, ref.grid, rs))
    ref_tail_v = np.asarray(macro.tail_integral(ref.v, ref.grid, rs))
    rows = []
    for rep, st in enumerate(finals):
        dev_u = np.max(np.abs(
            lattice.scaled_tail_curve(st, lattice.A, rs, scfg.epsilon) - ref_tail_u))
        dev_v = np.max(np.abs(
            lattice.scaled_tail_curve(st, lattice.B, rs, scfg.epsilon) - ref_tail_v))
        rows.append({"seed_index": rep, "sup_dev_u": float(dev_u),
                     "sup_dev_v": float(dev_v)})
    devs = np.array([max(r["sup_dev_u"], r["sup_dev_v"]) for r in rows])
    mean = float(devs.mean())
    se = float(devs.std(ddof=1) / np.sqrt(len(devs))) if len(devs) > 1 else 0.0
    ok = cfg["threshold"] is None or mean <= cfg["threshold"]
    write_report(out, {
        "t_eval": t_eval,
        "epsilon": scfg.epsilon,
        "mean_sup_dev": mean,
        "se_sup_dev": se,
        "threshold": cfg["threshold"],
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
                    help="max worker processes for the replicas (default 1); "
                         "capped at the usable CPUs, serial where the OS "
                         "has no fork")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seeds < 1 or args.threads < 1:
        print("error: --seeds and --threads must be positive", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        cfg = load_config(args.config)
        values = read(cfg, SCHEMAS[args.command])
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        try:
            status = COMMANDS[args.command](args, values, out)
        except macro.AnnihilationError as exc:
            # a transfer exhausted a species: a model outcome, not a usage
            # error, and the one report every subcommand gives for it
            write_report(out, {"annihilated": True, "error": str(exc)})
            status = 1
        write_manifest(out, args, cfg, t0)
        return status
    except (ConfigError, macro.ProfileError, lattice.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a config too large for this host is a usage error, not a fault
        detail = f": {exc}" if str(exc) else ""
        print("error: the config asks for more memory than is available"
              f"{detail}", file=sys.stderr)
        return 2
    except Exception:
        # neither a verdict nor a usage error: exit 1 would read as a violation
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
