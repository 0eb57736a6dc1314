#!/usr/bin/env python3
"""Record the reference digest that the benchmark compares its outputs with.

Run from the repository root on the commit whose outputs are the reference:

    python3 bench/record_reference.py

It writes bench/reference.json: the deterministic outputs of the full-size
workload configs (fbp summary at delta 1e-3, barrier bracket width at delta
0.0125, exhaustive enumeration counts) and, for each sandwich seed in the
pool the benchmark draws from, the number of replicas the sandwich
verifier excludes.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twospecies import coupling, fbp, lattice, macro  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


def main() -> None:
    size = workloads.FULL
    sol = fbp.solve_reference(macro.tent_pair(), workloads.KAPPA_MACRO,
                              workloads.HORIZON, size.fbp_delta)
    n = int(round(workloads.HORIZON / size.barriers_delta))
    p0 = macro.tent_pair()
    minus = macro.iterate_barriers(p0, size.barriers_delta,
                                   workloads.KAPPA_MACRO, n, "minus")
    plus = macro.iterate_barriers(p0, size.barriers_delta,
                                  workloads.KAPPA_MACRO, n, "plus")
    ex = coupling.exhaustive_balance_check(*size.exhaustive)
    excluded = {}
    for s in range(workloads.SANDWICH_SEED_POOL):
        cfg = lattice.SimConfig(**workloads.sandwich_sim(s))
        rep = coupling.verify_sandwich(cfg, macro.tent_pair(),
                                       workloads.SANDWICH_DELTA,
                                       size.sandwich_seeds)
        if not rep.ok:
            raise SystemExit(f"sandwich seed {s} fails: {rep.violations[:3]}")
        excluded[str(s)] = rep.n_excluded
        print(f"sandwich seed {s}: {rep.n_excluded} excluded", flush=True)
    ref = {
        "fbp": fbp.solution_summary(sol),
        "barriers_final_width": macro.l1_distance_u(minus[-1], plus[-1]),
        "exhaustive": {"n_instances": ex.n_instances, "n_runs": ex.n_runs,
                       "n_skipped_depleting": ex.n_skipped_depleting},
        "sandwich_excluded": excluded,
    }
    with open(Path(__file__).resolve().parent / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
