"""Desk-scale acceptance suite.

Each test pins one end-to-end property of the toolkit at fixed parameters
and tolerances: the coupling calculus, the pathwise sandwich, barrier
convergence, conservation and monotonicity of the deterministic scheme,
the hydrodynamic limits of the particle system, and the free-boundary
reference with its probabilistic representation.
"""
from statistics import NormalDist

import numpy as np
import pytest

from twospecies import coupling, fbp, lattice, macro
from twospecies.lattice import A, B
from twospecies.macro import tail_integral, tent_pair


def replica_streams(seed, rep):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return map(np.random.default_rng, ss.spawn(3))


@pytest.fixture(scope="module")
def fine_sol():
    """Fine-step two-sided reference bracket, shared by the hydrodynamic,
    flux and Monte Carlo checks; it keeps the pairs at the Monte Carlo
    times."""
    return fbp.solve_reference(tent_pair(), 0.5, 0.5, 1e-3, keep=(0.1, 0.25))


def test_exhaustive_balance_identities():
    report = coupling.exhaustive_balance_check(max_particles=4, n_sites=4,
                                               max_marks=3)
    assert report.ok, report.first_failure
    # the counts of bench/reference.json: a drift in the enumeration order or
    # its filters shows here
    assert (report.n_instances, report.n_runs,
            report.n_skipped_depleting) == (2250, 15250, 18500)


def test_exhaustive_balance_identities_one_size_up():
    report = coupling.exhaustive_balance_check(max_particles=5, n_sites=5,
                                               max_marks=3)
    assert report.ok, report.first_failure
    assert (report.n_instances, report.n_runs,
            report.n_skipped_depleting) == (25852, 246810, 140970)


def test_pathwise_sandwich():
    cfg = lattice.SimConfig(epsilon=0.05, kappa=1.0, horizon_T=1.0, seed=0)
    report = coupling.verify_sandwich(cfg, tent_pair(), 0.2, 200)
    assert report.n_violations == 0, report.violations[:5]
    assert report.counts_mismatch == 0
    assert report.exclusion_rate < 0.05


def test_barrier_bracket_converges():
    gaps = []
    for delta in (0.1, 0.05, 0.025, 0.0125):
        sol = fbp.solve_reference(tent_pair(), 0.5, 0.5, delta)
        order_gap, _ = macro.order_gap(sol.minus[-1], sol.plus[-1])
        assert order_gap <= 1e-9
        gaps.append(macro.l1_distance_u(sol.minus[-1], sol.plus[-1]))
    for coarse, finer in zip(gaps, gaps[1:]):
        assert finer <= 0.9 * coarse, gaps


def test_conservation_suite():
    p0 = tent_pair()
    cut = macro.apply_cut(p0, 0.5 * 0.05)
    assert abs(cut.mass_u - p0.mass_u) <= 1e-10 * p0.mass_u
    assert abs(cut.mass_v - p0.mass_v) <= 1e-10 * p0.mass_v
    conv = macro.gauss_convolve(p0, 0.05)
    assert abs(conv.mass_u - p0.mass_u) <= 1e-9 * p0.mass_u
    assert abs(conv.mass_v - p0.mass_v) <= 1e-9 * p0.mass_v

    n, delta, kappa = 10, 0.05, 0.5
    stepped = macro.iterate_barriers(p0, delta, kappa, n, "plus")[-1]
    total = macro.ProfilePair(stepped.grid, stepped.u + stepped.v,
                              np.zeros(stepped.grid.n_nodes))
    heat = macro.ProfilePair(p0.grid, p0.u + p0.v,
                             np.zeros(p0.grid.n_nodes))
    for _ in range(n):
        heat = macro.gauss_convolve(heat, delta)
    assert macro.l1_distance_u(total, heat) <= 1e-6
    assert macro.l1_distance_u(heat, total) <= 1e-6


def test_cut_and_smoothing_preserve_order(rng):
    # the cut map is order preserving while its transfer points stay
    # uncrossed (the small-transfer regime); draws outside it are redrawn
    from conftest import ordered_pair
    checked = 0
    while checked < 1000:
        lower, upper = ordered_pair(rng)
        q = 0.02 * min(lower.mass_u, lower.mass_v)
        cp_lo = macro.cut_points(lower, q)
        cp_hi = macro.cut_points(upper, q)
        if not (cp_lo.D_delta < cp_lo.R_delta
                and cp_hi.D_delta < cp_hi.R_delta):
            continue
        checked += 1
        gap, _ = macro.order_gap(macro.apply_cut(lower, q),
                                 macro.apply_cut(upper, q))
        assert gap <= 1e-9
        gap, _ = macro.order_gap(macro.gauss_convolve(lower, 0.02),
                                 macro.gauss_convolve(upper, 0.02))
        assert gap <= 1e-9


def test_repair_operators_bound_the_order_defect(rng):
    from conftest import mod_m_pair
    delta, kappa = 0.05, 0.5
    checked = 0
    while checked < 1000:
        p1, p2, m = mod_m_pair(rng)
        try:
            upper = macro.repair_upper(p2, m, m0=macro.default_m0(p2))
            lower = macro.repair_lower(p1, m, m0=macro.default_m0(p1))
        except macro.RepairError:
            continue
        checked += 1
        assert macro.order_gap(p1, upper)[0] <= 1e-9
        assert macro.order_gap(p2, upper)[0] <= 1e-9
        s1 = macro.barrier_step(p1, delta, kappa, "plus")
        s2 = macro.barrier_step(p2, delta, kappa, "plus")
        assert macro.order_gap(s1, s2)[0] <= 2.0 * m + 1e-8
        assert macro.order_gap(lower, p1)[0] <= 1e-9
        assert macro.order_gap(lower, p2)[0] <= 1e-9


def aligned_points(epsilon, r_lo, r_hi):
    """Midpoints of the epsilon-lattice cells: the empirical tail is a step
    function with jumps at the lattice, so these are its unbiased readouts."""
    xs = np.arange(int(np.ceil(r_lo / epsilon)),
                   int(np.floor(r_hi / epsilon)) + 1)
    return epsilon * (xs - 0.5)


def test_total_mass_follows_the_heat_equation():
    epsilon, t, n_seeds = 0.02, 0.5, 100
    profile = tent_pair()
    cfg = lattice.SimConfig(epsilon=epsilon, kappa=1.0, horizon_T=t, seed=101)
    conv = macro.gauss_convolve(profile, t)
    rs = aligned_points(epsilon, -3.0, 3.0)
    ref = (np.asarray(tail_integral(conv.u, conv.grid, rs))
           + np.asarray(tail_integral(conv.v, conv.grid, rs)))
    acc = np.zeros_like(rs)
    for rep in range(n_seeds):
        rng_init, _, rng_walk = replica_streams(cfg.seed, rep)
        ps = lattice.sample_initial(profile, cfg, rng_init)
        st = lattice.evolve_positions(ps, 0.0, cfg.micro_horizon, rng_walk)
        acc += (lattice.scaled_tail_curve(st, A, rs, epsilon)
                + lattice.scaled_tail_curve(st, B, rs, epsilon))
    sup_dev = float(np.max(np.abs(acc / n_seeds - ref)))
    assert sup_dev <= 0.05, sup_dev


def _empirical_a_tails(epsilon, kappa, t, n_seeds, seed, rs):
    profile = tent_pair()
    cfg = lattice.SimConfig(epsilon=epsilon, kappa=kappa, horizon_T=t,
                            seed=seed)
    curves = np.empty((n_seeds, len(rs)))
    for rep in range(n_seeds):
        rng_init, rng_clock, rng_walk = replica_streams(seed, rep)
        ps0 = lattice.sample_initial(profile, cfg, rng_init)
        log = lattice.sample_clock(cfg, rng_clock)
        traj = lattice.run_true(ps0, log, cfg.micro_horizon, rng=rng_walk)
        st = traj.state_at(cfg.micro_horizon)
        curves[rep] = lattice.scaled_tail_curve(st, A, rs, epsilon)
    return curves


def test_species_tail_deviation_shrinks_with_epsilon(fine_sol):
    t, kappa, n_seeds = 0.5, 0.5, 100
    mid = fine_sol.profile_at(t)
    sups = []
    for epsilon in (0.1, 0.05, 0.02):
        rs = aligned_points(epsilon, -3.0, 3.0)
        ref = np.asarray(tail_integral(mid.u, mid.grid, rs))
        curves = _empirical_a_tails(epsilon, kappa, t, n_seeds, 202, rs)
        sups.append(float(np.mean(np.max(np.abs(curves - ref), axis=1))))
    assert sups[0] > sups[1] > sups[2], sups


def limit_band_z(fine_sol, seed, n_seeds):
    """Simultaneous z statistic of the epsilon -> 0 a-tail against the bracket.

    The limit theorem gives no rate and no claim at fixed epsilon.  Measured
    on r in [0, 0.5), the mean a-tail sits above the bracket midpoint by
    +0.052, +0.032 and +0.018 at epsilon 0.04, 0.02 and 0.01 (7200 seeds
    each), which fits A * epsilon + B * epsilon**2 with A ~ 1.9, B ~ -16,
    and falls on to +0.010, +0.0056 and +0.0011 at 0.005, 0.0025 and
    0.00125 (a sampler of the same law); the total-mass tail shows no such
    bias.  The first-order
    extrapolation 2 T(0.02) - T(0.04) keeps the B term there (+0.012, about
    one standard error at 300 seeds), so the limit is estimated by the
    second-order one E = (8 T(0.01) - 6 T(0.02) + T(0.04)) / 3, which cancels
    both terms.  E is read at the aligned points of 0.04; these are lattice
    points of the finer runs, whose tails are read there as the mean of the
    two neighbouring aligned points.  Replica k of every run shares a seed,
    so se(E) comes from the per-seed E curves.  The band is
    |E - midpoint| <= half-width + z* se(E) at every point, z* the
    Bonferroni value for a 1% family-wise level over the points with se > 0.

    Returns (max z, z*, worst point).
    """
    t, kappa, coarse = 0.5, 0.5, 0.04
    rs = aligned_points(coarse, -3.0, 3.0)
    lo = np.asarray(tail_integral(fine_sol.minus[-1].u,
                                  fine_sol.minus[-1].grid, rs))
    hi = np.asarray(tail_integral(fine_sol.plus[-1].u,
                                  fine_sol.plus[-1].grid, rs))
    per_seed = np.full((n_seeds, len(rs)), -0.5 * (lo + hi))
    for epsilon, weight in ((coarse, 1.0 / 3.0), (0.02, -2.0),
                            (0.01, 8.0 / 3.0)):
        shift = 0.5 * epsilon if epsilon < coarse else 0.0
        sides = np.concatenate([rs - shift, rs + shift])
        tails = _empirical_a_tails(epsilon, kappa, t, n_seeds, seed, sides)
        per_seed += weight * 0.5 * (tails[:, :len(rs)] + tails[:, len(rs):])
    est = per_seed.mean(axis=0)
    se = per_seed.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    excess = np.clip(np.abs(est) - 0.5 * np.abs(hi - lo), 0.0, None)
    z = np.divide(excess, se, out=np.where(excess > 0, np.inf, 0.0),
                  where=se > 0)
    z_star = NormalDist().inv_cdf(1.0 - 0.01 / (2 * np.count_nonzero(se)))
    worst = int(np.argmax(z))
    return float(z[worst]), z_star, float(rs[worst])


def test_species_tail_inside_the_bracket_band(fine_sol):
    z, z_star, r = limit_band_z(fine_sol, 202, 200)
    assert z <= z_star, (f"extrapolated a-tail outside the bracket: "
                         f"max z(E) {z:.2f} > z* {z_star:.2f} at r = {r:.2f}")


def test_boundary_flux_matches_the_exchange_rate(fine_sol):
    kappa = fine_sol.kappa
    _, fu, fv = fbp.flux_series(fine_sol, 0.1, 0.5)
    mean_u = float(np.mean(fu))
    mean_v_signed = -float(np.mean(fv))
    assert abs(mean_u - kappa) <= 0.1 * kappa, mean_u
    assert abs(mean_v_signed - (-kappa)) <= 0.1 * kappa, mean_v_signed


@pytest.fixture(scope="module")
def boundary_gate():
    """Constant-boundary oracle with a closed form; it must pass before the
    moving-boundary Monte Carlo results are trusted."""
    rng = np.random.default_rng(np.random.SeedSequence(31))
    mc, exact, se = fbp.constant_boundary_check(0.0, 1.0, 0.25, 100_000,
                                                1e-4, rng)
    assert abs(mc - exact) <= 3.0 * se, (mc, exact, se)
    return mc, exact, se


def test_constant_boundary_oracle(boundary_gate):
    mc, exact, se = boundary_gate
    assert se < 0.01


def test_absorbed_mass_identity(fine_sol, boundary_gate):
    for t, seed in ((0.1, 41), (0.25, 43)):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        check = fbp.mc_validate(fine_sol, t, 100_000, rng, dt=2e-4)["mass"]
        assert check["target"] == pytest.approx(fine_sol.kappa * t)
        assert abs(check["z"]) <= 3.0, check


def test_interval_mass_representation(fine_sol, boundary_gate):
    rng = np.random.default_rng(np.random.SeedSequence(47))
    report = fbp.mc_validate(fine_sol, 0.25, 100_000, rng, side="u",
                             dt=2.5e-4)
    assert len(report["intervals"]) == 10
    assert report["max_abs_z"] <= 4.0, report
    assert abs(report["mass"]["z"]) <= 3.0, report
