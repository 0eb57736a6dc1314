"""Free-boundary reference solution and its Monte Carlo validation."""
import dataclasses
import math

import numpy as np
import pytest

from twospecies import fbp, macro
from twospecies.fbp import FbpError
from twospecies.macro import GridSpec, ProfilePair

from conftest import random_class_u_pair


@pytest.fixture(scope="module")
def coarse_sol():
    """Both-variant bracket at kappa = 1/2 up to t = 0.1 with the pairs of
    every step kept, shared across the module since the solve is the
    expensive part."""
    return fbp.solve_reference(macro.tent_pair(), 0.5, 0.1, 0.01,
                               keep=0.01 * np.arange(11))


class TestSolution:
    def test_initial_boundaries(self, coarse_sol):
        bd = coarse_sol.boundaries
        assert bd.U[0] == pytest.approx(0.5, abs=0.02)
        assert bd.V[0] == pytest.approx(0.0, abs=0.02)
        assert bd.times[0] == 0.0 and bd.times[-1] == pytest.approx(0.1)

    def test_boundaries_move_outward(self, coarse_sol):
        # the very first step can dip: the cut bites before the spreading
        # has moved the support edge out
        bd = coarse_sol.boundaries
        assert np.all(np.diff(bd.U[1:]) > 0)
        assert np.all(np.diff(bd.V[1:]) < 0)
        assert bd.U[-1] > bd.U[0] and bd.V[-1] < bd.V[0]

    def test_mirror_symmetry(self, coarse_sol):
        # the overlapping-tent datum is symmetric under r -> 1/2 - r with the
        # species swapped, and the node set is closed under that reflection
        bd = coarse_sol.boundaries
        assert np.allclose(bd.U + bd.V, 0.5, atol=1e-6)

    def test_species_masses_conserved(self, coarse_sol):
        init = coarse_sol.minus[0]
        for fam in (coarse_sol.minus, coarse_sol.plus):
            for p in fam:
                assert p.mass_u == pytest.approx(init.mass_u, abs=1e-8)
                assert p.mass_v == pytest.approx(init.mass_v, abs=1e-8)

    def test_variants_bracket_each_other(self, coarse_sol):
        for lo, hi in zip(coarse_sol.minus, coarse_sol.plus):
            gap, _ = macro.order_gap(lo, hi)
            assert gap <= 1e-9

    def test_bracket_widths_recorded(self, coarse_sol):
        w = coarse_sol.bracket_widths
        assert w is not None and len(w) == len(coarse_sol.minus)
        assert w[0] == 0.0 and np.all(w >= 0)

    def test_zero_exchange_rate_reduces_to_diffusion(self):
        sol = fbp.solve_reference(macro.tent_pair(), 0.0, 0.1, 0.01)
        one_shot = macro.gauss_convolve(macro.tent_pair(), 0.1)
        assert macro.l1_distance_u(sol.minus[-1], one_shot) <= 1e-4

    def test_time_step_bookkeeping(self, coarse_sol):
        assert coarse_sol.index_at(0.05) == 5
        mid = coarse_sol.profile_at(0.05)
        lo = coarse_sol.minus[5]
        hi = macro.resample(coarse_sol.plus[5], lo.grid)
        assert np.allclose(mid.u, 0.5 * (lo.u + hi.u))
        for t in (0.0503, 0.11, -0.01):
            with pytest.raises(FbpError):
                coarse_sol.index_at(t)
        with pytest.raises(FbpError):
            fbp.solve_reference(macro.tent_pair(), 0.5, 0.105, 0.01)

    def test_crossed_supports_rejected(self):
        grid = GridSpec(-2.0, 2.0, 400)
        p = ProfilePair(grid, macro.tent(grid, -1.0, -0.5),
                        macro.tent(grid, 0.5, 1.0))
        with pytest.raises(FbpError, match="boundaries crossed at t=0.0"):
            fbp.extract_boundaries([0.0], [fbp.support_edges(p)])
        empty = ProfilePair(grid, np.zeros(grid.n_nodes), p.v)
        with pytest.raises(FbpError, match="empty support"):
            fbp.extract_boundaries([0.0], [fbp.support_edges(empty)])


def right_edge(f, grid, thr):
    """Rightmost threshold crossing of f, read off grid.nodes()."""
    j = int(np.nonzero(f > thr)[0][-1])
    nodes = grid.nodes()
    if j == grid.n_nodes - 1:
        return float(nodes[j])
    lam = (f[j] - thr) / max(f[j] - f[j + 1], 1e-300)
    return float(nodes[j] + lam * grid.h)


def edge_line(f, grid, edge):
    """The near-edge line fitted on the whole profile: the oracle for the
    solve's stored windows."""
    hi = int(math.floor((edge - grid.r_min) / grid.h)) - fbp._FIT_SKIP
    lo = hi - fbp._FIT_CELLS
    return np.polyfit(grid.nodes()[lo:hi + 1], f[lo:hi + 1], 1)


def refined_edge(f, grid, edge):
    slope, icept = edge_line(f, grid, edge)
    if slope >= 0:
        return edge
    return min(max(edge, float(-icept / slope)), edge + 0.5)


def solution_bytes(sol):
    """Bytes of every array the solution holds."""
    arrays = [a for fam in (sol.minus, sol.plus) for p in fam
              for a in (p.u, p.v)]
    arrays += [v for v in vars(sol).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays)


class TestStreamedRecord:
    def test_record_is_a_recomputation_from_the_families(self, coarse_sol):
        p0, n = macro.tent_pair(), 10
        minus = macro.iterate_barriers(p0, 0.01, 0.5, n, "minus")
        plus = macro.iterate_barriers(p0, 0.01, 0.5, n, "plus")
        assert coarse_sol.kept == list(range(n + 1))
        for fam, ref in ((coarse_sol.minus, minus), (coarse_sol.plus, plus)):
            for p, q in zip(fam, ref, strict=True):
                assert p.grid == q.grid
                assert np.array_equal(p.u, q.u) and np.array_equal(p.v, q.v)
        widths = [macro.l1_distance_u(lo, hi) for lo, hi in zip(minus, plus)]
        assert np.array_equal(coarse_sol.bracket_widths, widths)
        bd, refined = coarse_sol.boundaries, coarse_sol.refined_boundaries
        _, fu, fv = fbp.flux_series(coarse_sol, 0.0, 0.1)
        for k, p in enumerate(minus):
            thr = fbp.EDGE_FRAC * max(p.u.max(), p.v.max())
            U = right_edge(p.u, p.grid, thr)
            V = -right_edge(p.v[::-1], p.grid.mirrored(), thr)
            assert (bd.U[k], bd.V[k]) == (U, V)
            assert refined.U[k] == refined_edge(p.u, p.grid, U)
            assert refined.V[k] == -refined_edge(p.v[::-1], p.grid.mirrored(),
                                                 -V)
            assert fu[k] == -0.5 * edge_line(p.u, p.grid, U)[0]
            assert fv[k] == -0.5 * edge_line(p.v[::-1], p.grid.mirrored(),
                                             -V)[0]

    def test_kept_bytes_do_not_grow_with_the_step_count(self):
        coarse, fine = (fbp.solve_reference(macro.tent_pair(), 0.5, 0.1, d)
                        for d in (0.02, 0.005))
        assert len(coarse.minus) == len(fine.minus) == 2
        assert solution_bytes(fine) <= 1.1 * solution_bytes(coarse)
        every = fbp.solve_reference(macro.tent_pair(), 0.5, 0.1, 0.005,
                                    keep=0.005 * np.arange(21))
        assert solution_bytes(every) > 5 * solution_bytes(fine)

    def test_profile_at_an_unkept_time_raises(self, coarse_sol):
        sol = fbp.solve_reference(macro.tent_pair(), 0.5, 0.1, 0.01,
                                  keep=(0.05,))
        assert sol.kept == [0, 5, 10]
        for t in (0.0, 0.05, 0.1):
            mid, ref = sol.profile_at(t), coarse_sol.profile_at(t)
            assert np.array_equal(mid.u, ref.u) and np.array_equal(mid.v, ref.v)
        with pytest.raises(FbpError, match="not kept"):
            sol.profile_at(0.03)

    @pytest.mark.parametrize("keep", [(0.11,), (0.055,), (-0.01,)])
    def test_time_to_keep_off_the_steps_is_rejected(self, keep):
        with pytest.raises(FbpError):
            fbp.solve_reference(macro.tent_pair(), 0.5, 0.1, 0.01, keep=keep)

    @pytest.mark.parametrize("T", [0.0, 0.05, 0.1])
    def test_reference_profile_is_the_final_midpoint(self, T):
        mid = fbp.reference_profile(macro.tent_pair(), 0.5, T, 0.01)
        ref = fbp.solve_reference(macro.tent_pair(), 0.5, T, 0.01).profile_at(T)
        assert mid.grid == ref.grid
        assert np.array_equal(mid.u, ref.u) and np.array_equal(mid.v, ref.v)

    def test_repr_leaves_out_the_arrays(self):
        sol = fbp.solve_reference(macro.tent_pair(), 0.5, 0.05, 1e-3)
        assert len(repr(sol)) < 1024


def left_edge(f, grid, thr):
    """Leftmost threshold crossing of f, linearly interpolated: the direct
    formula for V that extract_boundaries reads off the mirrored pair."""
    j = int(np.nonzero(f > thr)[0][0])
    nodes = grid.nodes()
    if j == 0:
        return float(nodes[0])
    lam = (f[j] - thr) / max(f[j] - f[j - 1], 1e-300)
    return float(nodes[j] - lam * grid.h)


class TestMirror:
    def test_curves_mirror_is_an_involution(self, coarse_sol):
        bd = coarse_sol.boundaries
        m = bd.mirrored()
        assert np.array_equal(m.U, -bd.V) and np.array_equal(m.V, -bd.U)
        back = m.mirrored()
        assert np.array_equal(back.U, bd.U) and np.array_equal(back.V, bd.V)
        assert np.array_equal(back.times, bd.times)

    def test_left_edge_is_the_mirrored_right_edge(self, coarse_sol, rng):
        pairs = list(coarse_sol.minus)
        pairs += [random_class_u_pair(rng) for _ in range(20)]
        bd = fbp.extract_boundaries(np.arange(len(pairs)),
                                    [fbp.support_edges(p) for p in pairs])
        for p, V in zip(pairs, bd.V):
            thr = fbp.EDGE_FRAC * max(p.u.max(), p.v.max())
            assert abs(V - left_edge(p.v, p.grid, thr)) <= 1e-12


class TestFlux:
    def test_linear_profiles_give_half_the_slope(self):
        grid = GridSpec(0.0, 1.0, 100)
        r = grid.nodes()
        p = ProfilePair(grid, np.clip(1.0 - r, 0.0, None),
                        np.clip(r, 0.0, None))
        assert fbp.boundary_flux_u(p, 1.0) == pytest.approx(0.5, abs=1e-9)
        # v's outward flux v_r/2 at its left edge 0, read on the mirror
        assert fbp.boundary_flux_u(p.mirrored(), -0.0) == pytest.approx(
            0.5, abs=1e-9)

    def test_flux_fit_needs_interior_room(self):
        grid = GridSpec(0.0, 1.0, 100)
        p = ProfilePair(grid, np.ones(grid.n_nodes), np.ones(grid.n_nodes))
        with pytest.raises(FbpError):
            fbp.boundary_flux_u(p, 0.03)

    def test_series_tracks_the_exchange_rate(self, coarse_sol):
        ts, fu, fv = fbp.flux_series(coarse_sol, 0.05, 0.1)
        assert len(ts) == 6
        assert np.all((fu > 0.2) & (fu < 0.9))
        assert np.all((fv > 0.2) & (fv < 0.9))


class TestRefinedBoundaries:
    def test_refined_curves_sit_outside_the_support_edges(self, coarse_sol):
        bd = fbp.refined_boundary_curves(coarse_sol)
        sup = coarse_sol.boundaries
        assert np.all(bd.U >= sup.U - 1e-12)
        assert np.all(bd.V <= sup.V + 1e-12)
        # the sharp cut leaves a visible strip at this coarse step size
        assert bd.U[-1] > sup.U[-1] + 0.01
        assert np.allclose(bd.U + bd.V, 0.5, atol=1e-6)


def reference_simulate_absorbed(starts_x, starts_t, t_end, upper, dt, rng):
    """Test oracle: the plain sampler loop, which selects the active paths
    from all n and exponentiates the bridge term of every path not hit."""
    x = np.asarray(starts_x, dtype=float).copy()
    starts_t = np.asarray(starts_t, dtype=float)
    n_steps = macro.step_count(t_end, dt)
    bvals = np.asarray(upper(dt * np.arange(n_steps + 1)), dtype=float)
    start_idx = np.clip(np.ceil(starts_t / dt - 1e-12).astype(int), 0, n_steps)
    absorbed = np.zeros(len(x), dtype=bool)
    for k in range(n_steps):
        active = np.nonzero((start_idx <= k) & ~absorbed)[0]
        if len(active) == 0:
            continue
        a1, a2 = bvals[k], bvals[k + 1]
        x1 = x[active]
        x2 = x1 + math.sqrt(dt) * rng.standard_normal(len(active))
        hit = x2 >= a2
        safe = ~hit
        if np.any(safe):
            p = np.exp(-2.0 * (a1 - x1[safe]) * (a2 - x2[safe]) / dt)
            hit[safe] = rng.random(np.count_nonzero(safe)) < p
        absorbed[active[hit]] = True
        x[active] = x2
    return x, absorbed


def _const(ts):
    return np.full_like(ts, 0.6)


def _moving(ts):
    """Piecewise linear, knots off the time grid: out, back in, out."""
    return np.interp(ts, [0.0, 0.0713, 0.1502, 0.25], [0.5, 0.9, 0.4, 0.7])


# (starts_x, starts_t, t_end, upper, dt) from a generator and a size n
SAMPLER_CASES = {
    "zero-starts": lambda r, n: (r.normal(0.0, 0.3, n), np.zeros(n), 0.25,
                                 _moving, 1e-3),
    "uniform-starts": lambda r, n: (r.normal(0.0, 0.3, n),
                                    r.uniform(0.0, 0.25, n), 0.25, _moving,
                                    2.5e-4),
    "starts-at-t-end": lambda r, n: (r.normal(0.0, 0.3, n), np.full(n, 0.25),
                                     0.25, _moving, 1e-3),
    "grid-aligned-starts": lambda r, n: (r.normal(0.0, 0.3, n),
                                         1e-3 * r.integers(0, 251, n), 0.25,
                                         _moving, 1e-3),
    "above-the-boundary": lambda r, n: (r.uniform(0.3, 1.2, n),
                                        r.uniform(0.0, 0.25, n), 0.25,
                                        _moving, 1e-3),
    "constant-boundary": lambda r, n: (r.uniform(-0.5, 0.6, n),
                                       r.uniform(0.0, 0.1, n), 0.25, _const,
                                       2.5e-4),
    "no-paths": lambda r, n: (np.zeros(0), np.zeros(0), 0.25, _moving, 1e-3),
}


class TestAbsorbedPaths:
    @pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
    def test_matches_the_reference_loop_bit_for_bit(self, case):
        args = SAMPLER_CASES[case](np.random.default_rng(17), 3000)
        rng_ref, rng = np.random.default_rng(5), np.random.default_rng(5)
        x_ref, ab_ref = reference_simulate_absorbed(*args, rng_ref)
        x, ab = fbp.simulate_absorbed(*args, rng)
        assert np.array_equal(x, x_ref) and np.array_equal(ab, ab_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        if case == "starts-at-t-end":
            assert np.array_equal(x, args[0]) and not ab.any()

    def test_hitting_probability_closed_form(self):
        p = fbp.absorption_prob_const(0.0, 1.0, 1.0)
        assert p == pytest.approx(2.0 * (1.0 - 0.5 * (1.0 + math.erf(
            1.0 / math.sqrt(2.0)))))
        assert fbp.absorption_prob_const(0.0, 1.0, 0.1) < p

    def test_hitting_probability_from_at_or_above_the_level_is_one(self):
        assert fbp.absorption_prob_const(2.0, 1.0, 0.25) == 1.0
        assert fbp.absorption_prob_const(1.0, 1.0, 0.25) == 1.0
        assert fbp.absorption_prob_const(1.0, 1.0, 0.0) == 1.0

    def test_hitting_probability_at_time_zero(self):
        assert fbp.absorption_prob_const(0.0, 1.0, 0.0) == 0.0
        mc, exact, se = fbp.constant_boundary_check(
            0.0, 1.0, 0.0, 100, 1e-3, np.random.default_rng(0))
        assert mc == exact == 0.0 and se > 0

    def test_hitting_probability_rejects_negative_time(self):
        with pytest.raises(FbpError):
            fbp.absorption_prob_const(0.0, 1.0, -0.1)

    @pytest.mark.parametrize("t, dt", [(-0.1, 1e-3), (0.1, 0.03)])
    def test_bad_horizon_or_step_is_an_fbp_error(self, t, dt):
        rng = np.random.default_rng(0)
        with pytest.raises(FbpError):
            fbp.constant_boundary_check(0.0, 1.0, t, 10, dt, rng)
        with pytest.raises(FbpError):
            fbp.simulate_absorbed(np.zeros(10), np.zeros(10), t,
                                  lambda ts: np.ones_like(ts), dt, rng)

    def test_started_above_the_boundary_is_absorbed_immediately_almost(self):
        rng = np.random.default_rng(1)
        _, absorbed = fbp.simulate_absorbed(
            np.full(200, 2.0), np.zeros(200), 0.5,
            lambda ts: np.ones_like(ts), 1e-3, rng)
        assert np.mean(absorbed) > 0.99

    def test_constant_boundary_gate(self):
        rng = np.random.default_rng(7)
        mc, exact, se = fbp.constant_boundary_check(0.0, 1.0, 0.25, 20000,
                                                    1e-3, rng)
        assert abs(mc - exact) <= 4.0 * se + 0.005

    def test_linear_boundary_gate(self):
        # a path from 0 reaches the line a + b s by time t with probability
        # Phi(-(a + bt)/sqrt(t)) + exp(-2ab) Phi((bt - a)/sqrt(t)); the
        # bridge term is exact for a line, so only noise separates them
        a, b, t, n = 1.0, -1.0, 0.25, 20000
        rng = np.random.default_rng(np.random.SeedSequence(2014))
        _, absorbed = fbp.simulate_absorbed(
            np.zeros(n), np.zeros(n), t, lambda ts: a + b * ts, 1e-3, rng)

        def phi(x):
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        exact = (phi(-(a + b * t) / math.sqrt(t))
                 + math.exp(-2.0 * a * b) * phi((b * t - a) / math.sqrt(t)))
        mc = float(np.mean(absorbed))
        assert abs(mc - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / n)

    def test_late_starters_survive_more(self):
        rng = np.random.default_rng(3)
        starts_t = np.concatenate([np.zeros(4000), np.full(4000, 0.4)])
        _, absorbed = fbp.simulate_absorbed(
            np.zeros(8000), starts_t, 0.5, lambda ts: np.ones_like(ts),
            1e-3, rng)
        assert np.mean(absorbed[:4000]) > np.mean(absorbed[4000:])


class TestMcValidation:
    def test_interval_and_mass_checks_within_noise(self, coarse_sol):
        rng = np.random.default_rng(42)
        for side in ("u", "v"):
            report = fbp.mc_validate(coarse_sol, 0.1, 4000, rng, side=side,
                                     dt=1e-3)
            assert report.side == side
            assert len(report.intervals) == 10
            assert report.max_abs_z <= 4.0, report.to_dict()
            assert abs(report.mass.z) <= 4.0, report.to_dict()
            refs = [iv.reference for iv in report.intervals]
            assert max(refs) <= 1.5 * min(refs)

    def test_v_intervals_tile_the_original_r(self, coarse_sol):
        report = fbp.mc_validate(coarse_sol, 0.1, 200,
                                 np.random.default_rng(3), side="v", dt=1e-3)
        ivs = report.intervals
        assert all(iv.r_lo < iv.r_hi for iv in ivs)
        ivs = sorted(ivs, key=lambda iv: iv.r_lo)
        assert all(a.r_hi == b.r_lo for a, b in zip(ivs, ivs[1:]))
        # each reference mass is v's mass over the interval in the original r
        ref = coarse_sol.profile_at(0.1)
        for iv in ivs:
            mass = (macro.tail_integral(ref.v, ref.grid, iv.r_lo)
                    - macro.tail_integral(ref.v, ref.grid, iv.r_hi))
            assert float(mass) == pytest.approx(iv.reference, abs=1e-12)
        # the lowest interval starts at the refined boundary V
        V = fbp.refined_boundary_curves(coarse_sol).V_at(0.1)
        assert ivs[0].r_lo == pytest.approx(V, abs=1e-12)

    def test_mass_identity_direct(self, coarse_sol):
        rng = np.random.default_rng(5)
        check = fbp.mc_validate(coarse_sol, 0.1, 4000, rng, dt=1e-3).mass
        assert check.target == pytest.approx(0.05)
        assert abs(check.z) <= 4.0

    def test_refined_boundaries_computed_once_for_both_sides(
            self, coarse_sol, monkeypatch):
        sol = dataclasses.replace(coarse_sol)  # a copy with nothing cached
        calls = []
        refine = fbp.refined_boundary_curves
        monkeypatch.setattr(fbp, "refined_boundary_curves",
                            lambda s: calls.append(s) or refine(s))
        for side in ("u", "v"):
            fbp.mc_validate(sol, 0.1, 50, np.random.default_rng(0),
                            side=side, dt=1e-3)
        assert calls == [sol]
        bd = refine(coarse_sol)
        assert np.array_equal(sol.refined_boundaries.U, bd.U)
        assert np.array_equal(sol.refined_boundaries.V, bd.V)

    def test_bad_side_rejected(self, coarse_sol):
        with pytest.raises(FbpError):
            fbp.mc_validate(coarse_sol, 0.1, 10,
                            np.random.default_rng(0), side="w", dt=1e-4)

    def test_binomial_variance_clips_only_empty_and_full_counts(self):
        n = 10
        for c in range(1, n):
            p = c / n
            assert fbp.binomial_var(p, n, 2.0) == 2.0**2 * p * (1 - p) / n
        edge = (1 / 11) * (10 / 11) / n
        assert fbp.binomial_var(0.0, n) == pytest.approx(edge)
        assert fbp.binomial_var(1.0, n) == pytest.approx(edge)


class TestExport:
    def test_boundaries_csv(self, coarse_sol, tmp_path):
        path = tmp_path / "bd.csv"
        fbp.boundaries_to_csv(coarse_sol.boundaries, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,U,V"
        assert len(lines) == len(coarse_sol.times) + 1

    def test_summary(self, coarse_sol, tmp_path):
        summary = fbp.solution_summary(coarse_sol)
        assert summary["n_steps"] == 10
        assert summary["kappa"] == 0.5
        assert not summary["annihilated"]
        path = tmp_path / "summary.json"
        fbp.solution_summary_json(coarse_sol, path)
        assert "U_final" in path.read_text()
