"""Microscopic event-driven simulation: sampling, flips, trajectories."""
import math
import os
import select
import signal
import time
from statistics import NormalDist

import numpy as np
import pytest
from conftest import process_left_running
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twospecies import lattice, macro
from twospecies.lattice import (A, B, LEFT, RIGHT, EventLog, ParticleState,
                                PositionRealization, SimConfig,
                                SimulationError)


def _rank_loop(positions: np.ndarray, colors: np.ndarray, color: int,
               sign: int) -> int | None:
    """The oracle of `rank_select`: one pass over the particles keeping the
    largest (sign * position, index) of the species `color`."""
    best = None
    for i, (x, c) in enumerate(zip(positions.tolist(), colors.tolist())):
        if c == color and (best is None or (sign * x, i) > best):
            best = (sign * x, i)
    return None if best is None else best[1] + 1


def cfg_small(**kw):
    base = dict(epsilon=0.1, kappa=1.0, horizon_T=0.5, seed=11)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_scalings(self):
        cfg = cfg_small(epsilon=0.05, kappa=2.0, horizon_T=1.0)
        assert cfg.micro_horizon == pytest.approx(400.0)
        assert cfg.clock_intensity == pytest.approx(0.2)

    @pytest.mark.parametrize("bad", [dict(epsilon=0.0), dict(epsilon=1.5),
                                     dict(kappa=-1.0), dict(horizon_T=0.0),
                                     dict(epsilon=np.nan),
                                     dict(kappa=np.inf),
                                     dict(horizon_T=np.inf)])
    def test_invalid_parameters(self, bad):
        with pytest.raises(SimulationError):
            cfg_small(**bad)


class TestSampling:
    def test_particle_count_and_colors(self, rng):
        profile = macro.tent_pair()
        cfg = cfg_small(epsilon=0.07)
        ps = lattice.sample_initial(profile, cfg, rng)
        assert ps.M == int(np.floor(profile.total_mass / cfg.epsilon))
        assert set(np.unique(ps.colors)) <= {A, B}
        r = cfg.epsilon * ps.positions
        assert r.min() >= profile.grid.r_min - cfg.epsilon
        assert r.max() <= profile.grid.r_max + cfg.epsilon

    def test_colors_follow_the_species_split(self):
        profile = macro.tent_pair()
        cfg = cfg_small(epsilon=0.02)
        counts = []
        for rep in range(50):
            gen = np.random.default_rng(
                np.random.SeedSequence(3, spawn_key=(rep,)))
            ps = lattice.sample_initial(profile, cfg, gen)
            counts.append(int(np.sum(ps.colors == A)))
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / np.sqrt(len(counts))
        assert abs(mean - 50.0) <= 5.0 * se + 1.0

    def test_invalid_profile_rejected(self, rng):
        grid = macro.GridSpec(-3.0, 3.0, 300)
        bad = macro.ProfilePair(grid, macro.tent(grid, -2.0, -1.0),
                                macro.tent(grid, 1.0, 2.0))
        with pytest.raises(SimulationError):
            lattice.sample_initial(bad, cfg_small(), rng)

    def test_clock_times_inside_horizon(self, rng):
        cfg = cfg_small(epsilon=0.1, kappa=2.0)
        log = lattice.sample_clock(cfg, rng)
        assert np.all(log.times > 0)
        assert np.all(log.times <= cfg.micro_horizon)
        assert np.all(np.diff(log.times) > 0)

    def test_clock_count_near_intensity(self):
        cfg = cfg_small(epsilon=0.1, kappa=1.0, horizon_T=2.0)
        lam = cfg.clock_intensity * cfg.micro_horizon
        counts = [len(lattice.sample_clock(
            cfg, np.random.default_rng(np.random.SeedSequence(4, spawn_key=(k,)))))
            for k in range(40)]
        assert abs(np.mean(counts) - lam) <= 5.0 * np.sqrt(lam / len(counts))

    def test_zero_kappa_gives_silent_clock(self, rng):
        log = lattice.sample_clock(cfg_small(kappa=0.0), rng)
        assert len(log) == 0

    @staticmethod
    def clock_loop(cfg, rng):
        """Oracle: the clock summed one ring at a time in Python, as
        `sample_clock` did before it summed whole blocks of gaps."""
        lam, horizon = cfg.clock_intensity, cfg.micro_horizon
        times = []
        if lam > 0:
            t = 0.0
            while True:
                block = rng.exponential(1.0 / lam, size=64)
                for dt in block:
                    t += dt
                    if t > horizon:
                        break
                    times.append(t)
                if t > horizon:
                    break
        marks = np.where(rng.random(len(times)) < 0.5, RIGHT, LEFT)
        return np.asarray(times, dtype=float), marks

    # no ring, under one block, several blocks, and a silent clock
    @pytest.mark.parametrize("epsilon, kappa, horizon_T", [
        (0.3, 0.2, 0.1), (0.02, 1.0, 0.5), (0.05, 10.0, 1.0),
        (0.1, 1.0, 0.5), (0.1, 0.0, 0.5)])
    def test_clock_draws_match_the_per_ring_loop(self, epsilon, kappa,
                                                 horizon_T):
        cfg = cfg_small(epsilon=epsilon, kappa=kappa, horizon_T=horizon_T)
        for seed in range(40):
            gen, oracle = (np.random.default_rng(np.random.SeedSequence(seed))
                           for _ in range(2))
            log = lattice.sample_clock(cfg, gen)
            times, marks = self.clock_loop(cfg, oracle)
            assert np.array_equal(log.times, times)
            assert np.array_equal(log.marks, marks)
            assert gen.bit_generator.state == oracle.bit_generator.state


class TestEventLog:
    def test_restrict_is_left_open_right_closed(self):
        log = EventLog(np.array([1.0, 2.0, 3.0]),
                       np.array([RIGHT, LEFT, RIGHT]))
        block = log.restrict(1.0, 3.0)
        assert list(block.times) == [2.0, 3.0]

    def test_validation(self):
        with pytest.raises(SimulationError):
            EventLog(np.array([2.0, 1.0]), np.array([RIGHT, LEFT]))

    @pytest.mark.parametrize("marks", [["right", "left"], [RIGHT, 2],
                                       [256, LEFT], [0.0, 1.0]])
    def test_marks_other_than_the_two_codes_rejected(self, marks):
        with pytest.raises(SimulationError):
            EventLog(np.array([1.0, 2.0]), np.array(marks))


class TestCodes:
    def test_colors_and_marks_are_int8(self, rng):
        ps = lattice.sample_initial(macro.tent_pair(), cfg_small(), rng)
        log = lattice.sample_clock(cfg_small(kappa=5.0), rng)
        assert len(log) > 0
        assert ps.colors.dtype == np.int8 and log.marks.dtype == np.int8
        assert ParticleState(np.array([0, 1]), [A, B]).colors.dtype == np.int8

    @pytest.mark.parametrize("colors", [["a", "b"], [A, 2], [256, B],
                                        [True, False], [0.0, 1.0]])
    def test_colors_other_than_the_two_codes_rejected(self, colors):
        with pytest.raises(SimulationError):
            ParticleState(np.array([0, 1]), np.array(colors))

    @pytest.mark.parametrize("mark", ["right", 2])
    def test_rank_select_rejects_unknown_marks(self, mark):
        with pytest.raises(SimulationError):
            lattice.rank_select(np.array([0]), np.array([A], np.int8), mark)

    @pytest.mark.parametrize("color", ["a", 2])
    def test_per_color_counts_reject_unknown_colors(self, color):
        ps = ParticleState(np.array([0, 1]), np.array([A, B]))
        with pytest.raises(SimulationError):
            lattice.scaled_tail_curve(ps, color, np.zeros(1), 0.1)


class TestRankSelection:
    def test_rightmost_a_prefers_largest_label_on_ties(self):
        ps = ParticleState(np.array([2, 2, 0]), np.array([A, A, A]))
        assert lattice.rank_select(ps.positions, ps.colors, RIGHT) == 2

    def test_leftmost_b_prefers_largest_label_on_ties(self):
        ps = ParticleState(np.array([0, 0, 1]), np.array([B, B, B]))
        assert lattice.rank_select(ps.positions, ps.colors, LEFT) == 2

    def test_rank_selection_by_position(self):
        ps = ParticleState(np.array([-1, 3, 0]), np.array([A, A, B]))
        assert lattice.rank_select(ps.positions, ps.colors, RIGHT) == 2
        assert lattice.rank_select(ps.positions, ps.colors, LEFT) == 3

    def test_absent_species_returns_none(self):
        ps = ParticleState(np.array([0, 1]), np.array([A, A]))
        assert lattice.rank_select(ps.positions, ps.colors, LEFT) is None
        for mark in (RIGHT, LEFT):
            assert lattice.rank_select(np.zeros(0, np.int64),
                                       np.zeros(0, np.int8), mark) is None

    @pytest.mark.parametrize("M", [1, 2, 4, 5, 40, 63, 64, 65, 400])
    def test_vector_branch_matches_the_loop(self, M):
        # the one numpy body against the loop oracle at every size; few
        # sites force ties, and a species is absent in some draws
        rng = np.random.default_rng(M)
        for _ in range(200):
            positions = rng.integers(-3, 4, M)
            colors = (rng.random(M) < rng.choice([0.0, 0.1, 0.5, 1.0])
                      ).astype(np.int8)
            for mark, (color, sign) in ((RIGHT, (A, 1)), (LEFT, (B, -1))):
                want = _rank_loop(positions, colors, color, sign)
                assert lattice.rank_select(positions, colors, mark) == want
                # x -> -x, a <-> b, right <-> left selects the same label
                assert lattice.rank_select(-positions, 1 - colors,
                                           1 - mark) == want


class TestWalks:
    def test_positions_at_matches_jump_bookkeeping(self, rng):
        real = PositionRealization.sample(np.array([0, 5, -3]), 20.0, rng)
        for i in range(real.M):
            if len(real.jump_times[i]):
                t_mid = float(real.jump_times[i][0]) / 2.0
                assert real.positions_at(t_mid)[i] == real.x0[i]
        assert np.array_equal(real.positions_at(0.0), real.x0)
        final = real.positions_at(20.0)
        for i in range(real.M):
            assert final[i] == real.paths[i][-1]

    def test_jump_count_near_rate(self, rng):
        real = PositionRealization.sample(np.zeros(200, dtype=np.int64),
                                          50.0, rng)
        mean_jumps = np.mean([len(jt) for jt in real.jump_times])
        assert abs(mean_jumps - 50.0) <= 5.0 * np.sqrt(50.0 / 200)

    # mean jump counts 0.3 (mostly empty walks), 5 and 37.5
    @pytest.mark.parametrize("t_end", [0.3, 5.0, 37.5])
    def test_stored_realization_draws_are_unchanged(self, t_end):
        x0 = np.arange(-20, 20)
        g1, g2 = (np.random.default_rng(np.random.SeedSequence(9))
                  for _ in range(2))
        real = PositionRealization.sample(x0, t_end, g1)
        # the construction, written out: the counts of `_increments`, then
        # per walk sorted uniform times on (0, t_end] and the up-steps on a
        # uniformly random subset of its jumps
        ups = g2.poisson(t_end / 2, size=len(x0))
        n = ups + g2.poisson(t_end / 2, size=len(x0))
        for jt, st, k, u in zip(real.jump_times, real.steps, n, ups):
            assert np.array_equal(jt, np.sort(t_end - t_end * g2.random(k)))
            assert np.array_equal(st, np.where(g2.permutation(k) < u, 1, -1))
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_evolve_positions_keeps_colors_and_time(self, rng):
        ps = ParticleState(np.array([0, 1, 2]), np.array([A, B, A]))
        out = lattice.evolve_positions(ps, 0.0, 7.0, rng)
        assert list(out.colors) == [A, B, A]
        assert out.time == 7.0

    def test_evolve_positions_time_mismatch(self, rng):
        ps = ParticleState(np.array([0]), np.array([A]), time=1.0)
        with pytest.raises(SimulationError):
            lattice.evolve_positions(ps, 0.0, 2.0, rng)


def meeting_replay(real, i, j, s_lo, s_hi):
    """The oracle of `first_meeting`: replay the jumps of walks i and j in
    (s_lo, s_hi] in (time, label, step) order from their positions at s_lo,
    stopping at the first jump that puts them on one site."""
    x = dict(zip((i, j), real.positions_at(s_lo)[[i - 1, j - 1]].tolist()))
    jumps = sorted((t, lab, st) for lab in (i, j)
                   for t, st in zip(real.jump_times[lab - 1].tolist(),
                                    real.steps[lab - 1].tolist())
                   if s_lo < t <= s_hi)
    for t, lab, st in jumps:
        x[lab] += st
        if x[i] == x[j]:
            return t, lab
    return None


def ordered_pairs(x):
    """Labels (i, j) of every walk i strictly right of a walk j at x."""
    labels = range(1, len(x) + 1)
    return [(i, j) for i in labels for j in labels if x[i - 1] > x[j - 1]]


def twin_generators(rng):
    """Two generators in one state, seeded from `rng`."""
    seed = int(rng.integers(2**63))
    return (np.random.default_rng(seed) for _ in range(2))


def layout_positions(real, times):
    """The oracle of `positions_at_many`: a searchsorted of each walk's jump
    times at `times`, read off its path."""
    return np.array([[path[np.searchsorted(jt, t, side="right")]
                      for t in times]
                     for jt, path in zip(real.jump_times, real.paths)]
                    ).reshape(real.M, len(times)).T


class TestKnownTimes:
    def test_queries_match_the_per_walk_search(self, rng):
        for _ in range(60):
            M, t_end = int(rng.integers(1, 7)), float(rng.uniform(0.5, 15.0))
            x0 = rng.integers(-4, 5, size=M)
            g1, g2 = twin_generators(rng)
            plain = PositionRealization.sample(x0, t_end, g1)
            # known times: some on jump times, with repeats, 0 and t_end
            jt = np.concatenate([[0.0, t_end], *plain.jump_times])
            known = np.where(rng.random(8) < 0.5, rng.choice(jt, 8),
                             rng.uniform(0.0, t_end, 8))
            real = PositionRealization.sample(x0, t_end, g2, times=known)
            # the times draw nothing: the same walks, the same stream after
            assert g1.bit_generator.state == g2.bit_generator.state
            for a, b in zip(real.jump_times + real.steps,
                            plain.jump_times + plain.steps):
                assert np.array_equal(a, b)
            assert list(real._times) == sorted(set(known.tolist()))
            unknown = rng.uniform(0.0, t_end, 5)
            mixed = rng.permutation(np.concatenate([known[:4], unknown[:3]]))
            for times in (known, unknown, mixed, []):
                assert np.array_equal(real.positions_at_many(times),
                                      layout_positions(real, times))
                assert np.array_equal(plain.positions_at_many(times),
                                      layout_positions(plain, times))
            # an unknown time asked again reads the row it got the first time
            n_known = len(real._times)
            again = real.positions_at_many(unknown[::-1])
            assert np.array_equal(again, layout_positions(real, unknown[::-1]))
            assert len(real._times) == n_known

    def test_a_hand_built_realization_knows_no_time_until_asked(self):
        # walk 1 never jumps; walk 2 steps up at t=1 and t=2, down at t=3
        real = PositionRealization(np.array([5, 0]),
                                   [np.array([]), np.array([1.0, 2.0, 3.0])],
                                   [np.array([], dtype=np.int64),
                                    np.array([1, 1, -1])], 4.0)
        assert len(real._times) == 0
        assert real.positions_at_many([2.5, 0.0, 1.0, 4.0]).tolist() == [
            [5, 2], [5, 0], [5, 1], [5, 1]]
        assert list(real._times) == [0.0, 1.0, 2.5, 4.0]
        assert real._jumps[:, 1].tolist() == [0, 1, 2, 3]
        assert real.first_meeting(1, 2, 0.0, 4.0) is None
        assert real.positions_at(3.0).tolist() == [5, 1]


class TestFirstMeeting:
    def test_matches_the_jump_by_jump_replay(self, rng):
        met = 0
        for n in range(300):
            M = int(rng.integers(2, 6))
            x0 = rng.integers(0, 5, size=M)
            # half the realizations know times, some on their jump times,
            # and take the window ends from those; the others know none
            g1, g2 = twin_generators(rng)
            real = PositionRealization.sample(x0, 10.0, g1)
            jt = np.concatenate([[0.0, 10.0], *real.jump_times])
            if n % 2:
                known = np.where(rng.random(6) < 0.5, rng.choice(jt, 6),
                                 rng.uniform(0.0, 10.0, 6))
                real = PositionRealization.sample(x0, 10.0, g2, times=known)
                s_lo, s_hi = np.sort(rng.choice(known, 2))
            else:
                # window ends on jump times often, so both boundary rules bite
                s_lo, s_hi = np.sort(np.where(rng.random(2) < 0.5,
                                              rng.choice(jt, 2),
                                              rng.uniform(0.0, 10.0, 2)))
            for i, j in ordered_pairs(real.positions_at(s_lo)):
                want = meeting_replay(real, i, j, s_lo, s_hi)
                assert real.first_meeting(i, j, s_lo, s_hi) == want
                met += want is not None
        assert met >= 100

    def test_a_jump_at_s_hi_counts_and_one_at_s_lo_does_not(self):
        # walk 2 steps from 0 to 1 at t=1 and onto walk 1's site 2 at t=2
        real = PositionRealization(np.array([2, 0]),
                                   [np.array([]), np.array([1.0, 2.0])],
                                   [np.array([], dtype=np.int64),
                                    np.array([1, 1])], 3.0)
        assert real.first_meeting(1, 2, 0.0, 2.0) == (2.0, 2)
        assert real.first_meeting(1, 2, 0.0, 1.5) is None
        # the jump at s_lo is in the start gap, not replayed
        assert real.first_meeting(1, 2, 1.0, 2.0) == (2.0, 2)

    def test_commutes_with_the_mirror(self, rng):
        # x -> -x puts walk j right of walk i on the same jump times
        met = 0
        for _ in range(100):
            M = int(rng.integers(2, 6))
            real = PositionRealization.sample(rng.integers(-3, 4, size=M),
                                              8.0, rng)
            mirror = PositionRealization(-real.x0, real.jump_times,
                                         [-s for s in real.steps], 8.0)
            s_lo, s_hi = np.sort(rng.uniform(0.0, 8.0, 2))
            for i, j in ordered_pairs(real.positions_at(s_lo)):
                hit = real.first_meeting(i, j, s_lo, s_hi)
                assert mirror.first_meeting(j, i, s_lo, s_hi) == hit
                met += hit is not None
        assert met >= 30


def skellam_pmf(k: int, mean_jumps: float) -> float:
    """P(X = k) = e^-t I_k(t), t = mean_jumps, for the displacement X of a
    walk making Poisson(t) jumps of +-1: Poisson(t/2) up-steps minus an
    independent Poisson(t/2) down-steps, summed over the down-steps m."""
    k, half = abs(k), mean_jumps / 2.0
    m_max = int(half + 12.0 * math.sqrt(half) + 30)
    return sum(math.exp((2 * m + k) * math.log(half) - mean_jumps
                        - math.lgamma(m + 1) - math.lgamma(m + k + 1))
               for m in range(m_max))


# every statistical check below is two-sided at this level
LEVEL = 1e-4
Z = NormalDist().inv_cdf(1.0 - LEVEL / 2.0)


def assert_skellam(disp: np.ndarray, mean_jumps: float) -> None:
    """Mean 0, variance mean_jumps and the Skellam histogram (chi-square,
    bins with at least 5 expected, tails pooled, critical value by the
    Wilson-Hilferty approximation)."""
    n = len(disp)
    assert abs(disp.mean()) <= Z * math.sqrt(mean_jumps / n)
    # fourth cumulant of the Skellam law is mean_jumps too
    var_se = math.sqrt((mean_jumps + 2.0 * mean_jumps**2) / n)
    assert abs(disp.var(ddof=1) - mean_jumps) <= Z * var_se
    ks = np.arange(-int(8 * math.sqrt(mean_jumps)) - 10,
                   int(8 * math.sqrt(mean_jumps)) + 11)
    expected = n * np.array([skellam_pmf(int(k), mean_jumps) for k in ks])
    keep = expected >= 5.0
    observed = np.array([np.count_nonzero(disp == k) for k in ks[keep]])
    expected = expected[keep]
    lo, hi = ks[keep][0], ks[keep][-1]
    observed = np.append(observed, np.count_nonzero((disp < lo) | (disp > hi)))
    expected = np.append(expected, n - expected.sum())
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    df = len(observed) - 1
    z = NormalDist().inv_cdf(1.0 - LEVEL)
    crit = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
    assert chi2 <= crit, (chi2, crit, df)


def assert_uncorrelated(x: np.ndarray, y: np.ndarray) -> None:
    assert abs(np.corrcoef(x, y)[0, 1]) <= Z / math.sqrt(len(x))


class TestStreamedWalks:
    M, T_END = 20000, 18.0

    def walks(self, seed, rings, rng=None):
        x0 = np.random.default_rng(seed).integers(-50, 50, size=self.M)
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
        return lattice.StreamedWalks(x0, self.T_END, rng, rings)

    def test_displacements_follow_the_exact_law(self):
        walks = self.walks(5, [6.0, 15.0])
        x = walks.positions_at_many([0.0, 6.0, 15.0, self.T_END])
        assert np.array_equal(x[0], walks.x0)
        steps = np.diff(x, axis=0)
        for step, dt in zip(steps, (6.0, 9.0, 3.0)):
            assert_skellam(step, dt)
        assert_uncorrelated(steps[0], steps[1])
        assert_uncorrelated(steps[1], steps[2])

    def test_up_and_down_counts_are_independent_poisson(self):
        walks = self.walks(8, [6.0, 15.0])
        # a bridged query splits the gap (6, 15) into 3 and 6
        walks.positions_at(9.0)
        assert list(walks._times) == [0.0, 6.0, 9.0, 15.0, self.T_END]
        gaps = list(zip(np.diff(walks._jumps, axis=0),
                        np.diff(walks._positions, axis=0),
                        np.diff(walks._times)))
        # the stored realization's counts over the whole of [0, T_END]
        real = PositionRealization.sample(
            walks.x0, self.T_END,
            np.random.default_rng(np.random.SeedSequence(9)))
        n_real = np.array([len(jt) for jt in real.jump_times])
        gaps.append((n_real, real.positions_at(self.T_END) - real.x0,
                     self.T_END))
        for n, d, dt in gaps:
            # Poisson(half): mean and variance half, fourth cumulant half
            half = dt / 2
            var_se = math.sqrt((half + 2.0 * half**2) / self.M)
            up, down = (n + d) // 2, (n - d) // 2
            for count in (up, down):
                assert abs(count.mean() - half) <= Z * math.sqrt(half / self.M)
                assert abs(count.var(ddof=1) - half) <= Z * var_se
            assert_uncorrelated(up, down)
        # its layout: increasing times in (0, T_END], uniform when pooled
        assert all(np.all(np.diff(jt) > 0) for jt in real.jump_times)
        u = np.concatenate(real.jump_times) / self.T_END
        assert u.min() > 0 and u.max() <= 1
        assert abs(u.mean() - 1 / 2) <= Z * math.sqrt(1 / 12 / len(u))
        # the fourth central moment of a uniform is 1/80
        var_se = math.sqrt((1 / 80 - 1 / 144) / len(u))
        assert abs(u.var(ddof=1) - 1 / 12) <= Z * var_se
        # given its jump count, a walk's steps are fair and independent, so
        # the first and second k of its jumps (k half their number) hold
        # equal shares of up-steps: their step sums, 2 * ups - k each,
        # differ by 0 in mean, with variance 2k
        ks = [len(st) // 2 for st in real.steps]
        diff = sum(int(st[:k].sum() - st[len(st) - k:].sum())
                   for st, k in zip(real.steps, ks))
        assert abs(diff) <= Z * math.sqrt(2 * sum(ks))

    def test_off_ring_query_is_an_exact_bridge(self):
        rng = np.random.default_rng(np.random.SeedSequence(6))
        walks = self.walks(6, [3.0, 12.0], rng)
        rng_state = rng.bit_generator.state
        t = self.T_END / 3
        x_t = walks.positions_at(t)
        # the marginal at t, and the two pieces of the gap (3, 12) it splits
        assert_skellam(x_t - walks.x0, t)
        x_lo, x_hi = walks.positions_at_many([3.0, 12.0])
        assert_skellam(x_t - x_lo, t - 3.0)
        assert_skellam(x_hi - x_t, 12.0 - t)
        assert_uncorrelated(x_t - x_lo, x_hi - x_t)
        # memoised: a repeated query, alone or among others, returns the same
        assert np.array_equal(walks.positions_at(t), x_t)
        many = walks.positions_at_many([1.5, t, 7.5, t, 13.5])
        assert np.array_equal(many[1], x_t) and np.array_equal(many[3], x_t)
        # later queries bridge between their nearest known neighbours:
        # parity and reach hold between every two consecutive known times
        assert list(walks._times) == [0.0, 1.5, 3.0, t, 7.5, 12.0, 13.5,
                                      self.T_END]
        steps = np.diff(walks.positions_at_many(walks._times), axis=0)
        jumps = np.diff(walks._jumps, axis=0)
        assert np.all(np.abs(steps) <= jumps)
        assert np.all((steps - jumps) % 2 == 0)
        # bridge draws come from a child stream, not from the caller's rng
        assert rng.bit_generator.state == rng_state

    def test_unknown_times_of_one_query_bridge_in_ascending_order(self):
        # several unknown times in one gap, asked together, draw what they
        # draw when asked one at a time from the earliest
        a, b = self.walks(4, [9.0]), self.walks(4, [9.0])
        times = [7.0, 2.0, 5.0, 11.0, 3.5, 5.0]
        together = a.positions_at_many(times)
        alone = {t: b.positions_at(t) for t in sorted(set(times))}
        for t, row in zip(times, together):
            assert np.array_equal(row, alone[t])
        assert np.array_equal(a._jumps, b._jumps)
        steps = np.diff(a._positions, axis=0)
        jumps = np.diff(a._jumps, axis=0)
        assert np.all(np.abs(steps) <= jumps)
        assert np.all((steps - jumps) % 2 == 0)

    def test_bridge_draws_are_deterministic_per_seed(self):
        a, b = self.walks(7, [4.5]), self.walks(7, [4.5])
        for t in (self.T_END / 3, 1.5, 17.25):
            assert np.array_equal(a.positions_at(t), b.positions_at(t))

    @pytest.mark.parametrize("epsilon, kappa, seed", [
        (0.1, 1.0, 0), (0.02, 1.0, 1), (0.1, 20.0, 2), (0.05, 10.0, 3)])
    def test_colors_follow_the_ring_positions(self, epsilon, kappa, seed):
        cfg = cfg_small(epsilon=epsilon, kappa=kappa, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        ps0 = lattice.sample_initial(macro.tent_pair(), cfg, rng)
        log = lattice.sample_clock(cfg, rng)
        traj = lattice.run_true(ps0, log, cfg.micro_horizon, rng=rng)
        assert len(log) > 0
        rows = traj.realization.positions_at_many(log.times)
        colors, absent = ps0.colors.copy(), 0
        for t, positions, mark in zip(log.times, rows, log.marks):
            lab = lattice.rank_select(positions, colors, mark)
            if lab is None:
                absent += 1
            else:
                colors[lab - 1] = 1 - mark
            st = traj.state_at(float(t))
            assert np.array_equal(st.positions, positions)
            assert np.array_equal(st.colors, colors)
        assert traj.absent_flip_count == absent

    # each case evolves over scale * tau: a walk jumping at rate `scale`
    # for time tau, the mean jump counts 0.3, 5, 37.5 and 1250
    @pytest.mark.parametrize("scale, tau", [(1.0, 0.3), (2.0, 2.5),
                                            (1.5, 25.0), (0.5, 2500.0)])
    def test_evolve_positions_draws_are_unchanged(self, scale, tau):
        ps = ParticleState(np.arange(-20, 20), np.tile([A, B], 20), time=1.0)
        g1, g2 = (np.random.default_rng(np.random.SeedSequence(9))
                  for _ in range(2))
        out = lattice.evolve_positions(ps, 1.0, 1.0 + scale * tau, g1)
        # the sampler's formula, written out: up-steps first, then down-steps
        ups = g2.poisson(scale * tau / 2, size=ps.M)
        downs = g2.poisson(scale * tau / 2, size=ps.M)
        assert np.array_equal(out.positions, ps.positions + ups - downs)
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_positions_at_many_stacks_positions_at(self, rng):
        real = PositionRealization.sample(np.array([0, 5, -3, 2]), 20.0, rng)
        times = [20.0, 0.0, float(real.jump_times[0][0]), 7.5, 3.0]
        many = real.positions_at_many(times)
        assert many.shape == (len(times), real.M)
        for row, t in zip(many, times):
            assert np.array_equal(row, real.positions_at(t))
            # reference: the sum of the steps taken by time t
            assert list(row) == [
                x + int(st[jt <= t].sum())
                for x, jt, st in zip(real.x0, real.jump_times, real.steps)]
        assert real.positions_at_many([]).shape == (0, real.M)

    def test_streamed_queries_outside_the_horizon_raise(self, rng):
        ps0 = ParticleState(np.array([0, 3]), np.array([A, B]))
        log = EventLog(np.array([1.0, 4.0]), np.array([RIGHT, LEFT]))
        traj = lattice.run_true(ps0, log, 5.0, rng=rng)
        assert isinstance(traj.realization, lattice.StreamedWalks)
        for t in (-0.5, 5.5):
            with pytest.raises(SimulationError):
                traj.state_at(t)
            with pytest.raises(SimulationError):
                traj.realization.positions_at_many([1.0, t])


class TestTrajectory:
    def test_color_counts_track_the_log(self, rng):
        profile = macro.tent_pair()
        cfg = cfg_small(epsilon=0.1, kappa=1.0, horizon_T=0.5)
        ps0 = lattice.sample_initial(profile, cfg, rng)
        log = lattice.sample_clock(cfg, rng)
        h_a0 = int(np.sum(ps0.colors == A))
        if not lattice.in_X(h_a0, ps0.M, log, cfg.micro_horizon):
            pytest.skip("survival set missed at this seed")
        traj = lattice.run_true(ps0, log, cfg.micro_horizon, rng=rng)
        assert traj.absent_flip_count == 0
        for t in (0.0, cfg.micro_horizon / 3, cfg.micro_horizon):
            st = traj.state_at(t)
            # a left ring turns a b into an a, a right ring an a into a b
            rung = log.marks[log.times <= t]
            assert np.sum(st.colors == A) == (h_a0 + np.sum(rung == LEFT)
                                              - np.sum(rung == RIGHT))

    def test_state_at_is_cadlag_at_ring_times(self):
        ps0 = ParticleState(np.array([0, 1]), np.array([A, B]))
        log = EventLog(np.array([1.0]), np.array([RIGHT]))
        real = PositionRealization(ps0.positions, [np.array([])] * 2,
                                   [np.array([], dtype=np.int64)] * 2, 2.0)
        traj = lattice.run_true(ps0, log, 2.0, realization=real)
        assert list(traj.state_at(0.999).colors) == [A, B]
        assert list(traj.state_at(1.0).colors) == [B, B]

    def test_flip_and_absent_species_noop(self):
        ps0 = ParticleState(np.array([0, 1]), np.array([A, B]))
        log = EventLog(np.array([1.0, 2.0, 3.0]),
                       np.array([RIGHT, RIGHT, LEFT]))
        real = PositionRealization(ps0.positions, [np.array([])] * 2,
                                   [np.array([], dtype=np.int64)] * 2, 4.0)
        traj = lattice.run_true(ps0, log, 4.0, realization=real)
        assert list(traj.state_at(1.0).colors) == [B, B]
        # the second 'right' finds no a-particle and changes nothing
        assert list(traj.state_at(2.0).colors) == [B, B]
        assert traj.absent_flip_count == 1
        assert list(traj.state_at(3.0).colors) == [A, B]

    @pytest.mark.parametrize("M", [30, 80])
    def test_true_run_commutes_with_the_mirror(self, rng, M):
        # x -> -x, a <-> b, right <-> left on the same jump and ring times;
        # both marks break ties toward the largest label, so the mirrored
        # run is the mirror of the run exactly
        t_end = 2.0
        for _ in range(5):
            x0 = rng.integers(-4, 5, size=M)
            real = PositionRealization.sample(x0, t_end, rng)
            mirror = PositionRealization(-real.x0, real.jump_times,
                                         [-s for s in real.steps], t_end)
            colors = np.where(rng.random(M) < 0.5, A, B)
            rings = np.sort(rng.uniform(0.0, t_end, 20))
            marks = np.where(rng.random(20) < 0.5, RIGHT, LEFT)
            traj = lattice.run_true(ParticleState(x0, colors),
                                    EventLog(rings, marks), t_end,
                                    realization=real)
            mirr = lattice.run_true(ParticleState(-x0, 1 - colors),
                                    EventLog(rings, 1 - marks), t_end,
                                    realization=mirror)
            assert mirr.absent_flip_count == traj.absent_flip_count
            for t in np.concatenate([np.linspace(0.0, t_end, 81), rings]):
                here, there = traj.state_at(t), mirr.state_at(t)
                assert np.array_equal(there.positions, -here.positions)
                assert np.array_equal(there.colors, 1 - here.colors)

    def test_in_X_tally(self):
        log = EventLog(np.array([1.0, 2.0]), np.array([RIGHT, RIGHT]))
        assert not lattice.in_X(2, 4, log, 2.0)
        assert lattice.in_X(3, 4, log, 2.0)
        left_log = EventLog(np.array([1.0]), np.array([LEFT]))
        assert not lattice.in_X(3, 4, left_log, 1.0)
        # from no a-particle a left flip leaves both species present, but
        # the run did not start in X
        assert lattice.marks_stay_in_X(0, 2, [LEFT])
        assert not lattice.in_X(0, 2, left_log, 1.0)


def in_X_numpy(h_a0, M, log, t_end):
    """Oracle: the cumulative-sum tally `in_X` kept before it called
    `marks_stay_in_X`."""
    sel = log.times <= t_end
    signs = np.where(log.marks[sel] == LEFT, 1, -1)
    tally = h_a0 + np.concatenate([[0], np.cumsum(signs)])
    return bool(np.all((tally > 0) & (tally < M)))


def marks_stay_loop(h_a0, M, marks):
    """Oracle: the flip loop `coupling` kept as its own survival tally."""
    n_a = h_a0
    for mark in marks:
        n_a += 1 if mark == LEFT else -1
        if not 0 < n_a < M:
            return False
    return True


@st.composite
def survival_cases(draw):
    """(M, h_a0, marks, t_end): mark k rings at time k + 1."""
    M = draw(st.integers(1, 8))
    h_a0 = draw(st.integers(0, M))
    marks = draw(st.lists(st.sampled_from([RIGHT, LEFT]), max_size=12))
    t_end = draw(st.floats(0.0, 13.0))
    return M, h_a0, marks, t_end


@given(survival_cases())
@example((2, 0, [LEFT], 13.0))
@example((3, 3, [RIGHT, RIGHT], 1.5))
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
def test_one_survival_tally(case):
    M, h_a0, marks, t_end = case
    log = EventLog(np.arange(1.0, len(marks) + 1),
                   np.array(marks, dtype=np.int8))
    assert lattice.in_X(h_a0, M, log, t_end) == in_X_numpy(h_a0, M, log,
                                                           t_end)
    assert lattice.marks_stay_in_X(h_a0, M, marks) == marks_stay_loop(
        h_a0, M, marks)


class TestReplicas:
    @pytest.mark.parametrize("seed, rep", [(0, 0), (17, 3), (10**30, 1)])
    def test_replica_rngs_are_the_spawned_substreams(self, seed, rep):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
        expected = [np.random.default_rng(c).random(8) for c in ss.spawn(3)]
        got = [g.random(8) for g in lattice.replica_rngs(seed, rep)]
        assert all(map(np.array_equal, got, expected))

    @pytest.mark.parametrize("cpus, threads, n_seeds, workers", [
        (4, 10000, 10000, 4), (4, 3, 5, 3), (4, 8, 2, 2), (4, 1, 100, 1),
        (4, 2, 0, 1), (1, 2, 10, 1)])
    def test_worker_count_is_capped(self, monkeypatch, cpus, threads, n_seeds,
                                    workers):
        monkeypatch.setattr(lattice, "usable_cpus", lambda: cpus)
        assert lattice.worker_count(threads, n_seeds) == workers

    def test_usable_cpus_reads_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert lattice.usable_cpus() == len(os.sched_getaffinity(0))
        assert lattice.usable_cpus() >= 1

    def test_fan_out_keeps_rep_order(self, monkeypatch):
        monkeypatch.setattr(lattice, "usable_cpus", lambda: 4)
        rows = lattice.map_seeds(lambda rep: (rep, os.getpid()), 5, 3)
        assert [rep for rep, _ in rows] == list(range(5))
        # strided chunks: reps i, i + 3, ... run in one call of one worker
        pids = [pid for _, pid in rows]
        assert pids[0] == pids[3] and pids[1] == pids[4]
        assert os.getpid() not in pids
        assert not process_left_running()

    @pytest.mark.parametrize("n_seeds, threads", [(5, 3), (7, 2), (4, 4),
                                                  (9, 4)])
    def test_each_worker_runs_one_chunk(self, monkeypatch, n_seeds, threads):
        monkeypatch.setattr(lattice, "usable_cpus", lambda: 4)
        workers = lattice.worker_count(threads, n_seeds)
        pids = lattice.map_seeds(lambda rep: os.getpid(), n_seeds, threads)
        assert len(set(pids)) == workers
        for first in range(workers):
            chunk = pids[first::workers]
            assert chunk == [chunk[0]] * len(chunk)
        assert not process_left_running()

    def test_without_fork_the_replicas_run_here(self, monkeypatch):
        monkeypatch.setattr(lattice, "usable_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        calls = []
        pids = lattice.map_seeds(lambda rep: calls.append(rep) or os.getpid(),
                                 3, 2, meanwhile=lambda: calls.append("ref"))
        assert pids == [os.getpid()] * 3
        # serially the parent's callable runs first, then the replicas
        assert calls == ["ref", 0, 1, 2]

    def test_the_parent_works_while_the_workers_run(self, monkeypatch):
        # each worker waits for the byte `meanwhile` writes: a parent that
        # waited for its workers first would leave them to time out
        monkeypatch.setattr(lattice, "usable_cpus", lambda: 4)
        r, w = os.pipe()
        try:
            rows = lattice.map_seeds(
                lambda rep: bool(select.select([r], [], [], 30)[0]), 3, 2,
                meanwhile=lambda: os.write(w, b"x"))
        finally:
            os.close(r)
            os.close(w)
        assert rows == [True] * 3
        assert not process_left_running()

    @pytest.mark.parametrize("replica", ["raises", "sleeps"])
    def test_the_parent_callable_error_wins(self, monkeypatch, replica):
        monkeypatch.setattr(lattice, "usable_cpus", lambda: 4)

        def fn(rep):
            if replica == "raises":
                raise SimulationError("replica failed")
            time.sleep(60)

        def solve():
            raise ValueError("solve failed")

        start = time.monotonic()
        with pytest.raises(ValueError, match="solve failed"):
            lattice.map_seeds(fn, 4, 2, meanwhile=solve)
        # sleeping workers are stopped, not waited for
        assert time.monotonic() - start < 30
        assert not process_left_running()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_replica_error_is_the_first_failing_reps(self, monkeypatch,
                                                     threads):
        monkeypatch.setattr(lattice, "usable_cpus", lambda: 4)

        def fn(rep):
            if rep in (1, 2):
                raise SimulationError(f"rep {rep} failed")
            return rep

        # with two workers, worker 0 fails at rep 2 and worker 1 at rep 1
        with pytest.raises(SimulationError, match="rep 1 failed") as info:
            lattice.map_seeds(fn, 4, threads)
        if threads > 1:
            assert isinstance(info.value.__cause__, lattice.WorkerTraceback)
            assert "fn" in str(info.value.__cause__)
        assert not process_left_running()

    def test_an_unpicklable_replica_error_still_reaches_the_parent(
            self, monkeypatch):
        monkeypatch.setattr(lattice, "usable_cpus", lambda: 4)

        class LocalError(Exception):
            pass

        def fn(rep):
            raise LocalError("local")

        with pytest.raises(RuntimeError, match="LocalError"):
            lattice.map_seeds(fn, 2, 2)
        assert not process_left_running()

    @pytest.mark.parametrize("death, code", [
        (lambda: os._exit(3), 3),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL)])
    def test_a_worker_that_dies_raises_in_the_parent(self, monkeypatch, death,
                                                     code):
        monkeypatch.setattr(lattice, "usable_cpus", lambda: 4)

        def fn(rep):
            if rep == 1:
                death()
            return rep

        with pytest.raises(RuntimeError, match=f"exit code {code} before"):
            lattice.map_seeds(fn, 4, 2)
        assert not process_left_running()


class TestProfiles:
    def test_empirical_profile_mass(self, rng):
        profile = macro.tent_pair()
        cfg = cfg_small(epsilon=0.05)
        ps = lattice.sample_initial(profile, cfg, rng)
        emp = lattice.empirical_profile(ps, cfg, profile.grid)
        assert emp.total_mass == pytest.approx(cfg.epsilon * ps.M, abs=0.01)

    def test_scaled_tail_curve_matches_occupation(self, rng):
        profile = macro.tent_pair()
        cfg = cfg_small(epsilon=0.05)
        ps = lattice.sample_initial(profile, cfg, rng)
        rs = np.linspace(-2.0, 2.0, 31)
        for color in (A, B):
            curve = lattice.scaled_tail_curve(ps, color, rs, cfg.epsilon)
            # eps times the number of `color` particles at sites >= r/eps
            direct = [cfg.epsilon * np.count_nonzero(
                (ps.colors == color)
                & (ps.positions >= np.ceil(r / cfg.epsilon - 1e-12)))
                for r in rs]
            assert np.allclose(curve, direct)

    def test_occupation_totals(self, rng, tmp_path):
        ps = lattice.sample_initial(macro.tent_pair(),
                                    cfg_small(epsilon=0.01), rng)
        path = tmp_path / "occ.csv"
        lattice.write_occupation_csv(path, ps)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64)
        assert np.array_equal(rows[:, 0], np.unique(ps.positions))
        assert rows[:, 1].sum() == np.count_nonzero(ps.colors == A)
        assert rows[:, 2].sum() == np.count_nonzero(ps.colors == B)
        for x, xi, eta in rows:
            here = ps.colors[ps.positions == x]
            assert (xi, eta) == (np.count_nonzero(here == A),
                                 np.count_nonzero(here == B))

    def test_occupation_csv(self, tmp_path):
        path = tmp_path / "occ.csv"
        for positions, colors, rows in (
                ([0, 2], [A, B], ["0,1,0", "2,0,1"]),
                ([2, 0, -1, 0, 0], [B, A, B, B, A],
                 ["-1,0,1", "0,2,1", "2,0,1"])):
            lattice.write_occupation_csv(
                path, ParticleState(np.array(positions), np.array(colors)))
            lines = path.read_text().strip().splitlines()
            assert lines == ["site,xi,eta", *rows]
