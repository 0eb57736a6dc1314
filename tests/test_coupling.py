"""Two-copy splitting calculus: C-maps, dissolutions, balance identities."""
import numpy as np
import pytest

from twospecies import coupling, lattice, macro
from twospecies.coupling import (CoupledState, CouplingError, Splitting,
                                 SplittingFault)
from twospecies.lattice import A, B, LEFT, RIGHT


def cs_of(positions, sigma, sigma_prime):
    return CoupledState(np.array(positions), np.array(sigma),
                        np.array(sigma_prime))


def random_ordered_instance(rng, max_particles=5, n_sites=6):
    """Random positions with two matched colorings, the second dominated by
    the first (rejection sampled)."""
    while True:
        M = int(rng.integers(2, max_particles + 1))
        positions = np.sort(rng.integers(0, n_sites, size=M))
        sigma = np.where(rng.random(M) < 0.5, A, B)
        sigma_p = rng.permutation(sigma)
        xi = coupling.site_counts(positions, sigma)
        xi_p = coupling.site_counts(positions, sigma_p)
        if coupling.dominates(xi_p, xi):
            return cs_of(positions, sigma, sigma_p)


class TestOrder:
    def test_order_witness_and_dominates(self):
        assert coupling.dominates({0: 1}, {1: 1})
        assert not coupling.dominates({1: 1}, {0: 1})
        gap, site = coupling.order_witness({2: 1}, {0: 1})
        assert gap == 1 and site == 2

    def test_site_counts_filters_by_color(self):
        counts = coupling.site_counts(np.array([0, 0, 3]),
                                      np.array([A, B, A]))
        assert counts == {0: 1, 3: 1}


class TestBuildSplitting:
    def test_single_pair(self):
        cs = cs_of([0, 1], [B, A], [A, B])
        spl = coupling.build_splitting(cs)
        assert spl.pairs == {(2, 1)}
        assert not spl.singles and not spl.disc_I and not spl.disc_J

    def test_same_site_discrepancies_cancel_by_exchange(self):
        cs = cs_of([0, 0], [A, B], [B, A])
        spl = coupling.build_splitting(cs, exchange_copy=2)
        assert not spl.pairs
        assert spl.singles == {1: A, 2: B}
        assert np.array_equal(cs.sigma_prime, cs.sigma)

    def test_exchange_copy_one_touches_the_first_copy(self):
        cs = cs_of([0, 0], [A, B], [B, A])
        spl = coupling.build_splitting(cs, exchange_copy=1)
        assert spl.singles == {1: B, 2: A}
        assert np.array_equal(cs.sigma, cs.sigma_prime)

    def test_mismatched_counts_rejected(self):
        cs = cs_of([0, 1], [A, A], [A, B])
        with pytest.raises(CouplingError):
            coupling.build_splitting(cs)

    def test_unordered_pair_rejected(self):
        cs = cs_of([0, 1], [A, B], [B, A])
        with pytest.raises(CouplingError):
            coupling.build_splitting(cs)

    def test_random_instances_build_clean_splittings(self, rng):
        for _ in range(200):
            cs = random_ordered_instance(rng)
            spl = coupling.build_splitting(cs)
            coupling.check_splitting(spl, cs)
            assert not spl.disc_I and not spl.disc_J


class TestDissolve:
    def test_colliding_pair_becomes_singletons(self):
        cs = cs_of([1, 1], [A, B], [B, A])
        spl = Splitting(pairs={(1, 2)})
        out = coupling.dissolve_collisions(spl, cs, exchange_copy=2)
        assert not out.pairs
        assert out.singles == {1: A, 2: B}
        assert np.array_equal(cs.sigma_prime, cs.sigma)
        coupling.check_splitting(out, cs)

    def test_separated_pair_untouched(self):
        cs = cs_of([2, 1], [A, B], [B, A])
        spl = Splitting(pairs={(1, 2)})
        out = coupling.dissolve_collisions(spl, cs)
        assert out.pairs == {(1, 2)}


class TestCMaps:
    def test_c1_right_breaks_a_pair_into_a_discrepancy(self):
        cs = cs_of([1, 0], [A, B], [B, A])
        spl = coupling.build_splitting(cs)
        assert spl.pairs == {(1, 2)}
        spl = coupling.apply_C1(spl, cs, RIGHT)
        assert list(cs.sigma) == [B, B]
        assert spl.singles == {1: B}
        assert spl.disc_I == {2}

    def test_c2_right_recovers_the_discrepancy(self):
        cs = cs_of([1, 0], [A, B], [B, A])
        spl = coupling.build_splitting(cs)
        spl = coupling.apply_C1(spl, cs, RIGHT)
        spl = coupling.apply_C2(spl, cs, RIGHT)
        assert list(cs.sigma_prime) == [B, B]
        assert not spl.disc_I and not spl.disc_J
        assert spl.singles == {1: B, 2: B}

    def test_c1_left_mirror(self):
        cs = cs_of([1, 0], [A, B], [B, A])
        spl = coupling.build_splitting(cs)
        spl = coupling.apply_C1(spl, cs, LEFT)
        assert list(cs.sigma) == [A, A]
        assert spl.singles == {2: A}
        assert spl.disc_J == {1}
        spl = coupling.apply_C2(spl, cs, LEFT)
        assert list(cs.sigma_prime) == [A, A]
        assert not spl.disc_I and not spl.disc_J

    def test_c1_on_singleton_creates_discrepancy(self):
        cs = cs_of([0, 1], [A, B], [A, B])
        spl = coupling.build_splitting(cs)
        spl = coupling.apply_C1(spl, cs, RIGHT)
        assert spl.disc_I == {1}
        coupling.check_splitting(spl, cs)

    def test_c2_same_site_recovery_falls_back_to_exchange(self):
        # the recovery partner for the copy-2 flip sits on the same site as
        # the flipped singleton, so the marriage is realized as two
        # singletons through a color exchange
        cs = cs_of([0, 0], [B, A], [A, A])
        spl = Splitting(singles={2: A}, disc_I={1})
        spl = coupling.apply_C2(spl, cs, RIGHT, exchange_copy=1)
        assert not spl.disc_I and not spl.disc_J
        assert spl.singles == {1: A, 2: B}
        assert list(cs.sigma) == [A, B]
        assert np.array_equal(cs.sigma, cs.sigma_prime)
        coupling.check_splitting(spl, cs)

    def test_unknown_mark_rejected(self):
        cs = cs_of([0], [A], [A])
        spl = coupling.build_splitting(cs)
        for mark in ("up", "right", 2):
            with pytest.raises(CouplingError):
                coupling.apply_C1(spl, cs, mark)
            with pytest.raises(CouplingError):
                coupling.apply_C2(spl, cs, mark)

    @pytest.mark.parametrize("sigma, sigma_prime", [
        (["a", "b"], [A, B]), ([A, B], ["b", "a"]), ([A, 2], [A, B]),
        ([A, B], [256, A])])
    def test_colors_other_than_the_two_codes_rejected(self, sigma,
                                                      sigma_prime):
        with pytest.raises(CouplingError):
            cs_of([0, 1], sigma, sigma_prime)

    @pytest.mark.parametrize("exchange_copy", [1, 2])
    def test_c_maps_commute_with_the_mirror(self, rng, exchange_copy):
        # x -> -x, a <-> b in both copies, each pair reversed, I <-> J; the
        # mirrored splitting is mapped label by label, since build_splitting
        # marries from the right and is not mirror-symmetric
        def mirror_cs(cs):
            return CoupledState(-cs.positions, np.where(cs.sigma == A, B, A),
                                np.where(cs.sigma_prime == A, B, A))

        def mirror_spl(spl):
            return Splitting({(j, i) for i, j in spl.pairs},
                             {lab: B if tag == A else A
                              for lab, tag in spl.singles.items()},
                             set(spl.disc_J), set(spl.disc_I))

        flips = 0
        for _ in range(300):
            cs = random_ordered_instance(rng, max_particles=6)
            spl = coupling.build_splitting(cs, exchange_copy=exchange_copy)
            cs_m, spl_m = mirror_cs(cs), mirror_spl(spl)
            # flips on either copy in any order, between walk steps that
            # dissolve colliding pairs, keep the splitting consistent
            for _ in range(6):
                lab = int(rng.integers(1, cs.M + 1))
                step = int(rng.choice((-1, 1)))
                cs.positions[lab - 1] += step
                cs_m.positions[lab - 1] -= step
                spl = coupling.dissolve_collisions(spl, cs, exchange_copy)
                spl_m = coupling.dissolve_collisions(spl_m, cs_m, exchange_copy)
                mark = RIGHT if rng.random() < 0.5 else LEFT
                mirrored_mark = LEFT if mark == RIGHT else RIGHT
                if rng.random() < 0.5:
                    apply_C, kw = coupling.apply_C1, {}
                else:
                    apply_C, kw = coupling.apply_C2, {
                        "exchange_copy": exchange_copy}
                try:
                    spl = apply_C(spl, cs, mark, **kw)
                except CouplingError:        # the species is absent
                    with pytest.raises(CouplingError):
                        apply_C(spl_m, cs_m, mirrored_mark, **kw)
                    continue
                spl_m = apply_C(spl_m, cs_m, mirrored_mark, **kw)
                coupling.check_splitting(spl, cs)
                mirrored = mirror_cs(cs)
                assert np.array_equal(mirrored.positions, cs_m.positions)
                assert np.array_equal(mirrored.sigma, cs_m.sigma)
                assert np.array_equal(mirrored.sigma_prime, cs_m.sigma_prime)
                assert mirror_spl(spl) == spl_m
                flips += 1
        assert flips >= 1000


class TestBalance:
    def test_empty_mark_sequence_is_trivially_clean(self):
        cs = cs_of([0, 1], [B, A], [A, B])
        report = coupling.run_balance_history(cs, [])
        assert report.ok and not report.steps

    def test_identities_recorded_at_every_step(self, rng):
        while True:
            cs = random_ordered_instance(rng)
            h_a = int(np.sum(cs.sigma == A))
            if cs.M >= 3 and 0 < h_a < cs.M:
                break
        marks = [RIGHT, LEFT] if h_a >= 2 else [LEFT, RIGHT]
        assert coupling.marks_stay_in_X(h_a, cs.M, marks)
        report = coupling.run_balance_history(cs, marks)
        assert report.ok, report.failure
        assert len(report.steps) == 2 * len(marks)
        for step in report.steps:
            assert step.lhs == step.rhs >= 0

    def test_marks_stay_in_X(self):
        assert coupling.marks_stay_in_X(1, 2, [RIGHT, LEFT]) is False
        assert coupling.marks_stay_in_X(1, 3, [LEFT, RIGHT]) is True

    def test_randomized_balance_with_walk_transport(self, rng):
        ran = 0
        for _ in range(300):
            cs = random_ordered_instance(rng)
            h_a = int(np.sum(cs.sigma == A))
            m = int(rng.integers(1, 4))
            marks = list(np.where(rng.random(m) < 0.5, RIGHT, LEFT))
            if not coupling.marks_stay_in_X(h_a, cs.M, marks):
                continue
            ran += 1

            def mover(state, spl, slot):
                for _ in range(int(rng.integers(0, 4))):
                    lab = int(rng.integers(1, state.M + 1))
                    state.positions[lab - 1] += int(rng.choice((-1, 1)))
                    spl = coupling.dissolve_collisions(spl, state)
                return spl

            report = coupling.run_balance_history(cs, marks, mover=mover)
            assert report.ok, report.failure
        assert ran >= 100

    def test_exhaustive_small_instances(self):
        report = coupling.exhaustive_balance_check(max_particles=3, n_sites=3,
                                                   max_marks=2)
        assert report.ok, report.first_failure
        assert report.n_runs > 0


class TestSandwich:
    def test_short_run_has_no_violations(self):
        cfg = lattice.SimConfig(epsilon=0.1, kappa=1.0, horizon_T=0.5, seed=3)
        report = coupling.verify_sandwich(cfg, macro.tent_pair(), 0.25, 20)
        assert report.ok, report.violations[:5]
        assert report.n_seeds == 20
        assert report.exclusion_rate <= 0.5

    def test_report_serializes(self):
        cfg = lattice.SimConfig(epsilon=0.1, kappa=1.0, horizon_T=0.25, seed=9)
        report = coupling.verify_sandwich(cfg, macro.tent_pair(), 0.25, 3)
        payload = report.to_json()
        assert '"n_violations": 0' in payload
