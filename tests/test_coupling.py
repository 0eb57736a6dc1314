"""Two-copy splitting calculus: C-maps, dissolutions, balance identities."""
import itertools
import json

import numpy as np
import pytest

from twospecies import coupling, lattice, macro
from twospecies.coupling import CoupledState, CouplingError, SplittingFault
from twospecies.lattice import A, B, LEFT, RIGHT


def cs_of(positions, sigma, sigma_prime):
    return CoupledState(np.array(positions), np.array(sigma),
                        np.array(sigma_prime))


def reference_couple_block(cs, real, block, t_lo, t_hi, protocol,
                           exchange_copy):
    """couple_block as a replay of every walk jump in (time, label, step)
    order, dissolving a pair at the jump that puts its members on one site:
    the oracle for the interval-wise couple_block."""
    coupling.build_splitting(cs, exchange_copy=exchange_copy)
    rings = list(zip(block.times, block.marks.tolist()))
    if protocol == "early":
        for _, mark in rings:
            coupling.apply_C1(cs, mark)
    events = []
    for i in range(real.M):
        jt = real.jump_times[i]
        lo = int(np.searchsorted(jt, t_lo, side="right"))
        hi = int(np.searchsorted(jt, t_hi, side="right"))
        events += [(float(jt[k]), i + 1, int(real.steps[i][k]))
                   for k in range(lo, hi)]
    events.sort()
    pair_of = {}

    def rebuild():
        pair_of.clear()
        for pr in cs.pairs:
            pair_of[pr[0]] = pr
            pair_of[pr[1]] = pr

    rebuild()
    ei = ri = 0
    while ei < len(events) or ri < len(rings):
        if ri < len(rings) and (ei >= len(events)
                                or rings[ri][0] < events[ei][0]):
            mark = rings[ri][1]
            ri += 1
            if protocol == "early":
                coupling.apply_C2(cs, mark, exchange_copy=exchange_copy)
            else:
                coupling.apply_C1(cs, mark)
            rebuild()
        else:
            _, lab, step = events[ei]
            ei += 1
            cs.positions[lab - 1] += step
            pr = pair_of.get(lab)
            if pr is not None and (cs.positions[pr[0] - 1]
                                   == cs.positions[pr[1] - 1]):
                coupling._dissolve_pair(cs, pr, exchange_copy)
                del pair_of[pr[0]], pair_of[pr[1]]
    if protocol == "late":
        for _, mark in rings:
            coupling.apply_C2(cs, mark, exchange_copy=exchange_copy)
    if not np.array_equal(cs.positions, real.positions_at(t_hi)):
        raise SplittingFault("positions drifted from the stored realization")


def singles(cs):
    """S: each label colored alike in both copies, with its color."""
    return {lab: c for lab, (c, c_p) in enumerate(
        zip(cs.sigma.tolist(), cs.sigma_prime.tolist()), 1) if c == c_p}


# the copy that takes a block's flips in one batch absorbs its same-site
# swaps: couple_block derives it from the protocol
BATCH_COPY = {"early": 1, "late": 2}


def block_outcome(run, cs, *args):
    """Everything a couple_block call leaves, or the error it raises; cs is
    not touched."""
    cs = cs.copy()
    try:
        run(cs, *args)
    except (CouplingError, SplittingFault) as exc:
        return type(exc), str(exc)
    return (cs.pairs, list(singles(cs).items()), cs.disc_I, cs.disc_J,
            cs.positions.tolist(), cs.sigma.tolist(), cs.sigma_prime.tolist())


def frozen_walks(x0, jumps, t_end):
    """A PositionRealization from per-label lists of (time, step)."""
    return lattice.PositionRealization(
        np.array(x0), [np.array([t for t, _ in js], dtype=float) for js in jumps],
        [np.array([st for _, st in js], dtype=np.int64) for js in jumps], t_end)


def random_ordered_instance(rng, max_particles=5, n_sites=6):
    """Random positions with two matched colorings, the second dominated by
    the first (rejection sampled)."""
    while True:
        M = int(rng.integers(2, max_particles + 1))
        positions = np.sort(rng.integers(0, n_sites, size=M))
        sigma = np.where(rng.random(M) < 0.5, A, B)
        sigma_p = rng.permutation(sigma)
        if coupling.order_witness(positions, sigma_p, sigma)[0] == 0:
            return cs_of(positions, sigma, sigma_p)


def dissolve_collisions(cs, exchange_copy):
    """Dissolve every pair whose members share a site, as a walk step that
    brings them together does."""
    for pr in list(cs.pairs):
        if cs.x(pr[0]) == cs.x(pr[1]):
            coupling._dissolve_pair(cs, pr, exchange_copy)


def mark_sequences(max_marks):
    """Every mark sequence of at most max_marks marks, in the enumeration
    order of the exhaustive check."""
    return [tuple(RIGHT if (bits >> p) & 1 else LEFT for p in range(m))
            for m in range(max_marks + 1) for bits in range(1 << m)]


def ordered_instances(max_particles, n_sites):
    """Every sorted position vector with every ordered pair of matched
    colorings, in the enumeration order of the exhaustive check, with the
    tie pattern of the positions."""
    for M in range(1, max_particles + 1):
        colorings = list(itertools.product((A, B), repeat=M))
        for xs in itertools.combinations_with_replacement(range(n_sites), M):
            ties = tuple(a == b for a, b in zip(xs, xs[1:]))
            for sigma in colorings:
                for sigma_p in colorings:
                    if (sigma_p.count(A) == sigma.count(A)
                            and witness(xs, sigma_p, sigma)[0] == 0):
                        yield xs, ties, sigma, sigma_p


def reference_exhaustive_check(max_particles, n_sites, max_marks):
    """exhaustive_balance_check as one history per instance and surviving
    mark sequence: the oracle for its tie-class memo."""
    n_instances = n_runs = n_skipped = 0
    for xs, _, sigma, sigma_p in ordered_instances(max_particles, n_sites):
        n_instances += 1
        cs0 = cs_of(xs, sigma, sigma_p)
        coupling.build_splitting(cs0)
        for marks in mark_sequences(max_marks):
            if not lattice.marks_stay_in_X(sigma.count(A), len(xs), marks):
                n_skipped += 1
                continue
            failure = coupling._balance_history(cs0.copy(), marks)
            n_runs += 1
            if failure is not None:
                msg = (f"x={xs} sigma={coupling._names(sigma, lattice.COLORS)} "
                       f"sigma'={coupling._names(sigma_p, lattice.COLORS)} "
                       f"marks={coupling._names(marks, lattice.MARKS)}: "
                       f"{failure}")
                return coupling.ExhaustiveReport(False, n_instances, n_runs,
                                                 n_skipped, msg)
    return coupling.ExhaustiveReport(True, n_instances, n_runs, n_skipped)


def witness(positions, lo, hi):
    """order_witness of lists of positions and colors."""
    return coupling.order_witness(np.array(positions), np.array(lo, np.int8),
                                  np.array(hi, np.int8))


class TestOrder:
    def test_order_witness_and_dominates(self):
        # one a-particle at site 0 in lo, at site 1 in hi: lo is dominated
        assert witness([0, 1], [A, B], [B, A]) == (0, None)
        assert witness([0, 1], [B, A], [A, B]) == (1, 1)
        assert witness([0, 2], [B, A], [A, B]) == (1, 2)

    def test_order_witness_counts_only_a_particles(self):
        # b-particles, however placed, move no tail
        assert witness([0, 0, 3], [A, B, A], [A, B, A]) == (0, None)
        assert witness([0, 5, 3], [A, B, A], [A, A, B]) == (0, None)
        assert witness([0, 5, 3], [A, A, B], [A, B, A]) == (1, 5)

    def test_order_witness_matches_brute_force(self, rng):
        """Excess and witness against the tail counts of both colorings
        taken directly at every occupied site; the witness is the leftmost
        site holding an a-particle of either coloring that attains it."""
        witnessed = no_a = 0
        for _ in range(3000):
            M = int(rng.integers(1, 9))
            positions = rng.integers(-3, 4, size=M)
            lo, hi = (np.where(rng.random(M) < p, A, B).astype(np.int8)
                      for p in rng.random(2))
            tails = {x: np.count_nonzero((positions >= x) & (lo == A))
                     - np.count_nonzero((positions >= x) & (hi == A))
                     for x in positions.tolist()}
            best = max(0, *tails.values())
            a_sites = positions[(lo == A) | (hi == A)].tolist()
            site = min((x for x in a_sites if tails[x] == best),
                       default=None) if best else None
            assert coupling.order_witness(positions, lo, hi) == (best, site)
            witnessed += site is not None
            no_a += A not in lo or A not in hi
        assert 500 <= witnessed <= 2500
        assert no_a >= 100


class TestBuildSplitting:
    def test_single_pair(self):
        cs = cs_of([0, 1], [B, A], [A, B])
        coupling.build_splitting(cs)
        assert cs.pairs == {(2, 1)}
        assert not singles(cs) and not cs.disc_I and not cs.disc_J

    def test_same_site_discrepancies_cancel_by_exchange(self):
        cs = cs_of([0, 0], [A, B], [B, A])
        coupling.build_splitting(cs, exchange_copy=2)
        assert not cs.pairs
        assert singles(cs) == {1: A, 2: B}
        assert np.array_equal(cs.sigma_prime, cs.sigma)

    def test_exchange_copy_one_touches_the_first_copy(self):
        cs = cs_of([0, 0], [A, B], [B, A])
        coupling.build_splitting(cs, exchange_copy=1)
        assert singles(cs) == {1: B, 2: A}
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
            coupling.build_splitting(cs)
            coupling.check_splitting(cs)
            assert not cs.disc_I and not cs.disc_J


class TestCheckSplitting:
    def test_label_married_twice(self):
        cs = cs_of([2, 1, 0], [A, B, B], [B, A, A])
        cs.pairs = {(1, 2), (1, 3)}
        with pytest.raises(SplittingFault, match="married twice"):
            coupling.check_splitting(cs)

    def test_pair_with_wrong_specs(self):
        cs = cs_of([1, 0], [A, B], [A, B])
        cs.pairs = {(1, 2)}
        with pytest.raises(SplittingFault, match="specs"):
            coupling.check_splitting(cs)

    def test_unordered_pair(self):
        cs = cs_of([0, 1], [A, B], [B, A])
        cs.pairs = {(1, 2)}
        with pytest.raises(SplittingFault, match="violates"):
            coupling.check_splitting(cs)

    def test_views_partition_the_labels(self, rng):
        # S, I, J and the married labels cover 1..M once each, S holds the
        # labels colored alike, I the (b,a) and J the (a,b) ones
        flips = 0
        for _ in range(200):
            cs = random_ordered_instance(rng, max_particles=6)
            coupling.build_splitting(cs)
            for _ in range(6):
                apply_C = (coupling.apply_C1 if rng.random() < 0.5
                           else coupling.apply_C2)
                try:
                    apply_C(cs, RIGHT if rng.random() < 0.5 else LEFT)
                except CouplingError:        # the species is absent
                    continue
                flips += 1
                coupling.check_splitting(cs)
                married = [lab for pr in cs.pairs for lab in pr]
                parts = [*married, *singles(cs), *cs.disc_I, *cs.disc_J]
                assert sorted(parts) == list(range(1, cs.M + 1))
                assert all(cs.spec(lab) == (c, c)
                           for lab, c in singles(cs).items())
                assert all(cs.spec(lab) == (B, A) for lab in cs.disc_I)
                assert all(cs.spec(lab) == (A, B) for lab in cs.disc_J)
        assert flips >= 500


class TestDissolve:
    def test_colliding_pair_becomes_singletons(self):
        cs = cs_of([1, 1], [A, B], [B, A])
        cs.pairs = {(1, 2)}
        coupling._dissolve_pair(cs, (1, 2), exchange_copy=2)
        assert not cs.pairs
        assert singles(cs) == {1: A, 2: B}
        assert np.array_equal(cs.sigma_prime, cs.sigma)
        coupling.check_splitting(cs)


class TestCMaps:
    def test_c1_right_breaks_a_pair_into_a_discrepancy(self):
        cs = cs_of([1, 0], [A, B], [B, A])
        coupling.build_splitting(cs)
        assert cs.pairs == {(1, 2)}
        coupling.apply_C1(cs, RIGHT)
        assert list(cs.sigma) == [B, B]
        assert singles(cs) == {1: B}
        assert cs.disc_I == {2}

    def test_c2_right_recovers_the_discrepancy(self):
        cs = cs_of([1, 0], [A, B], [B, A])
        coupling.build_splitting(cs)
        coupling.apply_C1(cs, RIGHT)
        coupling.apply_C2(cs, RIGHT)
        assert list(cs.sigma_prime) == [B, B]
        assert not cs.disc_I and not cs.disc_J
        assert singles(cs) == {1: B, 2: B}

    def test_c1_left_mirror(self):
        cs = cs_of([1, 0], [A, B], [B, A])
        coupling.build_splitting(cs)
        coupling.apply_C1(cs, LEFT)
        assert list(cs.sigma) == [A, A]
        assert singles(cs) == {2: A}
        assert cs.disc_J == {1}
        coupling.apply_C2(cs, LEFT)
        assert list(cs.sigma_prime) == [A, A]
        assert not cs.disc_I and not cs.disc_J

    def test_c1_on_singleton_creates_discrepancy(self):
        cs = cs_of([0, 1], [A, B], [A, B])
        coupling.build_splitting(cs)
        coupling.apply_C1(cs, RIGHT)
        assert cs.disc_I == {1}
        coupling.check_splitting(cs)

    def test_c2_same_site_recovery_falls_back_to_exchange(self):
        # the recovery partner for the copy-2 flip sits on the same site as
        # the flipped singleton, so the marriage is realized as two
        # singletons through a color exchange
        cs = cs_of([0, 0], [B, A], [A, A])
        assert singles(cs) == {2: A} and cs.disc_I == {1}
        coupling.apply_C2(cs, RIGHT, exchange_copy=1)
        assert not cs.disc_I and not cs.disc_J
        assert singles(cs) == {1: A, 2: B}
        assert list(cs.sigma) == [A, B]
        assert np.array_equal(cs.sigma, cs.sigma_prime)
        coupling.check_splitting(cs)

    def test_unknown_mark_rejected(self):
        cs = cs_of([0], [A], [A])
        coupling.build_splitting(cs)
        for mark in ("up", "right", 2):
            with pytest.raises(CouplingError):
                coupling.apply_C1(cs, mark)
            with pytest.raises(CouplingError):
                coupling.apply_C2(cs, mark)

    @pytest.mark.parametrize("sigma, sigma_prime", [
        (["a", "b"], [A, B]), ([A, B], ["b", "a"]), ([A, 2], [A, B]),
        ([A, B], [256, A])])
    def test_colors_other_than_the_two_codes_rejected(self, sigma,
                                                      sigma_prime):
        with pytest.raises(CouplingError):
            cs_of([0, 1], sigma, sigma_prime)

    @pytest.mark.parametrize("exchange_copy", [1, 2])
    def test_c_maps_commute_with_the_mirror(self, rng, exchange_copy):
        # x -> -x, a <-> b in both copies, each pair reversed (so I <-> J);
        # the mirrored pairs are mapped label by label, since
        # build_splitting marries from the right and is not mirror-symmetric
        def mirror(cs):
            out = CoupledState(-cs.positions, np.where(cs.sigma == A, B, A),
                               np.where(cs.sigma_prime == A, B, A))
            out.pairs = {(j, i) for i, j in cs.pairs}
            return out

        flips = 0
        for _ in range(300):
            cs = random_ordered_instance(rng, max_particles=6)
            coupling.build_splitting(cs, exchange_copy=exchange_copy)
            cs_m = mirror(cs)
            # flips on either copy in any order, between walk steps that
            # dissolve colliding pairs, keep the splitting consistent
            for _ in range(6):
                lab = int(rng.integers(1, cs.M + 1))
                step = int(rng.choice((-1, 1)))
                cs.positions[lab - 1] += step
                cs_m.positions[lab - 1] -= step
                dissolve_collisions(cs, exchange_copy)
                dissolve_collisions(cs_m, exchange_copy)
                mark = RIGHT if rng.random() < 0.5 else LEFT
                mirrored_mark = LEFT if mark == RIGHT else RIGHT
                if rng.random() < 0.5:
                    apply_C, kw = coupling.apply_C1, {}
                else:
                    apply_C, kw = coupling.apply_C2, {
                        "exchange_copy": exchange_copy}
                try:
                    apply_C(cs, mark, **kw)
                except CouplingError:        # the species is absent
                    with pytest.raises(CouplingError):
                        apply_C(cs_m, mirrored_mark, **kw)
                    continue
                apply_C(cs_m, mirrored_mark, **kw)
                coupling.check_splitting(cs)
                mirrored = mirror(cs)
                assert np.array_equal(mirrored.positions, cs_m.positions)
                assert np.array_equal(mirrored.sigma, cs_m.sigma)
                assert np.array_equal(mirrored.sigma_prime, cs_m.sigma_prime)
                assert mirrored.pairs == cs_m.pairs
                assert (cs.disc_I, cs.disc_J) == (cs_m.disc_J, cs_m.disc_I)
                flips += 1
        assert flips >= 1000


class TestBalance:
    def test_empty_mark_sequence_is_trivially_clean(self):
        cs = cs_of([0, 1], [B, A], [A, B])
        coupling.build_splitting(cs)
        assert coupling._balance_history(cs, ()) is None

    def test_identities_recorded_at_every_step(self, rng):
        while True:
            cs = random_ordered_instance(rng)
            h_a = int(np.sum(cs.sigma == A))
            if cs.M >= 3 and 0 < h_a < cs.M:
                break
        marks = [RIGHT, LEFT] if h_a >= 2 else [LEFT, RIGHT]
        assert lattice.marks_stay_in_X(h_a, cs.M, marks)
        coupling.build_splitting(cs)
        assert coupling._balance_history(cs, marks) is None

    def test_marks_stay_in_X(self):
        assert lattice.marks_stay_in_X(1, 2, [RIGHT, LEFT]) is False
        assert lattice.marks_stay_in_X(1, 3, [LEFT, RIGHT]) is True

    def test_survival_tallies_differ_on_the_initial_state(self):
        # the exhaustive counts run sequences from h_a0 = 0 (and M), which
        # the ring-log tally of the stochastic setting excludes
        empty = lattice.EventLog([], [])
        assert lattice.in_X(0, 2, empty, 1.0) is False
        assert lattice.marks_stay_in_X(0, 2, ()) is True
        assert lattice.marks_stay_in_X(0, 2, (LEFT,)) is True

    def test_randomized_balance_with_walk_transport(self, rng):
        # m copy-1 flips, then m copy-2 flips, with random walk steps that
        # dissolve colliding pairs before each flip of copy 1 and before the
        # first of copy 2: the balance identity holds after every flip, and
        # no discrepancy is left at the end
        def walk(cs):
            for _ in range(int(rng.integers(0, 4))):
                lab = int(rng.integers(1, cs.M + 1))
                cs.positions[lab - 1] += int(rng.choice((-1, 1)))
                dissolve_collisions(cs, 2)

        ran = 0
        for _ in range(300):
            cs = random_ordered_instance(rng)
            h_a = int(np.sum(cs.sigma == A))
            m = int(rng.integers(1, 4))
            marks = list(np.where(rng.random(m) < 0.5, RIGHT, LEFT))
            if not lattice.marks_stay_in_X(h_a, cs.M, marks):
                continue
            ran += 1
            coupling.build_splitting(cs)
            for q, mark in enumerate(marks, 1):
                walk(cs)
                coupling.apply_C1(cs, mark)
                coupling.check_splitting(cs)
                n_r = marks[:q].count(RIGHT)
                assert n_r - len(cs.disc_I) == q - n_r - len(cs.disc_J) >= 0
            walk(cs)
            for q, mark in enumerate(marks, 1):
                coupling.apply_C2(cs, mark)
                coupling.check_splitting(cs)
                n_r = marks[q:].count(RIGHT)
                assert n_r - len(cs.disc_I) == m - q - n_r - len(cs.disc_J) >= 0
            assert not cs.disc_I and not cs.disc_J
            assert coupling.order_witness(cs.positions, cs.sigma_prime,
                                          cs.sigma)[0] == 0
        assert ran >= 100

    def test_exhaustive_small_instances(self):
        report = coupling.exhaustive_balance_check(max_particles=3, n_sites=3,
                                                   max_marks=2)
        assert report.ok, report.first_failure
        assert report.n_runs > 0

    def test_a_broken_map_is_reported(self, monkeypatch):
        monkeypatch.setattr(coupling, "apply_C2", lambda cs, mark: None)
        report = coupling.exhaustive_balance_check(4, 4, 3)
        assert not report.ok
        assert (report.n_instances, report.n_runs,
                report.n_skipped_depleting) == (9, 10, 113)
        assert "C2 step 1" in report.first_failure, report.first_failure

    def test_history_reads_positions_only_through_their_ties(self):
        # the exhaustive check runs each (ties, sigma, sigma') class once:
        # every history must end alike on each instance of its class
        first = {}
        finals = {}
        n_instances = 0
        for xs, ties, sigma, sigma_p in ordered_instances(3, 4):
            n_instances += 1
            ref = first.setdefault((ties, sigma, sigma_p), xs)
            for marks in mark_sequences(3):
                if not lattice.marks_stay_in_X(sigma.count(A), len(xs), marks):
                    continue
                ends = []
                for positions in (xs, ref):
                    cs = cs_of(positions, sigma, sigma_p)
                    coupling.build_splitting(cs)
                    failure = coupling._balance_history(cs, marks)
                    ends.append((failure, cs.sigma.tolist(),
                                 cs.sigma_prime.tolist(), sorted(cs.pairs)))
                assert ends[0] == ends[1], (xs, ref, sigma, sigma_p, marks)
                finals.setdefault((sigma, sigma_p, marks), set()).add(
                    repr(ends[0]))
        assert len(first) < n_instances
        # final states differ between the tie classes of one coloring pair,
        # so equal ends within a class are not a given
        assert sum(len(ends) > 1 for ends in finals.values()) >= 40

    @pytest.mark.parametrize("setup", ["maps", "no_C2", "injected"])
    def test_exhaustive_matches_the_per_instance_loop(self, monkeypatch,
                                                      setup):
        if setup == "no_C2":
            monkeypatch.setattr(coupling, "apply_C2", lambda cs, mark: None)
        elif setup == "injected":
            # a failure that is a function of the class: 3-mark sequences
            # on positions not all at one site, whose normalized sigma' is
            # not sorted
            history = coupling._balance_history

            def injected(cs, marks):
                sigma_p = cs.sigma_prime.tolist()
                if (len(marks) == 3 and len(set(cs.positions.tolist())) > 1
                        and sigma_p != sorted(sigma_p)):
                    return "injected"
                return history(cs, marks)

            monkeypatch.setattr(coupling, "_balance_history", injected)
        report = coupling.exhaustive_balance_check(4, 4, 3)
        assert report == reference_exhaustive_check(4, 4, 3)
        assert report.ok == (setup == "maps"), report.first_failure


class TestCoupleBlock:
    @pytest.mark.parametrize("protocol", ["early", "late"])
    def test_matches_the_jump_by_jump_reference(self, rng, protocol):
        # a block inside a longer realization, rings partly at jump times
        # (a jump at a ring's time comes before the ring's flip)
        paired = 0
        for _ in range(150):
            M = int(rng.integers(2, 7))
            real = lattice.PositionRealization.sample(
                rng.integers(0, 4, size=M), 12.0, rng)
            t_lo, t_hi = 2.0, float(rng.uniform(4.0, 12.0))
            x = real.positions_at(t_lo)
            while True:
                sigma = np.where(rng.random(M) < 0.5, A, B)
                sigma_p = rng.permutation(sigma)
                if coupling.order_witness(x, sigma_p, sigma)[0] == 0:
                    break
            h_a = int(np.sum(sigma == A))
            while True:
                n = int(rng.integers(0, 4))
                marks = np.where(rng.random(n) < 0.5, RIGHT, LEFT)
                if lattice.marks_stay_in_X(h_a, M, marks):
                    break
            jt = np.concatenate(real.jump_times)
            jt = jt[(jt > t_lo) & (jt <= t_hi)]
            times = np.where(rng.random(n) < 0.3, rng.choice(jt, n),
                             rng.uniform(t_lo, t_hi, n))
            if len(np.unique(times)) < n:
                continue
            order = np.argsort(times)
            block = lattice.EventLog(times[order], marks)
            cs = CoupledState(x, sigma, sigma_p)
            args = (real, block, t_lo, t_hi, protocol)
            got = block_outcome(coupling.couple_block, cs, *args)
            assert got == block_outcome(reference_couple_block, cs, *args,
                                        BATCH_COPY[protocol])
            coupling.build_splitting(cs)
            paired += bool(cs.pairs)
        assert paired >= 50

    def test_matches_the_reference_along_the_sandwich(self, monkeypatch):
        blocks = []
        fast = coupling.couple_block

        def both(cs, real, block, t_lo, t_hi, protocol):
            args = (real, block, t_lo, t_hi, protocol)
            assert (block_outcome(fast, cs, *args)
                    == block_outcome(reference_couple_block, cs, *args,
                                     BATCH_COPY[protocol]))
            blocks.append(protocol)
            return fast(cs, *args)

        monkeypatch.setattr(coupling, "couple_block", both)
        cfg = lattice.SimConfig(epsilon=0.1, kappa=1.0, horizon_T=1.0, seed=5)
        report = coupling.verify_sandwich(cfg, macro.tent_pair(), 0.25, 15)
        assert report.ok
        assert blocks.count("early") == blocks.count("late") >= 40

    def test_reads_walks_only_through_the_two_queries(self, monkeypatch):
        class QueriesOnly:
            """Walks that answer only positions_at_many and first_meeting,
            from a stored realization; any other read raises."""
            __slots__ = ("_real",)

            def __init__(self, real):
                self._real = real

            def positions_at_many(self, times):
                return self._real.positions_at_many(times)

            def first_meeting(self, i, j, s_lo, s_hi):
                hit = self._real.first_meeting(i, j, s_lo, s_hi)
                meetings.append(hit is not None)
                return hit

        fast = coupling.couple_block
        meetings = []

        def both(cs, real, block, t_lo, t_hi, protocol):
            args = (block, t_lo, t_hi, protocol)
            assert (block_outcome(fast, cs, QueriesOnly(real), *args)
                    == block_outcome(fast, cs, real, *args))
            return fast(cs, real, *args)

        monkeypatch.setattr(coupling, "couple_block", both)
        cfg = lattice.SimConfig(epsilon=0.1, kappa=1.0, horizon_T=1.0, seed=5)
        report = coupling.verify_sandwich(cfg, macro.tent_pair(), 0.25, 5)
        assert report.ok
        assert sum(meetings) >= 5

    def test_pair_dissolves_once_at_its_first_meeting(self, monkeypatch):
        # label 2 meets label 1 at t=1, crosses it, meets it again at t=3
        # and ends right of it, all between two rings
        real = frozen_walks([1, 0], [[], [(1.0, 1), (2.0, 1), (3.0, -1),
                                          (3.5, 1)]], 4.0)
        assert real.first_meeting(1, 2, 0.0, 4.0) == (1.0, 2)
        dissolved = []
        dissolve = coupling._dissolve_pair

        def counting(cs, pr, exchange_copy):
            dissolved.append(pr)
            dissolve(cs, pr, exchange_copy)

        monkeypatch.setattr(coupling, "_dissolve_pair", counting)
        cs = cs_of([1, 0], [A, B], [B, A])
        coupling.couple_block(cs, real, lattice.EventLog([], []), 0.0, 4.0,
                              "early")
        assert dissolved == [(1, 2)]
        # under 'early' the swap goes to copy 1, the batch copy
        assert not cs.pairs and singles(cs) == {1: B, 2: A}
        assert list(cs.sigma) == [B, A]
        assert list(cs.positions) == [1, 2]

    @pytest.mark.parametrize("x0, sigma, sigma_p, jumps, pairs", [
        # label 1 steps away before label 2 steps onto its site
        ([1, 0], [A, B], [B, A], [[(1.0, 1)], [(1.0, 1)]], {(1, 2)}),
        # label 1 steps onto label 2's site before label 2 steps away
        ([0, 1], [B, A], [A, B], [[(1.0, 1)], [(1.0, 1)]], set()),
        # label 2's down-step comes before its up-step
        ([1, 0], [A, B], [B, A], [[], [(1.0, 1), (1.0, -1)]], {(1, 2)}),
    ])
    def test_simultaneous_jumps_in_time_label_step_order(
            self, x0, sigma, sigma_p, jumps, pairs):
        real = frozen_walks(x0, jumps, 2.0)
        args = (real, lattice.EventLog([], []), 0.0, 2.0, "early")
        cs = cs_of(x0, sigma, sigma_p)
        got = block_outcome(coupling.couple_block, cs, *args)
        assert got == block_outcome(reference_couple_block, cs, *args,
                                    BATCH_COPY["early"])
        assert got[0] == pairs

    @pytest.mark.parametrize("meets", [True, False])
    def test_pair_married_at_a_ring_meets_before_the_next(self, meets):
        # copy 1's flip at the start opens I = {1}; by the ring at t=1
        # label 2 is the rightmost a of copy 2, so its flip marries (2, 1);
        # label 2 then steps back onto label 1 before t=2, or does not
        back = [(1.5, -1)] if meets else []
        real = frozen_walks([2, 0, -5],
                            [[], [(0.2, 1), (0.4, 1), (0.6, 1)] + back, []],
                            2.0)
        block = lattice.EventLog([1.0], [RIGHT])
        cs = cs_of([2, 0, -5], [A, A, B], [A, A, B])
        coupling.couple_block(cs, real, block, 0.0, 2.0, "early")
        assert not cs.disc_I and not cs.disc_J
        if meets:
            assert not cs.pairs
            assert singles(cs) == {3: B, 2: B, 1: A}
            assert list(cs.sigma) == list(cs.sigma_prime) == [A, B, B]
            assert list(cs.positions) == [2, 2, -5]
        else:
            assert cs.pairs == {(2, 1)}
            assert list(cs.positions) == [2, 3, -5]
        coupling.check_splitting(cs)

    def test_pair_whose_members_do_not_jump(self):
        real = frozen_walks([1, 0, 5], [[], [], [(0.5, -1), (1.0, -1),
                                                 (2.5, 1)]], 3.0)
        block = lattice.EventLog([2.0], [RIGHT])
        cs = cs_of([1, 0, 5], [A, B, A], [B, A, A])
        coupling.couple_block(cs, real, block, 0.0, 3.0, "late")
        assert cs.pairs == {(1, 2)}
        assert list(cs.positions) == [1, 0, 4]
        coupling.check_splitting(cs)

    def test_entry_positions_off_the_realization(self):
        real = frozen_walks([1, 0, 5], [[], [], [(0.5, -1), (1.0, -1)]], 3.0)
        cs = cs_of([2, 1, 6], [A, B, A], [B, A, A])
        with pytest.raises(SplittingFault, match="drifted"):
            coupling.couple_block(cs, real, lattice.EventLog([], []), 0.0,
                                  3.0, "early")

    @pytest.mark.parametrize("ring", [0.0, 3.5])
    def test_rings_outside_the_block_rejected(self, ring):
        real = frozen_walks([1, 0], [[], []], 4.0)
        cs = cs_of([1, 0], [A, B], [B, A])
        with pytest.raises(CouplingError, match="ring times"):
            coupling.couple_block(cs, real, lattice.EventLog([ring], [LEFT]),
                                  0.0, 3.0, "late")


class TestSandwich:
    def test_short_run_has_no_violations(self):
        cfg = lattice.SimConfig(epsilon=0.1, kappa=1.0, horizon_T=0.5, seed=3)
        report = coupling.verify_sandwich(cfg, macro.tent_pair(), 0.25, 20)
        assert report.ok, report.violations[:5]
        assert report.n_seeds == 20
        assert report.exclusion_rate <= 0.5

    @pytest.mark.parametrize("horizon_T, delta", [(0.25, 5.0), (1.0, 0.3)])
    def test_horizon_must_be_a_multiple_of_delta(self, horizon_T, delta):
        cfg = lattice.SimConfig(epsilon=0.1, kappa=1.0, horizon_T=horizon_T,
                                seed=1)
        with pytest.raises(macro.ProfileError):
            coupling.verify_sandwich(cfg, macro.tent_pair(), delta, 1)

    def test_each_checked_seed_searches_its_walks_once(self, monkeypatch):
        # a seed hands `sample` every time it will ask about, so its table
        # answers the true run and both copies: one searchsorted per walk
        # while sampling, and none after
        Real = lattice.PositionRealization
        search, sample, rows_at = np.searchsorted, Real.sample, Real._rows_at
        walks, reals, sampling = set(), [], []
        searches = {"sample": 0, "later": 0}

        def counting(a, *args, **kwargs):
            if id(a) in walks:
                searches["sample" if sampling else "later"] += 1
            return search(a, *args, **kwargs)

        def registering(self, new):
            walks.update(map(id, self.jump_times))
            return rows_at(self, new)

        def sampled(*args, **kwargs):
            sampling.append(True)
            try:
                reals.append(sample(*args, **kwargs))
            finally:
                sampling.clear()
            return reals[-1]

        monkeypatch.setattr(np, "searchsorted", counting)
        monkeypatch.setattr(Real, "_rows_at", registering)
        monkeypatch.setattr(Real, "sample", sampled)
        cfg = lattice.SimConfig(epsilon=0.05, kappa=1.0, horizon_T=1.0, seed=5)
        report = coupling.verify_sandwich(cfg, macro.tent_pair(), 0.2, 5)
        assert report.ok
        assert len(reals) == 5 - report.n_excluded > 0
        assert searches == {"sample": sum(r.M for r in reals), "later": 0}

    def test_report_serializes(self):
        cfg = lattice.SimConfig(epsilon=0.1, kappa=1.0, horizon_T=0.25, seed=9)
        report = coupling.verify_sandwich(cfg, macro.tent_pair(), 0.25, 3)
        payload = json.dumps(report.to_dict())
        assert '"n_violations": 0' in payload
