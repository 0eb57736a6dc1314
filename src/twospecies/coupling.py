"""Order-and-coupling calculus for two coupled color copies.

Two color assignments sigma (copy 1) and sigma' (copy 2) ride on one set of
positions.  Labels are split into married pairs P, singletons S and
discrepancy sets I, J.  The state stores only P: S holds the labels colored
alike in both copies, I the unmarried (b,a) labels and J the unmarried (a,b)
labels, so they are read off the two colorings.  Flips on either copy update
P through the C-map case tables, walk collisions dissolve pairs, and the
balance identities tie the discrepancy counts to the mark tallies.  Labels
are 1-based throughout, matching the lattice module.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .lattice import (A, B, COLORS, LEFT, MARKS, RIGHT, EventLog,
                      PositionRealization, SimConfig, as_codes, in_X,
                      map_seeds, marks_stay_in_X, rank_select, replica_rngs,
                      run_true, sample_clock, sample_initial)
from .macro import ProfilePair, step_count


class CouplingError(ValueError):
    pass


class SplittingFault(RuntimeError):
    """Splitting/state inconsistency that the case tables rule out."""


def _names(codes, names: tuple[str, str]) -> tuple[str, ...]:
    """Color or mark codes spelled out, for messages."""
    return tuple(names[c] for c in codes)


# ---------------------------------------------------------------------------
# coupled state and splitting


@dataclass
class CoupledState:
    """Positions shared by two color copies, arrays indexed by label-1, and
    the married pairs P: each pair holds an (a,b) label, then a (b,a) one."""

    positions: np.ndarray
    sigma: np.ndarray
    sigma_prime: np.ndarray
    pairs: set[tuple[int, int]] = field(default_factory=set, init=False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64).copy()
        self.sigma = as_codes(self.sigma, "sigma", COLORS, CouplingError).copy()
        self.sigma_prime = as_codes(self.sigma_prime, "sigma'", COLORS,
                                    CouplingError).copy()
        if not (len(self.positions) == len(self.sigma) == len(self.sigma_prime)):
            raise CouplingError("positions and both color arrays must align")

    def copy(self) -> "CoupledState":
        """An independent copy; the arrays are not checked again."""
        out = object.__new__(CoupledState)
        out.__dict__ = {key: val.copy() for key, val in vars(self).items()}
        return out

    @property
    def M(self) -> int:
        return len(self.positions)

    def x(self, label: int) -> int:
        return int(self.positions[label - 1])

    def spec(self, label: int) -> tuple[int, int]:
        return int(self.sigma[label - 1]), int(self.sigma_prime[label - 1])

    @property
    def disc_I(self) -> set[int]:
        """I: the unmarried (b,a) labels."""
        return set(_unmarried(self, 1))

    @property
    def disc_J(self) -> set[int]:
        """J: the unmarried (a,b) labels."""
        return set(_unmarried(self, 0))


def _pair_holding(cs: CoupledState, lab: int, slot: int
                  ) -> tuple[int, int] | None:
    """The pair with `lab` at position `slot` (0: the (a,b) label)."""
    for pr in cs.pairs:
        if pr[slot] == lab:
            return pr
    return None


def _unmarried(cs: CoupledState, slot: int):
    """Unmarried labels colored `slot` in copy 1 only, largest first: J for
    0 (a), I for 1 (b); a pair holds such labels in slot `slot`."""
    sigma, sigma_p = cs.sigma.tolist(), cs.sigma_prime.tolist()
    for lab in range(cs.M, 0, -1):
        if (sigma[lab - 1] == slot != sigma_p[lab - 1]
                and _pair_holding(cs, lab, slot) is None):
            yield lab


def check_splitting(cs: CoupledState) -> None:
    """Assert that the pairs are disjoint, each (a,b) then (b,a) with
    x_i > x_j.  S, I and J partition the other labels by construction."""
    married = [lab for pr in cs.pairs for lab in pr]
    if len(set(married)) < len(married):
        raise SplittingFault(f"a label is married twice: {sorted(cs.pairs)}")
    for i, j in cs.pairs:
        if cs.spec(i) != (A, B) or cs.spec(j) != (B, A):
            raise SplittingFault(f"pair ({i},{j}) has specs "
                                 f"{_names(cs.spec(i), COLORS)}, "
                                 f"{_names(cs.spec(j), COLORS)}")
        if not cs.x(i) > cs.x(j):
            raise SplittingFault(f"pair ({i},{j}) violates x_{i} > x_{j}")


# ---------------------------------------------------------------------------
# tail-mass order of two colorings of one set of positions


def order_witness(positions: np.ndarray, lo: np.ndarray, hi: np.ndarray
                  ) -> tuple[int, int | None]:
    """Max over sites x of F(x; lo) - F(x; hi), where F(x; c) counts the
    a-particles of coloring c at sites >= x, with the leftmost site holding
    an a-particle of either coloring that attains it; (0, None) when lo is
    dominated by hi.

    One pass over the particles nets the a-count differences per such site
    (kept even when its net is 0, since it can be the witness), and a scan
    from the right sums them.  Pure Python: the exhaustive check calls this
    with M <= 4, where numpy's per-call cost outweighs the work; the
    sandwich also calls it with M = 40, in its block checks and in every
    `build_splitting`.
    """
    net: dict[int, int] = {}
    for x, c_lo, c_hi in zip(positions.tolist(), lo.tolist(), hi.tolist()):
        if c_lo == A or c_hi == A:
            net[x] = net.get(x, 0) + (c_lo == A) - (c_hi == A)
    best, best_site, excess = 0, None, 0
    for x in sorted(net, reverse=True):
        excess += net[x]
        if excess > 0 and excess >= best:
            best, best_site = excess, x
    return best, best_site


# ---------------------------------------------------------------------------
# splitting construction (same-site color exchanges allowed)


def build_splitting(cs: CoupledState, exchange_copy: int = 2) -> None:
    """Marry cs into a discrepancy-free splitting of an ordered coupled state.

    Requires matched a-counts and sigma' dominated by sigma.  May exchange
    colors between same-site particles (an occupation-preserving move) to
    turn opposite discrepancies into singletons; `exchange_copy` selects
    which copy's colors absorb the exchange and cs is normalized in place.
    """
    if exchange_copy not in (1, 2):
        raise CouplingError("exchange_copy must be 1 or 2")
    h_a = int(np.sum(cs.sigma == A))
    h_a_p = int(np.sum(cs.sigma_prime == A))
    if h_a != h_a_p:
        raise CouplingError(f"a-counts differ: {h_a} vs {h_a_p}")
    gap, site = order_witness(cs.positions, cs.sigma_prime, cs.sigma)
    if gap > 0:
        raise CouplingError(f"order hypothesis fails at site {site} (excess {gap})")

    cs.pairs = set()
    ab: dict[int, list[int]] = {}
    ba: dict[int, list[int]] = {}
    for lab in range(1, cs.M + 1):
        sp = cs.spec(lab)
        if sp == (A, B):
            ab.setdefault(cs.x(lab), []).append(lab)
        elif sp == (B, A):
            ba.setdefault(cs.x(lab), []).append(lab)

    # cancel opposite discrepancies sharing a site by a same-site color swap
    for x in list(ab):
        while ab.get(x) and ba.get(x):
            _dissolve_pair(cs, (ab[x].pop(), ba[x].pop()), exchange_copy)

    # marry the rest scanning sites from the right; the order hypothesis
    # guarantees an unmatched (a,b) label strictly to the right of each (b,a)
    stack: list[int] = []
    for x in sorted(set(ab) | set(ba), reverse=True):
        stack.extend(ab.get(x, []))
        for k in ba.get(x, []):
            if not stack:
                raise CouplingError(f"no (a,b) label available right of site {x}")
            cs.pairs.add((stack.pop(), k))
    if stack:
        raise CouplingError("unmatched (a,b) labels remain; a-counts inconsistent")
    check_splitting(cs)


# ---------------------------------------------------------------------------
# R-maps: collision-driven pair dissolution (plus the identity)


def _dissolve_pair(cs: CoupledState, pr: tuple[int, int], exchange_copy: int
                   ) -> None:
    """Turn one same-site pair, (a,b) label first, into two singletons by a
    color swap in the chosen copy; drops pr from the pairs if it is there."""
    i, j = pr
    cs.pairs.discard(pr)
    if exchange_copy == 2:
        cs.sigma_prime[i - 1], cs.sigma_prime[j - 1] = A, B
    else:
        cs.sigma[i - 1], cs.sigma[j - 1] = B, A


# ---------------------------------------------------------------------------
# C-maps.  Each applies the flip to its copy and updates the pairs.  A 'left'
# flip is the mirror image of a 'right' one (x -> -x, a <-> b, each pair
# reversed, I <-> J), so one body serves both marks and reads the mirror as
# values: a flip writes the color new = 1 - mark.


def _select(positions: np.ndarray, colors: np.ndarray, mark: int, copy: int
            ) -> int:
    """The label a flip recolors in one copy; the species must be present."""
    if mark not in (RIGHT, LEFT):
        raise CouplingError(f"mark must be {RIGHT} ('right') or {LEFT} "
                            f"('left'), got {mark!r}")
    lab = rank_select(positions, colors, mark)
    if lab is None:
        raise CouplingError(f"{MARKS[mark]} flip with no {COLORS[mark]}"
                            f"-particle in copy {copy}")
    return lab


def apply_C1(cs: CoupledState, mark: int) -> None:
    """Flip on copy 1 (may create a discrepancy); a married label leaves its
    pair."""
    lab = _select(cs.positions, cs.sigma, mark, 1)
    new = 1 - mark
    cs.sigma[lab - 1] = new
    # a copy-1 color a sits in a pair's first slot, b in its second
    pr = _pair_holding(cs, lab, 1 - new)
    if pr is not None:
        cs.pairs.discard(pr)


def apply_C2(cs: CoupledState, mark: int, exchange_copy: int = 1) -> None:
    """Flip on copy 2 (recovers discrepancies when I resp. J is nonempty).

    When a recovery marriage would put both partners on one site, the pair is
    realized as two singletons through a same-site color swap in the copy
    chosen by `exchange_copy`; the discrepancy counts change exactly as in
    the tabled case.
    """
    lab = _select(cs.positions, cs.sigma_prime, mark, 2)
    new = 1 - mark
    cs.sigma_prime[lab - 1] = new
    # a copy-2 color a sits in a pair's second slot, b in its first
    pr = _pair_holding(cs, lab, new)
    if pr is not None:                           # case (a): lab leaves its pair
        cs.pairs.discard(pr)
        partner = pr[1 - new]
    elif cs.sigma[lab - 1] == new:               # case (c): discrepancy resolves
        return
    else:                                        # case (b): singleton
        partner = lab
    # marry the partner to the largest recovered label, which takes lab's
    # slot; with none to recover, the partner is left a discrepancy
    k = next(_unmarried(cs, new), None)
    if k is None:
        return
    pr = (partner, k) if new == B else (k, partner)
    # in case (a) the rank selection keeps the pair ordered; in case (b) the
    # partners may share a site
    if cs.x(pr[0]) > cs.x(pr[1]):
        cs.pairs.add(pr)
    else:
        _dissolve_pair(cs, pr, exchange_copy)


# ---------------------------------------------------------------------------
# balance identities


def _balance_history(cs: CoupledState, marks) -> str | None:
    """Run m copy-1 flips then m copy-2 flips from the discrepancy-free
    splitting of cs and return the first failure, or None.

    After every flip the splitting must hold, and so must the balance
    identity n_r - |I| = n_l - |J| >= 0, where n_r and n_l count the right
    and left marks flipped on copy 1 but not yet on copy 2.  At the end I
    and J must be empty and the final states ordered.
    """
    m = len(marks)
    n_I = n_J = 0
    for q in range(1, 2 * m + 1):
        if q <= m:
            phase, step, pending = "C1", q, marks[:q]
            apply_C, mark = apply_C1, marks[q - 1]
        else:
            phase, step, pending = "C2", q - m, marks[q - m:]
            apply_C, mark = apply_C2, marks[q - m - 1]
        try:
            apply_C(cs, mark)
            check_splitting(cs)
        except (CouplingError, SplittingFault) as exc:
            return f"{phase} step {step}: {exc}"
        # each pair holds one (a,b) and one (b,a) label; the rest of the
        # (b,a) labels are I and the rest of the (a,b) labels are J
        diff = (cs.sigma - cs.sigma_prime).tolist()
        n_I = diff.count(1) - len(cs.pairs)
        n_J = diff.count(-1) - len(cs.pairs)
        n_r = pending.count(RIGHT)
        lhs, rhs = n_r - n_I, len(pending) - n_r - n_J
        if not lhs == rhs >= 0:
            return (f"identity fails after {phase} step {step}: |I|={n_I} "
                    f"|J|={n_J}, n_r-|I|={lhs}, n_l-|J|={rhs}")
    if n_I or n_J:
        return f"discrepancies remain at the end: |I|={n_I} |J|={n_J}"
    if order_witness(cs.positions, cs.sigma_prime, cs.sigma)[0]:
        return "final states not ordered"
    return None


# ---------------------------------------------------------------------------
# exhaustive small-instance enumeration


@dataclass
class ExhaustiveReport:
    ok: bool
    n_instances: int
    n_runs: int
    n_skipped_depleting: int
    first_failure: str | None = None


def _class_outcome(positions: np.ndarray, sigma: np.ndarray,
                   sigma_p: np.ndarray, sequences, stays
                   ) -> tuple[int, int, str | None] | None:
    """One tie class's runs, skips and first failure over `sequences` in
    order, stopping at the failure, or None when sigma' is not dominated
    by sigma.  `stays` flags the sequences that keep both species alive."""
    if order_witness(positions, sigma_p, sigma)[0]:
        return None
    cs0 = CoupledState(positions, sigma, sigma_p)
    build_splitting(cs0)
    n_runs = n_skipped = 0
    for marks, stay in zip(sequences, stays):
        if not stay:
            n_skipped += 1
            continue
        n_runs += 1
        failure = _balance_history(cs0.copy(), marks)
        if failure is not None:
            return n_runs, n_skipped, f"marks={_names(marks, MARKS)}: {failure}"
    return n_runs, n_skipped, None


def exhaustive_balance_check(max_particles: int, n_sites: int,
                             max_marks: int) -> ExhaustiveReport:
    """Check the balance identities on every ordered coupled pair with
    matched a-counts (positions sorted WLOG: labels at equal sites are
    exchangeable) and every mark sequence, positions frozen.

    Mark sequences that would flip an absent species are skipped, matching
    the survival conditioning of the stochastic setting.  Counts are per
    instance, and the first failure is the first in enumeration order.

    A history reads positions only by comparing two of them or grouping
    labels by site: the rank selection of a flip, the x_i > x_j test of a
    pair, and the site scans of `order_witness` and `build_splitting`.  So
    an instance's outcome depends on its tie pattern (which neighbouring
    labels share a site) and its two colorings alone.  Each such class is
    run once, at its first instance, and its later instances reuse the
    outcome; a failure names labels, not sites, so each instance reports
    it under its own positions.
    """
    from itertools import combinations_with_replacement, product

    sequences = [tuple(RIGHT if (bits >> p) & 1 else LEFT for p in range(m))
                 for m in range(max_marks + 1) for bits in range(1 << m)]
    outcomes: dict[tuple, tuple[int, int, str | None] | None] = {}
    n_instances = n_runs = n_skipped = 0
    for M in range(1, max_particles + 1):
        colorings = [(s, np.array(s)) for s in product((A, B), repeat=M)]
        stays = [[marks_stay_in_X(h_a, M, marks) for marks in sequences]
                 for h_a in range(M + 1)]
        for xs in combinations_with_replacement(range(n_sites), M):
            positions = np.array(xs, dtype=np.int64)
            ties = tuple(a == b for a, b in zip(xs, xs[1:]))
            for sigma, sigma_arr in colorings:
                h_a = sigma.count(A)
                for sigma_p, sigma_p_arr in colorings:
                    if sigma_p.count(A) != h_a:
                        continue
                    key = (ties, sigma, sigma_p)
                    if key not in outcomes:
                        outcomes[key] = _class_outcome(
                            positions, sigma_arr, sigma_p_arr, sequences,
                            stays[h_a])
                    outcome = outcomes[key]
                    if outcome is None:
                        continue
                    runs, skipped, failure = outcome
                    n_instances += 1
                    n_runs += runs
                    n_skipped += skipped
                    if failure is not None:
                        msg = (f"x={xs} sigma={_names(sigma, COLORS)} "
                               f"sigma'={_names(sigma_p, COLORS)} {failure}")
                        return ExhaustiveReport(False, n_instances, n_runs,
                                                n_skipped, msg)
    return ExhaustiveReport(True, n_instances, n_runs, n_skipped)


# ---------------------------------------------------------------------------
# pathwise sandwich verification


@dataclass
class SandwichReport:
    n_seeds: int
    n_excluded: int
    n_violations: int
    violations: list[str]
    counts_mismatch: int

    @property
    def exclusion_rate(self) -> float:
        return self.n_excluded / self.n_seeds if self.n_seeds else 0.0

    @property
    def ok(self) -> bool:
        return self.n_violations == 0 and self.counts_mismatch == 0

    def to_dict(self) -> dict:
        return {
            "n_seeds": self.n_seeds,
            "n_excluded": self.n_excluded,
            "exclusion_rate": self.exclusion_rate,
            "n_violations": self.n_violations,
            "counts_mismatch": self.counts_mismatch,
            "violations": self.violations[:50],
        }


def couple_block(cs: CoupledState, real: PositionRealization, block: EventLog,
                 t_lo: float, t_hi: float, protocol: str) -> None:
    """Run one block of the two-copy protocol on shared walks.

    'early' gives all of the block's flips to copy 1 at the block start
    (frozen positions) and lets copy 2 flip at the ring times during the
    motion; 'late' lets copy 1 flip at the ring times and gives copy 2 all
    flips at the block end.  A pair is dissolved at the first meeting of
    its members via a same-site color swap in the copy that flips in one
    batch, so the copy that flips at the ring times keeps its colors.

    Between two rings the pairs change only by dissolution, so the walks
    are asked for positions at the block's ring times and ends
    (`positions_at_many`) and, per alive pair and per interval between
    rings, for the members' first meeting (`first_meeting`), never read
    jump by jump: the cost is pairs x rings per block.

    cs must hold both copies at t_lo with copy 2 dominated by copy 1, and
    its positions must be the realization at t_lo; it is married by
    build_splitting and advanced to t_hi in place.
    """
    if protocol not in ("early", "late"):
        raise CouplingError(f"protocol must be 'early' or 'late', got {protocol!r}")
    exchange_copy = 1 if protocol == "early" else 2
    if len(block) and not t_lo < block.times[0] <= block.times[-1] <= t_hi:
        raise CouplingError(f"ring times must lie in ({t_lo}, {t_hi}]")
    times = np.concatenate([[t_lo], block.times, [t_hi]])
    rows = real.positions_at_many(times)
    if not np.array_equal(cs.positions, rows[0]):
        raise SplittingFault("positions drifted from the stored realization")
    build_splitting(cs, exchange_copy=exchange_copy)
    marks = block.marks.tolist()
    if protocol == "early":
        for mark in marks:
            apply_C1(cs, mark)

    for r in range(len(marks) + 1):
        met = []
        for pr in cs.pairs:
            hit = real.first_meeting(*pr, times[r], times[r + 1])
            if hit is not None:
                met.append((hit, pr))
        for _, pr in sorted(met):
            _dissolve_pair(cs, pr, exchange_copy)
        cs.positions[:] = rows[r + 1]
        for i, j in cs.pairs:
            if not cs.positions[i - 1] > cs.positions[j - 1]:
                raise SplittingFault(f"pair ({i},{j}) crossed without meeting")
        if r == len(marks):
            break
        if protocol == "early":
            apply_C2(cs, marks[r], exchange_copy=exchange_copy)
        else:
            apply_C1(cs, marks[r])

    if protocol == "late":
        for mark in marks:
            apply_C2(cs, mark, exchange_copy=exchange_copy)


def _sandwich_seed(cfg: SimConfig, profile: ProfilePair, K: int,
                   block_len: float, rep: int) -> tuple[bool, list[str], int]:
    """One seed of `verify_sandwich`: (excluded, violations, count
    mismatches); a seed leaving the survival set is excluded unchecked."""
    rng_init, rng_clock, rng_walk = replica_rngs(cfg.seed, rep)
    ps0 = sample_initial(profile, cfg, rng_init)
    log = sample_clock(cfg, rng_clock)
    t_end = K * block_len
    h_a0 = int(np.sum(ps0.colors == A))
    if not in_X(h_a0, ps0.M, log, t_end):
        return True, [], 0
    # every time the seed asks the walks for: the ring times (the true run
    # and the blocks) and the block ends
    n = int(np.searchsorted(log.times, t_end, side="right"))
    real = PositionRealization.sample(
        ps0.positions, t_end, rng_walk,
        times=np.concatenate([log.times[:n], block_len * np.arange(K + 1)]))
    traj = run_true(ps0, log, t_end, realization=real)
    counts_mismatch = 0
    violations: list[str] = []
    plus_colors = ps0.colors.copy()
    minus_colors = ps0.colors.copy()
    true_k = traj.state_at(0.0)
    for k in range(K + 1):
        t_k = k * block_len
        n_a = np.count_nonzero(true_k.colors == A)
        if (np.count_nonzero(plus_colors == A) != n_a
                or np.count_nonzero(minus_colors == A) != n_a):
            counts_mismatch += 1
        for lo, hi, tag in ((minus_colors, true_k.colors, "postponed<=true"),
                            (true_k.colors, plus_colors,
                             "true<=anticipated")):
            gap, site = order_witness(true_k.positions, lo, hi)
            if gap > 0:
                violations.append(
                    f"seed {rep}, block {k}, {tag} fails at site {site}")
        if k == K:
            break
        t_next = (k + 1) * block_len
        block = log.restrict(t_k, t_next)
        try:
            cs_p = CoupledState(true_k.positions, plus_colors, true_k.colors)
            couple_block(cs_p, real, block, t_k, t_next, "early")
            cs_m = CoupledState(true_k.positions, true_k.colors, minus_colors)
            couple_block(cs_m, real, block, t_k, t_next, "late")
        except (CouplingError, SplittingFault) as exc:
            violations.append(f"seed {rep}, block {k}: {exc}")
            break
        true_next = traj.state_at(t_next)
        if (cs_p.disc_I or cs_p.disc_J or cs_m.disc_I or cs_m.disc_J
                or not np.array_equal(cs_p.sigma_prime, true_next.colors)
                or not np.array_equal(cs_m.sigma, true_next.colors)):
            violations.append(
                f"seed {rep}, block {k}: protocol left discrepancies "
                "or lost track of the true run")
            break
        plus_colors = cs_p.sigma.copy()
        minus_colors = cs_m.sigma_prime.copy()
        true_k = true_next
    return False, violations, counts_mismatch


def verify_sandwich(cfg: SimConfig, profile: ProfilePair, delta: float,
                    seeds: int, threads: int = 1) -> SandwichReport:
    """For each seed, run the true evolution plus coupled realizations of the
    anticipated and postponed block evolutions on shared positions and log,
    and check the tail-mass sandwich at every block time and site.

    The comparison copies are built blockwise through the two-copy protocol,
    with every same-site exchange directed at the comparison copy, so the
    true run stays untouched and the sandwich is deterministic per seed.
    Runs leaving the survival set are excluded and counted.  The seeds fan
    out over up to `threads` worker processes (`lattice.map_seeds`); the
    report is the same for every `threads`.
    """
    K = step_count(cfg.horizon_T, delta)
    seed_run = functools.partial(_sandwich_seed, cfg, profile, K,
                                 delta / cfg.epsilon**2)
    outcomes = map_seeds(seed_run, seeds, threads)
    violations = [v for _, vs, _ in outcomes for v in vs]
    return SandwichReport(seeds, sum(ex for ex, _, _ in outcomes),
                          len(violations), violations,
                          sum(cm for _, _, cm in outcomes))
