"""Event-driven simulation of the two-species random-walk system.

Particles perform independent continuous-time nearest-neighbor walks on the
integers, jumping at rate 1 as the heat kernel of `macro` assumes; an
independent marked Poisson clock flips the rightmost a-particle to b (mark
'right') or the leftmost b-particle to a (mark 'left').  Labels are 1-based
and stable along a trajectory.  Colors and marks are int8 codes: a = 0,
b = 1, right = 0, left = 1, so mark m recolors species m to 1 - m.
"""
from __future__ import annotations

import csv
import os
import pickle
import signal
import traceback
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .macro import GridSpec, ProfilePair, sorted_unique, validate_class_U

A, B = 0, 1
RIGHT, LEFT = 0, 1
COLORS = ("a", "b")
MARKS = ("right", "left")
_MASKED_KEY = np.iinfo(np.int64).min
# numpy refuses an array of 8-byte entries whose byte count passes intp
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


class SimulationError(ValueError):
    pass


def as_codes(values, what: str, names: tuple[str, str], error: type[Exception]
             ) -> np.ndarray:
    """`values` as int8 codes, code k standing for names[k].

    Anything but the integer codes 0 and 1 (strings, floats, bools, other
    integers) raises `error`; the range is checked before the cast, so that
    256 cannot wrap to 0.
    """
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iu"
                     or not np.all((arr == 0) | (arr == 1))):
        raise error(f"{what} must be codes 0 ({names[0]!r}) or 1 "
                    f"({names[1]!r}), got {arr.dtype} values")
    return arr.astype(np.int8, copy=False)


@dataclass(frozen=True)
class SimConfig:
    """Scaling parameters of one microscopic run.

    The microscopic horizon is epsilon**-2 * horizon_T and the clock
    intensity is 2 * epsilon * kappa.
    """

    epsilon: float
    kappa: float
    horizon_T: float
    seed: int

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise SimulationError("epsilon must be in (0, 1)")
        if not 0 <= self.kappa < np.inf:
            raise SimulationError("kappa must be nonnegative and finite")
        if not 0 < self.horizon_T < np.inf:
            raise SimulationError("horizon_T must be positive and finite")

    @property
    def micro_horizon(self) -> float:
        return self.horizon_T / self.epsilon**2

    @property
    def clock_intensity(self) -> float:
        return 2.0 * self.epsilon * self.kappa


@dataclass
class ParticleState:
    """Labeled particle positions and colors at one time instant."""

    positions: np.ndarray
    colors: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.colors = as_codes(self.colors, "colors", COLORS, SimulationError)
        if self.positions.shape != self.colors.shape or self.positions.ndim != 1:
            raise SimulationError("positions and colors must be 1-d of equal length")
        if len(self.positions) < 1:
            raise SimulationError("need at least one particle")

    @property
    def M(self) -> int:
        return len(self.positions)

    def copy(self) -> "ParticleState":
        return ParticleState(self.positions.copy(), self.colors.copy(), self.time)


@dataclass
class EventLog:
    """Marked clock realization: strictly increasing ring times with marks."""

    times: np.ndarray
    marks: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.marks = as_codes(self.marks, "marks", MARKS, SimulationError)
        if self.times.shape != self.marks.shape:
            raise SimulationError("times and marks must have the same length")
        if len(self.times) and not np.all(np.diff(self.times) > 0):
            raise SimulationError("ring times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def restrict(self, t_lo: float, t_hi: float) -> "EventLog":
        """Rings with t_lo < s <= t_hi."""
        sel = (self.times > t_lo) & (self.times <= t_hi)
        return EventLog(self.times[sel], self.marks[sel])


# ---------------------------------------------------------------------------
# sampling


def check_class_U(profile: ProfilePair) -> None:
    """Raise SimulationError unless the profile is a class-U initial datum."""
    violations = validate_class_U(profile)
    if violations:
        raise SimulationError("initial profile is invalid: " + "; ".join(violations))


def sample_initial(profile: ProfilePair, cfg: SimConfig,
                   rng: np.random.Generator) -> ParticleState:
    """Draw floor(eps^-1 * total mass) particles with site weights
    u(eps*x) + v(eps*x) and independent colors a w.p. u/(u+v)."""
    check_class_U(profile)
    eps = cfg.epsilon
    n_particles = np.floor(profile.total_mass / eps)
    if n_particles < 1:
        raise SimulationError("zero particles: epsilon too large for the total mass")
    x_lo = np.floor(profile.grid.r_min / eps)
    x_hi = np.ceil(profile.grid.r_max / eps)
    n_sites = x_hi - x_lo + 1
    # checked as floats, before any cast: at tiny epsilon they may be inf
    if not (n_particles <= _MAX_ENTRIES and n_sites <= _MAX_ENTRIES):
        raise SimulationError(
            f"epsilon {eps:g} asks for {n_particles:.3g} particles on "
            f"{n_sites:.3g} sites, more than an array can hold")
    M = int(n_particles)
    sites = np.arange(int(x_lo), int(x_hi) + 1)
    r = eps * sites
    nodes = profile.grid.nodes()
    u_site = np.interp(r, nodes, profile.u, left=0.0, right=0.0)
    v_site = np.interp(r, nodes, profile.v, left=0.0, right=0.0)
    wts = u_site + v_site
    keep = wts > 0
    sites, u_site, wts = sites[keep], u_site[keep], wts[keep]
    idx = rng.choice(len(sites), size=M, p=wts / wts.sum())
    positions = sites[idx]
    p_a = u_site[idx] / wts[idx]
    colors = np.where(rng.random(M) < p_a, A, B)
    return ParticleState(positions, colors, time=0.0)


def sample_clock(cfg: SimConfig, rng: np.random.Generator) -> EventLog:
    """Homogeneous Poisson rings of intensity 2*eps*kappa on (0, eps^-2 T]
    with fair independent right/left marks.  Gaps come in blocks of 64,
    each summed in order from the last ring time."""
    lam = cfg.clock_intensity
    horizon = cfg.micro_horizon
    blocks = [np.empty(0)]
    t = 0.0
    while lam > 0 and t <= horizon:
        gaps = rng.exponential(1.0 / lam, size=64)
        blocks.append(np.cumsum(np.concatenate(([t], gaps)))[1:])
        t = blocks[-1][-1]
    times = np.concatenate(blocks)
    times = times[times <= horizon]
    marks = np.where(rng.random(len(times)) < 0.5, RIGHT, LEFT)
    return EventLog(times, marks)


# ---------------------------------------------------------------------------
# walks


def _increments(mean_jumps: float, M: int, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    """Jump counts and up-step counts of M independent walks over one time
    gap.  A walk jumping at rate 1 makes its up-steps and its down-steps as
    two independent Poisson processes of rate 1/2 (Poisson thinning), so
    ups ~ Poisson(mean_jumps / 2) is drawn first, then the down-steps
    likewise; n = ups + downs ~ Poisson(mean_jumps) and the displacement is
    2 * ups - n."""
    ups = rng.poisson(mean_jumps / 2, size=M)
    return ups + rng.poisson(mean_jumps / 2, size=M), ups


class _Walks:
    """Positions of M independent walks on [0, t_end], kept at known times.

    Every walk type keeps a table of its known times: `_times`, sorted, and
    at each of them every walk's position (`_positions`) and the jumps it
    has made on [0, t] (`_jumps`), one row per time.  `positions_at_many`
    reads a known time's row; an unknown time gets its row once, from
    `_rows_at`, and becomes a known time, so a repeated query returns the
    same positions.  The stored realization also answers `first_meeting`,
    the second query `coupling` makes.
    """

    x0: np.ndarray
    t_end: float
    _times: np.ndarray
    _positions: np.ndarray
    _jumps: np.ndarray

    @property
    def M(self) -> int:
        return len(self.x0)

    def _query_times(self, times) -> np.ndarray:
        """`times` checked to lie in [0, t_end] and capped at t_end (no
        walk jumps after it)."""
        times = np.asarray(times, dtype=float)
        bad = ~((times >= 0) & (times <= self.t_end + 1e-9))
        if bad.any():
            raise SimulationError(f"query time {times[bad][0]} outside "
                                  f"[0, {self.t_end}]")
        return np.minimum(times, self.t_end)

    def positions_at(self, t: float) -> np.ndarray:
        return self.positions_at_many([t])[0]

    def positions_at_many(self, times) -> np.ndarray:
        """Positions at each of `times`: row j holds the time times[j]."""
        rows = self._rows(times)  # before reading the table it may grow
        return self._positions[rows]

    def _rows(self, times) -> np.ndarray:
        """The table row of each of `times`; the unknown ones get theirs
        first, all at once, in ascending order."""
        times = np.asarray(times, dtype=float)
        rows = np.searchsorted(self._times, times)
        # a known time's right insertion point is past its left one; known
        # times were checked when they were added
        if (np.searchsorted(self._times, times, side="right") > rows).all():
            return rows
        times = self._query_times(times)
        new = sorted_unique(times)
        at = np.searchsorted(self._times, new)
        unknown = np.searchsorted(self._times, new, side="right") == at
        new, at = new[unknown], at[unknown]
        positions, jumps = self._rows_at(new)
        self._times = np.insert(self._times, at, new)
        self._positions = np.insert(self._positions, at, positions, axis=0)
        self._jumps = np.insert(self._jumps, at, jumps, axis=0)
        return np.searchsorted(self._times, times)

    def _rows_at(self, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions and jump counts at the unknown times `new` (sorted,
        distinct), one row per time."""
        raise NotImplementedError


class PositionRealization(_Walks):
    """A stored realization of the independent walks on [0, t_end].

    Keeping the whole realization lets the true run and the coupled copies
    of `coupling` run on identical positions.  `coupling` asks it two
    queries: positions at given times (`positions_at_many`) and where two
    walks first meet between two times (`first_meeting`); only this class
    reads its jump layout: `first_meeting` for the jumps between its two
    times, and the table for a time it does not know.

    `sample` draws each walk's up-step and down-step counts over [0, t_end]
    with `_increments`, then lays the jumps out by their exact conditional
    law, one walk at a time: the n jump times are n sorted uniforms on
    (0, t_end], and the up-steps a uniformly random subset of ups of them.
    It then makes `times` known times, with one `searchsorted` per walk; a
    realization built by hand knows no time until it is asked one.
    """

    def __init__(self, x0: np.ndarray, jump_times: list[np.ndarray],
                 steps: list[np.ndarray], t_end: float):
        self.x0 = np.asarray(x0, dtype=np.int64)
        self.jump_times = jump_times
        self.steps = steps
        self.t_end = float(t_end)
        # path[i][k] = position of particle i after k jumps
        self.paths = [
            np.concatenate([[self.x0[i]], self.x0[i] + np.cumsum(steps[i])])
            for i in range(len(self.x0))
        ]
        self._times = np.empty(0)
        self._positions = np.empty((0, self.M), dtype=np.int64)
        self._jumps = np.empty((0, self.M), dtype=np.int64)

    @classmethod
    def sample(cls, x0: np.ndarray, t_end: float, rng: np.random.Generator,
               times=()) -> "PositionRealization":
        n, ups = _increments(t_end, len(x0), rng)
        jump_times, steps = [], []
        for k, u in zip(n.tolist(), ups.tolist()):
            jump_times.append(np.sort(t_end - t_end * rng.random(k)))
            steps.append(np.where(rng.permutation(k) < u, 1, -1))
        real = cls(x0, jump_times, steps, t_end)
        real._rows(times)
        return real

    def _rows_at(self, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # jumps at or before t: a jump at exactly t has been made
        jumps = np.empty((self.M, len(new)), dtype=np.int64)
        positions = np.empty_like(jumps)
        for i in range(self.M):
            jumps[i] = np.searchsorted(self.jump_times[i], new, side="right")
            positions[i] = self.paths[i][jumps[i]]
        return positions.T, jumps.T

    def first_meeting(self, i: int, j: int, s_lo: float, s_hi: float
                      ) -> tuple[float, int] | None:
        """(time, label) of the first jump in (s_lo, s_hi] that puts walks
        i and j (labels, walk i right of walk j at s_lo) on one site, or
        None.  Jumps are taken in (time, label, step) order."""
        lo, hi = self._rows((s_lo, s_hi)).tolist()
        x, n_lo, n_hi = self._positions[lo], self._jumps[lo], self._jumps[hi]
        gap = x.item(i - 1) - x.item(j - 1)
        spans = [(lab, n_lo.item(lab - 1), n_hi.item(lab - 1))
                 for lab in (i, j)]
        if sum(b - a for _, a, b in spans) < gap:
            return None
        times = np.concatenate([self.jump_times[lab - 1][a:b]
                                for lab, a, b in spans])
        steps = np.concatenate([self.steps[lab - 1][a:b]
                                for lab, a, b in spans])
        labels = np.repeat((i, j), [b - a for _, a, b in spans])
        order = np.lexsort((steps, labels, times))
        # a jump of i moves the gap by its step, a jump of j against it
        closing = np.where(labels == i, steps, -steps)[order]
        hit = np.flatnonzero(gap + np.cumsum(closing) == 0)
        if not len(hit):
            return None
        k = order[hit[0]]
        return float(times[k]), int(labels[k])


class StreamedWalks(_Walks):
    """Independent walks on [0, t_end] drawn only at the times read.

    A walk's law at fixed times needs no jump times: over a gap of length
    dt a particle makes Poisson(dt / 2) up-steps and, independently,
    Poisson(dt / 2) down-steps (`_increments`).  The gaps between 0,
    `times` and t_end are drawn this way from `rng` at construction, and
    these are the known times of the table, so memory and work are
    O(M * len(times)), not O(M * t_end).

    An unknown time strictly inside a gap draws from the exact bridge
    between its known neighbours: given the gap's up-steps and down-steps,
    each step falls before it independently with probability f (f the
    fraction of the gap before it), so Binomial(ups, f) up-steps and
    Binomial(downs, f) down-steps precede it.  Unknown times are bridged in
    ascending order, each between the known times and those bridged before
    it.  Bridge draws come from a child stream taken from `rng` at
    construction; `rng` itself is not touched again.
    """

    def __init__(self, x0: np.ndarray, t_end: float, rng: np.random.Generator,
                 times):
        self.x0 = np.asarray(x0, dtype=np.int64)
        self.t_end = float(t_end)
        self._times = sorted_unique(np.concatenate(
            [self._query_times(times), [0.0, self.t_end]]))
        self._positions = np.empty((len(self._times), self.M), dtype=np.int64)
        self._jumps = np.zeros_like(self._positions)
        self._positions[0] = self.x0
        for k, dt in enumerate(np.diff(self._times)):
            n, ups = _increments(dt, self.M, rng)
            self._positions[k + 1] = self._positions[k] + 2 * ups - n
            self._jumps[k + 1] = self._jumps[k] + n
        self._bridge_rng = np.random.default_rng(rng.integers(2**63))

    def _rows_at(self, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        positions = np.empty((len(new), self.M), dtype=np.int64)
        jumps = np.empty_like(positions)
        k_lo = 0  # every unknown time lies after the known time 0
        for r, (t, k) in enumerate(zip(new.tolist(), np.searchsorted(
                self._times, new).tolist())):
            if k != k_lo:
                # the first unknown time in its gap bridges from the gap start
                t_lo, x_lo, n_lo = (self._times[k - 1], self._positions[k - 1],
                                    self._jumps[k - 1])
            t_hi, x_hi, n_hi = self._times[k], self._positions[k], self._jumps[k]
            n = n_hi - n_lo
            ups = (n + x_hi - x_lo) // 2
            f = (t - t_lo) / (t_hi - t_lo)
            ups_before = self._bridge_rng.binomial(ups, f)
            downs_before = self._bridge_rng.binomial(n - ups, f)
            positions[r] = x_lo + ups_before - downs_before
            jumps[r] = n_lo + ups_before + downs_before
            t_lo, x_lo, n_lo, k_lo = t, positions[r], jumps[r], k
        return positions, jumps


def evolve_positions(ps: ParticleState, t0: float, t1: float,
                     rng: np.random.Generator) -> ParticleState:
    """Transport positions over [t0, t1]; colors untouched.

    Samples the net displacement directly, one gap of `_increments`: each
    walk makes Poisson((t1 - t0) / 2) up-steps and, independently,
    Poisson((t1 - t0) / 2) down-steps, the up-steps drawn first.
    """
    if abs(ps.time - t0) > 1e-9:
        raise SimulationError(f"state time {ps.time} != t0 = {t0}")
    if t1 < t0:
        raise SimulationError("t1 < t0")
    tau = t1 - t0
    if tau == 0:
        return replace(ps.copy(), time=t1)
    n, ups = _increments(tau, ps.M, rng)
    return ParticleState(ps.positions + 2 * ups - n, ps.colors.copy(),
                         time=t1)


# ---------------------------------------------------------------------------
# rank selection and color flips


def rank_select(positions: np.ndarray, colors: np.ndarray, mark: int) -> int | None:
    """Label (1-based) of the particle a `mark` ring recolors: the rightmost
    a-particle for RIGHT, the leftmost b-particle for LEFT.  Ties go to the
    largest label; None if that species is absent.

    Mark m selects species m by the largest key (1 - 2m) * position; the
    other species' keys are masked with the int64 minimum, and argmax on
    the reversed keys finds the last maximum, so a masked winner means the
    species is absent.
    """
    if mark not in (RIGHT, LEFT):
        raise SimulationError(f"mark must be {RIGHT} ('right') or {LEFT} "
                              f"('left'), got {mark!r}")
    keys = np.multiply(1 - 2 * mark, positions, dtype=np.int64)
    keys[colors != mark] = _MASKED_KEY
    if not len(keys):
        return None
    label = len(keys) - int(keys[::-1].argmax())
    return label if colors.item(label - 1) == mark else None


# ---------------------------------------------------------------------------
# the true trajectory


class TrueTrajectory:
    """Cadlag color trajectory driven by a walk realization and log.

    At t = s_k the flip has been applied.  Runs where a flip fired on an
    absent species are flagged via `absent_flip_count`.
    """

    def __init__(self, initial: ParticleState, log: EventLog,
                 realization: PositionRealization | StreamedWalks,
                 t_end: float):
        if initial.time != 0:
            raise SimulationError("initial state must be at time 0")
        if t_end > realization.t_end + 1e-9:
            raise SimulationError(f"t_end {t_end} extends past the stored "
                                  f"realization (t_end {realization.t_end})")
        self.log = log
        self.realization = realization
        self.t_end = float(t_end)
        self.absent_flip_count = 0
        self._colors_after: list[np.ndarray] = [initial.colors.copy()]
        colors = initial.colors.copy()
        n = int(np.searchsorted(log.times, t_end, side="right"))
        ring_positions = realization.positions_at_many(log.times[:n])
        for positions, mark in zip(ring_positions, log.marks[:n].tolist()):
            lab = rank_select(positions, colors, mark)
            if lab is None:
                self.absent_flip_count += 1
            else:
                colors[lab - 1] = 1 - mark
            self._colors_after.append(colors.copy())

    def state_at(self, t: float) -> ParticleState:
        if t < 0 or t > self.t_end + 1e-9:
            raise SimulationError(f"query time {t} outside [0, {self.t_end}]")
        k = int(np.searchsorted(self.log.times, min(t, self.t_end), side="right"))
        return ParticleState(self.realization.positions_at(t),
                             self._colors_after[k].copy(), time=t)


def run_true(ps: ParticleState, log: EventLog, t_end: float,
             rng: np.random.Generator | None = None,
             realization: PositionRealization | None = None) -> TrueTrajectory:
    """Build the trajectory sampler; pass a realization to reuse positions.

    With only an rng the walks are streamed (`StreamedWalks`): their jump
    and up-step counts are drawn per gap between the ring times and t_end,
    O(M) integers per ring, and no jump is drawn one by one.
    """
    if realization is None:
        if rng is None:
            raise SimulationError("need either an rng or a stored realization")
        n = int(np.searchsorted(log.times, t_end, side="right"))
        realization = StreamedWalks(ps.positions, t_end, rng, log.times[:n])
    return TrueTrajectory(ps, log, realization, t_end)


def marks_stay_in_X(h_a0: int, M: int, marks) -> bool:
    """Both species survive every flip of the mark sequence: the a-count,
    h_a0 before the first flip, stays in (0, M) after each one.  h_a0
    itself is not checked: from h_a0 = 0 a sequence that starts with a left
    flip stays in X."""
    n_a = h_a0
    for mark in marks:
        n_a += 1 if mark == LEFT else -1
        if not 0 < n_a < M:
            return False
    return True


def in_X(h_a0: int, M: int, log: EventLog, t_end: float) -> bool:
    """True iff both species are present from time 0 up to t_end: the
    initial a-count h_a0 is in (0, M) and the rings of `log` up to t_end
    keep it there."""
    n = int(np.searchsorted(log.times, t_end, side="right"))
    return 0 < h_a0 < M and marks_stay_in_X(h_a0, M, log.marks[:n].tolist())


# ---------------------------------------------------------------------------
# replicas


def replica_rngs(seed: int, rep: int) -> tuple[np.random.Generator, ...]:
    """The (initial, clock, walk) generators of replica `rep` of `seed`.

    Each replica owns the substream SeedSequence(seed, spawn_key=(rep,)),
    so its draws depend on nothing but (seed, rep): not on the order in
    which replicas run, nor on the process that runs them.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return tuple(map(np.random.default_rng, ss.spawn(3)))


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(threads: int, n_seeds: int) -> int:
    """Worker processes for n_seeds replicas at --threads `threads`: never
    more than the replicas or the usable CPUs; 1 means run serially."""
    return max(1, min(threads, n_seeds, usable_cpus()))


class WorkerTraceback(Exception):
    """The traceback of a replica's exception in its forked worker; the
    parent re-raises the exception with this as its cause."""


def _run_chunk(fn, first: int, n_seeds: int, workers: int, pipe) -> None:
    """Body of forked worker `first`: run reps first, first + workers, ...
    and pickle to the write end of `pipe` either (None, rows, None) or, at
    the first rep that raises, (rep, exception, traceback text).  Exits 0
    once all is written; never returns."""
    status = 1
    try:
        os.close(pipe[0])
        rep = first
        try:
            rows = []
            for rep in range(first, n_seeds, workers):
                rows.append(fn(rep))
            payload = pickle.dumps((None, rows, None))
        except Exception as exc:
            tb = traceback.format_exc()
            try:
                payload = pickle.dumps((rep, exc, tb))
            except Exception:
                payload = pickle.dumps((rep, RuntimeError(repr(exc)), tb))
        with os.fdopen(pipe[1], "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        # skip the parent's exit handlers and buffered output
        os._exit(status)


def map_seeds(fn, n_seeds: int, threads: int, meanwhile=None) -> list:
    """[fn(rep) for rep in range(n_seeds)], fanned out over forked workers,
    while the calling process runs `meanwhile()` if given.

    `worker_count` workers are forked directly, one strided chunk each:
    worker i runs reps i, i + workers, ... and pickles its rows back through
    its own pipe.  The rows are put back in rep order, so with per-replica
    substreams (`replica_rngs`) the list is the serial one.  A forked worker
    inherits `fn`, closures included, and the imported modules, so nothing
    but the rows is pickled.  Fork copies only the calling thread, so call
    this from a process running no other threads.

    Without `os.fork`, or with one worker, `meanwhile()` runs first and the
    replicas after it, here.  An exception from `meanwhile` wins over any
    replica's.  Otherwise a replica's exception reaches the caller with its
    type, from the lowest failing rep, as in a serial run; a worker that
    ends without sending its rows raises RuntimeError.  Every worker has
    been reaped when this returns or raises.
    """
    workers = worker_count(threads, n_seeds)
    if workers == 1 or not hasattr(os, "fork"):
        if meanwhile is not None:
            meanwhile()
        return [fn(rep) for rep in range(n_seeds)]
    live = []  # (pid, read end of its pipe) of each unreaped worker
    try:
        for first in range(workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _run_chunk(fn, first, n_seeds, workers, (r, w))
            os.close(w)
            live.append((pid, os.fdopen(r, "rb")))
        if meanwhile is not None:
            meanwhile()
        rows = [None] * n_seeds
        failures = []
        for first in range(workers):
            pid, fh = live[0]
            with fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del live[0]
            if code or not data:
                raise RuntimeError(
                    f"replica worker {first} (pid {pid}) ended with exit "
                    f"code {code} before sending its rows")
            rep, value, tb = pickle.loads(data)
            if rep is None:
                rows[first::workers] = value
            else:
                failures.append((rep, value, tb))
        if failures:
            rep, exc, tb = min(failures, key=lambda f: f[0])
            raise exc from WorkerTraceback(tb)
        return rows
    finally:
        # reached with workers left only on an error: their rows are not needed
        for pid, fh in live:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# empirical profiles


def empirical_profile(ps: ParticleState, cfg: SimConfig, grid: GridSpec) -> ProfilePair:
    """Bin eps-scaled occupation counts into grid cells as densities."""
    eps = cfg.epsilon
    r = eps * ps.positions.astype(float)
    if r.min() < grid.r_min or r.max() > grid.r_max:
        h = grid.h
        n_left = max(int(np.ceil((grid.r_min - r.min()) / h)) + 1, 0)
        n_right = max(int(np.ceil((r.max() - grid.r_max) / h)) + 1, 0)
        grid = grid.extended(n_left, n_right)
        warnings.warn("grid extended to cover the particle range")
    h = grid.h
    edges = grid.r_min - h / 2 + h * np.arange(grid.n_nodes + 1)
    u = np.histogram(r[ps.colors == A], bins=edges)[0] * (eps / h)
    v = np.histogram(r[ps.colors == B], bins=edges)[0] * (eps / h)
    return ProfilePair(grid, u, v)


def scaled_tail_curve(ps: ParticleState, color: int, rs: np.ndarray, eps: float
                      ) -> np.ndarray:
    """eps-scaled tail masses of one color evaluated at macroscopic points."""
    # compared with int8 colors, a string such as "a" would match nothing
    if color not in (A, B):
        raise SimulationError(f"color must be {A} ('a') or {B} ('b'), "
                              f"got {color!r}")
    pos = np.sort(eps * ps.positions[ps.colors == color].astype(float))
    n = len(pos)
    idx = np.searchsorted(pos, np.asarray(rs) - 1e-12, side="left")
    return eps * (n - idx)


# ---------------------------------------------------------------------------
# CSV export


def write_occupation_csv(path, ps: ParticleState) -> None:
    """Occupation numbers of ps, one row per occupied site in increasing
    order: xi counts its a-particles, eta its b-particles."""
    sites, site_of = np.unique(ps.positions, return_inverse=True)
    total = np.bincount(site_of, minlength=len(sites))
    xi = np.bincount(site_of[ps.colors == A], minlength=len(sites))
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["site", "xi", "eta"])
        wr.writerows(zip(sites.tolist(), xi.tolist(), (total - xi).tolist()))
