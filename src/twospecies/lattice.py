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

from .macro import GridSpec, ProfilePair, validate_class_U

A, B = 0, 1
RIGHT, LEFT = 0, 1
COLORS = ("a", "b")
MARKS = ("right", "left")
# rank_select loops over fewer particles than this and uses numpy from here
# on, where the loop's per-particle cost overtakes numpy's per-call cost
RANK_VECTOR_MIN = 64


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

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed))


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
    report = validate_class_U(profile)
    if not report.valid:
        raise SimulationError("initial profile is invalid: " + "; ".join(report.violations))


def sample_initial(profile: ProfilePair, cfg: SimConfig,
                   rng: np.random.Generator) -> ParticleState:
    """Draw floor(eps^-1 * total mass) particles with site weights
    u(eps*x) + v(eps*x) and independent colors a w.p. u/(u+v)."""
    check_class_U(profile)
    eps = cfg.epsilon
    M = int(np.floor(profile.total_mass / eps))
    if M < 1:
        raise SimulationError("zero particles: epsilon too large for the total mass")

    x_lo = int(np.floor(profile.grid.r_min / eps))
    x_hi = int(np.ceil(profile.grid.r_max / eps))
    sites = np.arange(x_lo, x_hi + 1)
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
    with fair independent right/left marks."""
    lam = cfg.clock_intensity
    horizon = cfg.micro_horizon
    times: list[float] = []
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
    times_arr = np.asarray(times)
    marks = np.where(rng.random(len(times_arr)) < 0.5, RIGHT, LEFT)
    return EventLog(times_arr, marks)


# ---------------------------------------------------------------------------
# walks


def _walk_draws(t_end: float, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    """One particle's jump times in (0, t_end] and up-step flags.

    The sampler of `PositionRealization.sample`, the stored realization
    that `coupling` reads jump by jump.
    """
    expected = max(int(t_end * 1.3) + 16, 16)
    ts: list[np.ndarray] = []
    t_acc = 0.0
    while t_acc <= t_end:
        chunk = np.cumsum(rng.exponential(1.0, size=expected)) + t_acc
        ts.append(chunk)
        t_acc = chunk[-1]
    all_t = np.concatenate(ts)
    all_t = all_t[all_t <= t_end]
    return all_t, rng.random(len(all_t)) < 0.5


def _increments(mean_jumps: float, M: int, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    """Jump counts and up-step counts of M independent walks over one time
    gap: n ~ Poisson(mean_jumps), then Binomial(n, 1/2) of them up, so the
    displacement is 2 * ups - n."""
    n = rng.poisson(mean_jumps, size=M)
    return n, rng.binomial(n, 0.5)


class _Walks:
    """Positions of M independent walks on [0, t_end]."""

    x0: np.ndarray
    t_end: float

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
        raise NotImplementedError


class PositionRealization(_Walks):
    """A stored realization of the independent walks on [0, t_end].

    Keeping the whole realization lets the true run and the coupled copies
    of `coupling` run on identical positions; `coupling` reads the jumps of
    married pairs between ring times to find where the partners meet.
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

    @classmethod
    def sample(cls, x0: np.ndarray, t_end: float,
               rng: np.random.Generator) -> "PositionRealization":
        x0 = np.asarray(x0, dtype=np.int64)
        draws = [_walk_draws(t_end, rng) for _ in range(len(x0))]
        return cls(x0, [jt for jt, _ in draws],
                   [np.where(up, 1, -1).astype(np.int64) for _, up in draws],
                   t_end)

    def positions_at_many(self, times) -> np.ndarray:
        times = self._query_times(times)
        out = np.empty((len(times), self.M), dtype=np.int64)
        for i in range(self.M):
            k = np.searchsorted(self.jump_times[i], times, side="right")
            out[:, i] = self.paths[i][k]
        return out


class StreamedWalks(_Walks):
    """Independent walks on [0, t_end] drawn only at the times read.

    A walk's law at fixed times needs no jump times: over a gap of length
    dt a particle makes Poisson(dt) jumps, half of them up on
    average (`_increments`).  The gaps between 0, `times` and t_end are
    drawn this way from `rng` at construction, and each walk's position and
    jump count are kept at each of these known times, so memory and work
    are O(M * len(times)), not O(M * t_end).

    A query strictly inside a gap draws from the exact bridge between its
    known neighbours: of the gap's n jumps, Binomial(n, f) fall before it
    (f the fraction of the gap before it), and the up-steps among those are
    hypergeometric.  The query then becomes a known time, so a repeated
    query returns the same positions and a later one in the same gap
    bridges between its nearest known neighbours.  Bridge draws come from
    a child stream taken from `rng` at construction; `rng` itself is not
    touched again.
    """

    def __init__(self, x0: np.ndarray, t_end: float, rng: np.random.Generator,
                 times):
        self.x0 = np.asarray(x0, dtype=np.int64)
        self.t_end = float(t_end)
        self._times = np.union1d(self._query_times(times), [0.0, self.t_end])
        # row k: positions, and jumps made on [0, _times[k]]
        self._positions = np.empty((len(self._times), self.M), dtype=np.int64)
        self._jumps = np.zeros_like(self._positions)
        self._positions[0] = self.x0
        for k, dt in enumerate(np.diff(self._times)):
            n, ups = _increments(dt, self.M, rng)
            self._positions[k + 1] = self._positions[k] + 2 * ups - n
            self._jumps[k + 1] = self._jumps[k] + n
        self._bridge_rng = np.random.default_rng(rng.integers(2**63))

    def positions_at_many(self, times) -> np.ndarray:
        times = self._query_times(times)
        for t in np.setdiff1d(times, self._times):
            self._bridge(t)
        return self._positions[np.searchsorted(self._times, times)]

    def _bridge(self, t: float) -> None:
        """Make t, strictly between two known times, a known time."""
        k = int(np.searchsorted(self._times, t))
        t_lo, t_hi = self._times[k - 1], self._times[k]
        n = self._jumps[k] - self._jumps[k - 1]
        ups = (n + self._positions[k] - self._positions[k - 1]) // 2
        n_before = self._bridge_rng.binomial(n, (t - t_lo) / (t_hi - t_lo))
        ups_before = self._bridge_rng.hypergeometric(ups, n - ups, n_before)
        self._times = np.insert(self._times, k, t)
        self._positions = np.insert(
            self._positions, k,
            self._positions[k - 1] + 2 * ups_before - n_before, axis=0)
        self._jumps = np.insert(self._jumps, k,
                                self._jumps[k - 1] + n_before, axis=0)


def evolve_positions(ps: ParticleState, t0: float, t1: float,
                     rng: np.random.Generator) -> ParticleState:
    """Transport positions over [t0, t1]; colors untouched.

    Samples the net displacement directly, one gap of `_increments`: jump
    counts are Poisson with mean t1 - t0 and each jump is +-1 with
    probability 1/2.
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
    largest label; None if that species is absent."""
    if mark == RIGHT:
        color, sign = A, 1
    elif mark == LEFT:
        color, sign = B, -1
    else:
        raise SimulationError(f"mark must be {RIGHT} ('right') or {LEFT} "
                              f"('left'), got {mark!r}")
    if len(positions) < RANK_VECTOR_MIN:
        return _rank_loop(positions, colors, color, sign)
    return _rank_vector(positions, colors, color, sign)


def _rank_loop(positions: np.ndarray, colors: np.ndarray, color: int,
               sign: int) -> int | None:
    """`rank_select` as one pass over the particles."""
    best = None
    for i, (x, c) in enumerate(zip(positions.tolist(), colors.tolist())):
        if c == color and (best is None or (sign * x, i) > best):
            best = (sign * x, i)
    return None if best is None else best[1] + 1


def _rank_vector(positions: np.ndarray, colors: np.ndarray, color: int,
                 sign: int) -> int | None:
    """`rank_select` in numpy: the largest sign * position among the
    species, the last of its ties found by argmax on the reversed keys."""
    labels = np.flatnonzero(colors == color)
    if len(labels) == 0:
        return None
    keys = sign * positions[labels]
    return int(labels[len(keys) - 1 - int(keys[::-1].argmax())]) + 1


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
        self.initial = initial.copy()
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
        k = min(k, len(self._colors_after) - 1)
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


def in_X(h_a0: int, M: int, log: EventLog, t_end: float) -> bool:
    """True iff both species stay present up to t_end (tally never hits 0 or M).
    The initial tally h_a0 counts too, unlike `coupling.marks_stay_in_X`:
    h_a0 = 0 is never in X."""
    sel = log.times <= t_end
    signs = np.where(log.marks[sel] == LEFT, 1, -1)
    tally = h_a0 + np.concatenate([[0], np.cumsum(signs)])
    return bool(np.all((tally > 0) & (tally < M)))


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
