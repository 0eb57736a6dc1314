"""Deterministic macroscopic machinery on uniform grids.

Profiles are node-sampled nonnegative densities integrated with the
trapezoid rule.  The central objects are the mass-transfer (cut) operator,
the mass-preserving Gaussian smoothing step, and their alternating
compositions (the upper/lower barrier iterations).  All operators preserve
per-species mass exactly at the discrete level: partial transfers are
realized by giving a single boundary node a fractional weight, so the
transferred chunk carries exactly the requested mass.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np


class ProfileError(ValueError):
    """Invalid profile data or operation preconditions."""


class AnnihilationError(ProfileError):
    """A transfer step would remove more mass than a species has."""


class RepairError(ProfileError):
    """Repair construction infeasible (transfer regions overlap)."""


# ---------------------------------------------------------------------------
# grids and profiles


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [r_min, r_max] with n_cells cells (n_cells+1 nodes)."""

    r_min: float
    r_max: float
    n_cells: int

    def __post_init__(self):
        if not self.r_min < self.r_max:
            raise ProfileError(f"need r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n_cells < 1:
            raise ProfileError("n_cells must be positive")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def node(self, j):
        """Coordinate r_min + h * j of node j (an int or an int array)."""
        return self.r_min + self.h * j

    def nodes(self) -> np.ndarray:
        return self.node(np.arange(self.n_nodes))

    def cell(self, r):
        """Index floor((r - r_min) / h) of the cell holding r (or an array)."""
        return np.floor((r - self.r_min) / self.h).astype(int)

    def extended(self, n_left: int, n_right: int) -> "GridSpec":
        """Append cells on either side; spacing and node alignment unchanged."""
        h = self.h
        return GridSpec(self.r_min - n_left * h, self.r_max + n_right * h,
                        self.n_cells + n_left + n_right)

    def mirrored(self) -> "GridSpec":
        """The grid reflected through r = 0: node j maps to node n_cells - j."""
        return GridSpec(-self.r_max, -self.r_min, self.n_cells)


@functools.lru_cache(maxsize=16)
def node_weights(grid: GridSpec) -> np.ndarray:
    """Trapezoid weights of the nodes.  Memoized per grid, since a barrier
    step asks for them several times, and returned read-only."""
    w = np.full(grid.n_nodes, grid.h)
    w[0] = w[-1] = grid.h / 2
    w.flags.writeable = False
    return w


@dataclass
class ProfilePair:
    """A pair of node-sampled densities (u, v) on a shared grid."""

    grid: GridSpec
    u: np.ndarray
    v: np.ndarray
    mass_u: float = field(init=False)
    mass_v: float = field(init=False)

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != (self.grid.n_nodes,) or self.v.shape != (self.grid.n_nodes,):
            raise ProfileError("u, v must have one sample per grid node")
        # written so that NaN fails too
        if not (self.u.min() >= 0 and self.v.min() >= 0
                and self.u.max() < math.inf and self.v.max() < math.inf):
            raise ProfileError("profile samples must be finite and nonnegative")
        w = node_weights(self.grid)
        self.mass_u = float(w @ self.u)
        self.mass_v = float(w @ self.v)

    @property
    def total_mass(self) -> float:
        return self.mass_u + self.mass_v

    def copy(self) -> "ProfilePair":
        return ProfilePair(self.grid, self.u.copy(), self.v.copy())

    def mirrored(self) -> "ProfilePair":
        """The pair reflected through r = 0 with the species swapped (fresh
        arrays): a v-side computation is the u-side one on it."""
        return ProfilePair(self.grid.mirrored(), self.v[::-1].copy(),
                           self.u[::-1].copy())


@dataclass(frozen=True)
class CutPoints:
    """Transfer locations: rightmost u-mass boundary and leftmost v-mass boundary."""

    R_delta: float
    D_delta: float


# ---------------------------------------------------------------------------
# quadrature


def tail_integral(f: np.ndarray, grid: GridSpec, r) -> float | np.ndarray:
    """Integral of f over [r, r_max], trapezoid with linear interpolation at r.

    Continuous and nonincreasing in r; zero for r >= r_max, full mass for
    r <= r_min.
    """
    f = np.asarray(f, dtype=float)
    first, last = grid.node(0), grid.node(grid.n_cells)
    h = grid.h
    tails = tail_curve(f, grid)

    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    rc = np.minimum(np.maximum(r_arr, first), last)
    i = np.minimum(np.maximum(grid.cell(rc), 0), grid.n_cells - 1)
    lam = (rc - grid.node(i)) / h
    fr = (1 - lam) * f[i] + lam * f[i + 1]
    out = tails[i + 1] + 0.5 * (grid.node(i + 1) - rc) * (fr + f[i + 1])
    out = np.where(r_arr >= last, 0.0, out)
    out = np.where(r_arr <= first, tails[0], out)
    return out if np.ndim(r) else float(out[0])


def tail_curve(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Nodewise tail integrals F(r_j) = integral_{r_j}^{r_max} f."""
    h = grid.h
    cell = 0.5 * h * (np.asarray(f, float)[:-1] + np.asarray(f, float)[1:])
    return np.concatenate([np.cumsum(cell[::-1])[::-1], [0.0]])


def invert_tail(f: np.ndarray, grid: GridSpec, target: float) -> float:
    """Solve tail_integral(f, r) = target exactly.

    The trapezoid tail is quadratic in r on each cell, so one search over
    the nodewise tails finds the cell and a closed-form root gives r.
    Where the tail is flat at the target (a zero-density stretch) this
    returns the rightmost r that still reaches it; a target of 0 gives
    r_max.
    """
    f = np.asarray(f, dtype=float)
    tails = tail_curve(f, grid)
    total = float(tails[0])
    if not 0.0 <= target <= total:
        raise ProfileError(f"tail target {target} outside [0, {total}]")
    # a reversed cumsum of nonnegative terms is nonincreasing in floating
    # point too: j is the rightmost node whose tail reaches the target
    j = grid.n_cells - int(np.searchsorted(tails[::-1], target, side="left"))
    if j == grid.n_cells:
        return grid.r_max
    # on [r, r_{j+1}] with s = r_{j+1} - r the tail is
    # tails[j+1] + s f1 - s^2 (f1 - f0) / (2h); take its cancellation-free
    # root
    h = grid.h
    f0, f1 = float(f[j]), float(f[j + 1])
    c = target - float(tails[j + 1])
    disc = max(f1 * f1 - 2.0 * c * (f1 - f0) / h, 0.0)
    denom = f1 + math.sqrt(disc)
    if denom > 0:
        s = 2.0 * c / denom
    else:
        # f1 = 0 and disc underflowed (densities below about 1e-154); the
        # cell carries mass, so f0 > 0 and the tail is s^2 f0 / (2h)
        s = math.sqrt(2.0 * h * c / f0)
    return grid.node(j + 1) - min(s, h)


def _invert_head(f: np.ndarray, grid: GridSpec, target: float) -> float:
    """Mirror of invert_tail: the leftmost r whose head integral reaches
    the target."""
    return -invert_tail(f[::-1], grid.mirrored(), target)


# ---------------------------------------------------------------------------
# exact node-level mass splitting


def split_tail(f: np.ndarray, grid: GridSpec, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Split the nonnegative, finite f = kept + removed with the removed part
    carrying exactly `mass`, taken from the right.  At most one node gets a
    fractional share, so both parts are nonnegative and sum to f nodewise.
    """
    f = np.asarray(f, dtype=float)
    node_mass = node_weights(grid) * f
    n = len(f)
    # cum[i]: the mass strictly right of node n - 1 - i, summed from the
    # right (cum[n] is the total); nondecreasing, so two searches find the
    # nodes lo, ..., hi - 1 that give anything up: right-mass below `mass`,
    # less the massless nodes at the end.  Elsewhere kept is f, removed 0.
    cum = np.zeros(n + 1)
    np.cumsum(node_mass[::-1], out=cum[1:])
    total = float(cum[n])
    if not 0 <= mass <= total + 1e-12 * max(total, 1.0):
        raise ProfileError(f"cannot remove mass {mass} from total {total}")
    k = int(cum[:n].searchsorted(mass))
    z = int(cum.searchsorted(0.0, side="right"))
    lo, hi = n - k, n + 1 - z
    node_mass = node_mass[lo:hi]
    take = np.minimum(np.maximum(mass - cum[z - 1:k][::-1], 0.0), node_mass)
    removed = np.zeros(n)
    nz = node_mass > 0
    # a share of f, not take / w, so that nodes taken whole are exact
    removed[lo:hi][nz] = f[lo:hi][nz] * (take[nz] / node_mass[nz])
    kept = f.copy()
    np.maximum(f[lo:hi] - removed[lo:hi], 0.0, out=kept[lo:hi])
    return kept, removed


def split_head(f: np.ndarray, grid: GridSpec, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Mirror of split_tail: the removed mass is taken from the left."""
    kept_r, removed_r = split_tail(f[::-1], grid.mirrored(), mass)
    return kept_r[::-1], removed_r[::-1]


# ---------------------------------------------------------------------------
# class-U validation


def support(mask: np.ndarray) -> tuple[int, int] | None:
    """First and last index where the boolean mask holds; None where it
    holds nowhere."""
    first = int(mask.argmax()) if mask.size else 0
    if not (mask.size and mask[first]):
        return None
    return first, mask.size - 1 - int(mask[::-1].argmax())


def validate_class_U(p: ProfilePair) -> list[str]:
    """The ways p fails to be class U, empty for a class-U pair: interval
    supports with the overlap ordering L < D < R < E and positivity inside
    each support (no isolated interior zeros)."""
    peak = max(float(p.u.max(initial=0.0)), float(p.v.max(initial=0.0)))
    thr = 1e-12 * peak
    violations: list[str] = []
    last = p.grid.n_cells

    su = support(p.u > thr)
    sv = support(p.v > thr)
    if su is None:
        violations.append("u has empty support")
    if sv is None:
        violations.append("v has empty support")
    L = R = D = E = None
    if su is not None:
        i0, i1 = su
        if np.any(p.u[i0:i1 + 1] <= thr):
            violations.append("u vanishes inside its support interval")
        L, R = p.grid.node(max(i0 - 1, 0)), p.grid.node(min(i1 + 1, last))
    if sv is not None:
        j0, j1 = sv
        if np.any(p.v[j0:j1 + 1] <= thr):
            violations.append("v vanishes inside its support interval")
        D, E = p.grid.node(max(j0 - 1, 0)), p.grid.node(min(j1 + 1, last))
    if su is not None and sv is not None:
        if not (L < D < R < E):
            violations.append(
                f"support ordering violated: L={L}, D={D}, R={R}, E={E}")
    return violations


# ---------------------------------------------------------------------------
# cut operator


def _check_transfer(p: ProfilePair, kappa_delta: float) -> None:
    if kappa_delta >= min(p.mass_u, p.mass_v):
        raise AnnihilationError(
            f"transfer {kappa_delta} >= species mass "
            f"(mass_u={p.mass_u}, mass_v={p.mass_v})")


def cut_points(p: ProfilePair, kappa_delta: float) -> CutPoints:
    """Locations where u's rightmost and v's leftmost `kappa_delta` mass start."""
    _check_transfer(p, kappa_delta)
    R = invert_tail(p.u, p.grid, kappa_delta)
    D = _invert_head(p.v, p.grid, kappa_delta)
    return CutPoints(R_delta=R, D_delta=D)


def _exchange(p: ProfilePair, m: float, split_u, split_v) -> ProfilePair:
    """Move mass m from u to v and mass m from v to u; split_u and split_v
    (split_tail or split_head) say which end of each species gives it up."""
    u_kept, u_out = split_u(p.u, p.grid, m)
    v_kept, v_out = split_v(p.v, p.grid, m)
    return ProfilePair(p.grid, u_kept + v_out, v_kept + u_out)


def apply_cut(p: ProfilePair, kappa_delta: float) -> ProfilePair:
    """Exchange u's rightmost and v's leftmost `kappa_delta` mass.

    Exactly mass preserving per species and pointwise sum preserving:
    u' + v' = u + v at every node.
    """
    _check_transfer(p, kappa_delta)
    return _exchange(p, kappa_delta, split_tail, split_head)


# ---------------------------------------------------------------------------
# heat convolution


@functools.lru_cache(maxsize=16)
def gauss_kernel(h: float, t: float) -> np.ndarray:
    """Discrete Gaussian kernel of variance t on spacing h, truncated at
    8*sqrt(t) and renormalized to unit discrete mass.

    Memoized on the exact (h, t): a barrier iteration asks for the same
    kernel at every step, so the result is returned read-only.
    """
    if t <= 0:
        raise ProfileError("convolution time must be positive")
    radius = max(int(math.ceil(8.0 * math.sqrt(t) / h)), 1)
    x = h * np.arange(-radius, radius + 1)
    k = np.exp(-x * x / (2.0 * t))
    k = k / k.sum()
    k.flags.writeable = False
    return k


def gauss_convolve_samples(f: np.ndarray, grid: GridSpec, t: float
                           ) -> tuple[np.ndarray, GridSpec]:
    """Convolve node samples with the heat kernel; the grid gains the kernel
    radius on each side (appended cells, alignment preserved).  Only the
    nonzero samples padded by a kernel width of zeros are convolved, so each
    output sums the same window of samples as a convolution of all of f."""
    f = np.asarray(f, dtype=float)
    k = gauss_kernel(grid.h, t)
    width = len(k) - 1
    out = np.zeros(len(f) + width)
    nz = support(f != 0)
    if nz is not None:
        lo = max(nz[0] - width, 0)
        hi = min(nz[1] + 1 + width, len(f))
        out[lo:hi + width] = np.convolve(f[lo:hi], k, mode="full")
    return out, grid.extended(width // 2, width // 2)


def _trim(u: np.ndarray, v: np.ndarray, grid: GridSpec, lo_limit: int, hi_limit: int
          ) -> tuple[np.ndarray, np.ndarray, GridSpec]:
    """Drop appended nodes that stayed numerically zero; never trims inside
    [lo_limit, hi_limit] (indices of the pre-extension extent)."""
    peak = max(float(u.max(initial=0.0)), float(v.max(initial=0.0)), 1e-300)
    keep = support((u > 1e-15 * peak) | (v > 1e-15 * peak))
    if keep is None:
        lo, hi = lo_limit, hi_limit
    else:
        lo = min(keep[0] - 2, lo_limit)
        hi = max(keep[1] + 2, hi_limit)
    lo = max(lo, 0)
    hi = min(hi, len(u) - 1)
    new_grid = GridSpec(grid.node(lo), grid.node(hi), hi - lo)
    return u[lo:hi + 1].copy(), v[lo:hi + 1].copy(), new_grid


def gauss_convolve(p: ProfilePair, t: float) -> ProfilePair:
    """Heat-smooth both components on a common auto-extended grid."""
    u_ext, grid_ext = gauss_convolve_samples(p.u, p.grid, t)
    v_ext, _ = gauss_convolve_samples(p.v, p.grid, t)
    radius = grid_ext.n_cells - p.grid.n_cells
    lo_limit, hi_limit = radius // 2, radius // 2 + p.grid.n_cells
    u2, v2, grid2 = _trim(u_ext, v_ext, grid_ext, lo_limit, hi_limit)
    return ProfilePair(grid2, u2, v2)


# ---------------------------------------------------------------------------
# barriers


def barrier_step(p: ProfilePair, delta: float, kappa: float, variant: str) -> ProfilePair:
    """One step of the upper ('plus': transfer then smooth) or lower
    ('minus': smooth then transfer) iteration."""
    if variant == "plus":
        return gauss_convolve(apply_cut(p, kappa * delta), delta)
    if variant == "minus":
        return apply_cut(gauss_convolve(p, delta), kappa * delta)
    raise ProfileError(f"variant must be 'plus' or 'minus', got {variant!r}")


def step_count(T: float, delta: float) -> int:
    """Number of steps of size delta that reach T; T must be a multiple."""
    if not (0 <= T < math.inf and 0 < delta < math.inf):
        raise ProfileError(f"T={T} and delta={delta} must be finite, "
                           "T nonnegative and delta positive")
    n = int(round(T / delta))
    if abs(n * delta - T) > 1e-9 * max(T, 1.0):
        raise ProfileError(f"T={T} is not a multiple of delta={delta}")
    return n


def iterate_barriers(p0: ProfilePair, delta: float, kappa: float, n: int,
                     variant: str) -> list[ProfilePair]:
    """n-fold barrier step; returns [p0, p1, ..., pn]."""
    out = [p0]
    for _ in range(n):
        out.append(barrier_step(out[-1], delta, kappa, variant))
    return out


# ---------------------------------------------------------------------------
# order relation


def sorted_unique(values) -> np.ndarray:
    """The distinct values, sorted (`np.unique` imports `numpy.ma`)."""
    vs = np.sort(np.ravel(values))
    return vs[np.append(True, vs[1:] != vs[:-1])] if len(vs) else vs


def order_gap(p1: ProfilePair, p2: ProfilePair) -> tuple[float, float]:
    """sup_r [F(r; u1) - F(r; u2)] over the union node set, with its argmax."""
    rs = sorted_unique(np.concatenate([p1.grid.nodes(), p2.grid.nodes()]))
    f1 = np.asarray(tail_integral(p1.u, p1.grid, rs))
    f2 = np.asarray(tail_integral(p2.u, p2.grid, rs))
    gaps = f1 - f2
    i = int(np.argmax(gaps))
    return float(gaps[i]), float(rs[i])


# ---------------------------------------------------------------------------
# repair operators


def default_m0(p: ProfilePair) -> float:
    return 0.1 * min(p.mass_u, p.mass_v)


def _repair(p: ProfilePair, m: float, m0: float | None, split_u, split_v
            ) -> ProfilePair:
    """Exchange m mass as `_exchange` does, provided 0 <= m < m0 and the
    mass given up from a head lies strictly left of the mass given up from
    a tail."""
    if m0 is None:
        m0 = default_m0(p)
    if not 0 <= m < m0:
        raise RepairError(f"need 0 <= m < m0 = {m0}, got m = {m}")
    if m == 0:
        return p.copy()
    f_head, f_tail = (p.u, p.v) if split_u is split_head else (p.v, p.u)
    H = _invert_head(f_head, p.grid, m)
    Z = invert_tail(f_tail, p.grid, m)
    if H >= Z:
        raise RepairError(f"transfer regions overlap: head point {H} >= "
                          f"tail point {Z}")
    return _exchange(p, m, split_u, split_v)


def repair_upper(p: ProfilePair, m: float, m0: float | None = None) -> ProfilePair:
    """Dominating pair: hand u's leftmost m mass to v and take v's rightmost
    m mass into u.  Raises the u-tails by at most m everywhere."""
    return _repair(p, m, m0, split_head, split_tail)


def repair_lower(p: ProfilePair, m: float, m0: float | None = None) -> ProfilePair:
    """Dominated pair: hand u's rightmost m mass to v and take v's leftmost
    m mass into u (the cut, checked for overlapping transfer regions)."""
    return _repair(p, m, m0, split_tail, split_head)


# ---------------------------------------------------------------------------
# helpers: construction, resampling, export


def tent(grid: GridSpec, left: float, right: float, mass: float = 1.0) -> np.ndarray:
    """Triangle bump supported on (left, right), scaled to the given mass."""
    if not -np.inf < left < right < np.inf:
        raise ProfileError("need finite edges with left < right for a tent")
    if not 0 <= mass < np.inf:
        raise ProfileError("tent mass must be nonnegative and finite")
    r = grid.nodes()
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    f = np.maximum(0.0, 1.0 - np.abs(r - mid) / half)
    w = node_weights(grid)
    cur = float(w @ f)
    if cur <= 0:
        raise ProfileError("tent support does not meet the grid")
    return f * (mass / cur)


def tent_pair() -> ProfilePair:
    """Default overlapping-tent initial datum: unit-mass u on (-1, 0.5) and
    v on (0, 1.5)."""
    grid = GridSpec(-2.5, 3.0, 1100)
    return ProfilePair(grid, tent(grid, -1.0, 0.5), tent(grid, 0.0, 1.5))


def resample(p: ProfilePair, grid: GridSpec) -> ProfilePair:
    """Linear-interpolation resample onto another grid (for comparisons)."""
    r_old = p.grid.nodes()
    r_new = grid.nodes()
    u = np.interp(r_new, r_old, p.u, left=0.0, right=0.0)
    v = np.interp(r_new, r_old, p.v, left=0.0, right=0.0)
    return ProfilePair(grid, u, v)


def l1_distance_u(p1: ProfilePair, p2: ProfilePair) -> float:
    """L1 distance between the u components on a common grid."""
    lo = min(p1.grid.r_min, p2.grid.r_min)
    hi = max(p1.grid.r_max, p2.grid.r_max)
    h = min(p1.grid.h, p2.grid.h)
    grid = GridSpec(lo, hi, max(int(round((hi - lo) / h)), 1))
    r = grid.nodes()
    a = np.interp(r, p1.grid.nodes(), p1.u, left=0.0, right=0.0)
    b = np.interp(r, p2.grid.nodes(), p2.u, left=0.0, right=0.0)
    return float(node_weights(grid) @ np.abs(a - b))


def profile_to_csv(p: ProfilePair, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["r", "u", "v"])
        for r, uu, vv in zip(p.grid.nodes(), p.u, p.v):
            wr.writerow([f"{r:.12g}", f"{uu:.12g}", f"{vv:.12g}"])
