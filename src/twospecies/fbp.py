"""Free-boundary reference solution and Monte Carlo validation.

The reference pair (u, v) solves two coupled heat equations with absorption
at moving boundaries and point sources riding on them: u is absorbed at its
right edge U_t and fed at v's left edge V_t at rate kappa, and v is the
mirror image.  The solver reuses the deterministic barrier iterations at a
fine time step; the bracket between the lower and upper variants bounds the
scheme error.  Monte Carlo validation checks the probabilistic
representation of u (absorbed Brownian paths plus a boundary source) and the
global absorbed-mass identity, both from one set of simulated paths.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import macro
# iterate_barriers is not called here; it stays importable as
# fbp.iterate_barriers, a binding the bench tracer replaces by name
from .macro import (GridSpec, ProfileError, ProfilePair, iterate_barriers,
                    l1_distance_u, node_weights, resample, step_count,
                    tail_integral)


class FbpError(ProfileError):
    pass


# Supports end where the density falls to EDGE_FRAC of the pair's peak (the
# boundaries and mc_validate's intervals alike); near-edge lines fit
# _FIT_CELLS cells ending _FIT_SKIP cells inside the edge; mc_validate
# checks N_INTERVALS equal-mass intervals per side.
EDGE_FRAC = 1e-6
_FIT_CELLS, _FIT_SKIP = 5, 2
N_INTERVALS = 10


# ---------------------------------------------------------------------------
# boundary curves


@dataclass
class BoundaryCurves:
    """Sampled free boundaries: U (right edge of u), V (left edge of v)."""

    times: np.ndarray
    U: np.ndarray
    V: np.ndarray

    def U_at(self, t):
        return np.interp(t, self.times, self.U)

    def V_at(self, t):
        return np.interp(t, self.times, self.V)

    def mirrored(self) -> "BoundaryCurves":
        """The curves of the mirrored pairs (`ProfilePair.mirrored`)."""
        return BoundaryCurves(self.times, -self.V, -self.U)


def _right_edge(f: np.ndarray, grid: GridSpec, thr: float) -> float:
    """Rightmost threshold crossing of f, linearly interpolated; NaN when f
    never exceeds thr."""
    supp = macro.support(f > thr)
    if supp is None:
        return math.nan
    j = supp[1]
    node = grid.node(j)
    if j == grid.n_nodes - 1:
        return node
    lam = (f[j] - thr) / max(f[j] - f[j + 1], 1e-300)
    return float(node + lam * grid.h)


def support_edges(p: ProfilePair) -> tuple[float, float]:
    """Unchecked support edges (U, V) of a pair: U is where u last exceeds
    EDGE_FRAC times the pair's peak, V where v first does (U of the
    mirror); NaN for an empty support."""
    peak = max(float(p.u.max(initial=0.0)), float(p.v.max(initial=0.0)))
    thr = EDGE_FRAC * peak
    return (_right_edge(p.u, p.grid, thr),
            -_right_edge(p.v[::-1], p.grid.mirrored(), thr))


def extract_boundaries(times, edges) -> BoundaryCurves:
    """Boundary curves from the `support_edges` (U_t, V_t) at each time.

    An empty support or crossed edges (V_t >= U_t) raise at the first time
    they occur.
    """
    times = np.asarray(times, float)
    edges = np.asarray(edges, float)
    U, V = edges[:, 0].copy(), edges[:, 1].copy()
    bad = ~(V < U)
    if bad.any():
        k = int(bad.argmax())
        if math.isnan(U[k]) or math.isnan(V[k]):
            raise FbpError("empty support while extracting a boundary")
        raise FbpError(f"boundaries crossed at t={times[k]}: "
                       f"V={V[k]} >= U={U[k]}")
    return BoundaryCurves(times, U, V)


def _edge_line(f: np.ndarray, grid: GridSpec, edge: float) -> np.ndarray:
    """(slope, intercept) of the least-squares line through f on the
    _FIT_CELLS cells that end _FIT_SKIP cells inside its right edge; NaN for
    a NaN edge or when the grid leaves no room for the fit."""
    hi = -1 if math.isnan(edge) else grid.cell(edge) - _FIT_SKIP
    lo = hi - _FIT_CELLS
    if lo < 0:
        return np.full(2, math.nan)
    # on equally spaced nodes the slope weighs each sample by its offset c
    # from the middle node, and the line passes through the window means
    y = f[lo:hi + 1]
    c = np.arange(_FIT_CELLS + 1) - _FIT_CELLS / 2
    slope = (c @ y) / ((c @ c) * grid.h)
    return np.array([slope, y.mean() - slope * grid.node(lo + _FIT_CELLS / 2)])


# ---------------------------------------------------------------------------
# reference solution


@dataclass
class FbpSolution:
    """The lower ('minus') and upper ('plus') barrier families, recorded
    step by step.

    Every step keeps the bracket width, the unchecked support edges of the
    lower variant and its near-edge lines; whole pairs are kept only at the
    steps in `kept` (0, the last step and the requested times).  The
    boundaries are a view of the edges; the refined boundaries and the
    fluxes are views of the edges and of `edge_lines`.
    """

    # the arrays and profiles are left out of the repr: they run to kilobytes
    kappa: float
    delta: float
    times: np.ndarray = field(repr=False)
    kept: list[int]
    minus: list[ProfilePair] = field(repr=False)
    plus: list[ProfilePair] = field(repr=False)
    # L1 distance between the u components of the two variants
    bracket_widths: np.ndarray = field(repr=False)
    # edges[k] = support_edges(minus at step k)
    edges: np.ndarray = field(repr=False)
    # edge_lines[k, 0] = u's `_edge_line` (slope, intercept) at U,
    # edge_lines[k, 1] the mirrored v's at -V, in the lower variant at step
    # k; NaN where a line has no room
    edge_lines: np.ndarray = field(repr=False)

    def index_at(self, t: float) -> int:
        """Step of time t, under `macro.step_count`'s tolerance."""
        k = _step_count(t, self.delta)
        if k >= len(self.times):
            raise FbpError(f"time {t} is past the last stored step")
        return k

    def profile_at(self, t: float) -> ProfilePair:
        """Midpoint of the two variants at a kept time."""
        k = self.index_at(t)
        if k not in self.kept:
            raise FbpError(f"time {t} was not kept by the solve")
        i = self.kept.index(k)
        return _midpoint(self.minus[i], self.plus[i])

    @cached_property
    def boundaries(self) -> BoundaryCurves:
        """Support edges of the lower-variant profiles."""
        return extract_boundaries(self.times, self.edges)

    @cached_property
    def refined_boundaries(self) -> BoundaryCurves:
        """`refined_boundary_curves(self)`, computed once for both sides."""
        return refined_boundary_curves(self)


def _step_count(T: float, delta: float) -> int:
    """`macro.step_count`, its error raised as an FbpError."""
    try:
        return step_count(T, delta)
    except ProfileError as exc:
        raise FbpError(str(exc)) from None


def _midpoint(lo: ProfilePair, hi: ProfilePair) -> ProfilePair:
    """Midpoint of a lower and an upper variant, on the lower's grid."""
    hi = resample(hi, lo.grid)
    return ProfilePair(lo.grid, 0.5 * (lo.u + hi.u), 0.5 * (lo.v + hi.v))


def _lockstep(initial: ProfilePair, kappa: float, n: int, delta: float):
    """Yield (k, lower, upper) for k = 0, ..., n: the lower and upper
    barrier iterations from `initial` in steps of delta, lower first in each
    step.  A transfer that would exhaust a species raises
    `AnnihilationError`."""
    lo = hi = initial
    yield 0, lo, hi
    for k in range(1, n + 1):
        # through macro's namespace, where the bench tracer binds the step
        lo = macro.barrier_step(lo, delta, kappa, "minus")
        hi = macro.barrier_step(hi, delta, kappa, "plus")
        yield k, lo, hi


def solve_reference(initial: ProfilePair, kappa: float, T: float, delta: float,
                    keep=()) -> FbpSolution:
    """Run the lower and upper barrier iterations up to T in steps of delta,
    in lockstep, lower first.

    Each step is recorded as `FbpSolution` says; the pairs at 0, at T and
    at the times in `keep` (multiples of delta up to T) are kept whole.  A
    transfer that would exhaust a species raises `AnnihilationError`.
    """
    n = _step_count(T, delta)
    steps = {0, n}
    for t in keep:
        k = _step_count(t, delta)
        if k > n:
            raise FbpError(f"time {t} to keep is past T={T}")
        steps.add(k)
    kept = sorted(steps)
    widths = np.empty(n + 1)
    edges = np.empty((n + 1, 2))
    lines = np.empty((n + 1, 2, 2))
    minus, plus = [], []
    for k, lo, hi in _lockstep(initial, kappa, n, delta):
        widths[k] = l1_distance_u(lo, hi)
        edges[k] = U, V = support_edges(lo)
        lines[k] = (_edge_line(lo.u, lo.grid, U),
                    _edge_line(lo.v[::-1], lo.grid.mirrored(), -V))
        if k in kept:
            minus.append(lo)
            plus.append(hi)
    return FbpSolution(kappa, delta, delta * np.arange(n + 1), kept, minus,
                       plus, widths, edges, lines)


def reference_profile(initial: ProfilePair, kappa: float, T: float,
                      delta: float) -> ProfilePair:
    """`solve_reference(initial, kappa, T, delta).profile_at(T)`, bit for
    bit, without recording the steps before T."""
    for _, lo, hi in _lockstep(initial, kappa, _step_count(T, delta), delta):
        pass
    return _midpoint(lo, hi)


# ---------------------------------------------------------------------------
# boundary flux


def _outward_flux(slopes: np.ndarray) -> np.ndarray:
    """Outward flux -f_r/2 from near-edge line slopes; NaN ones raise."""
    if np.isnan(slopes).any():
        raise FbpError("not enough interior nodes for the flux fit")
    return -0.5 * slopes


def flux_series(sol: FbpSolution, t_lo: float, t_hi: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary fluxes of u and v from the lower-variant profiles at every
    stored step in [t_lo, t_hi]."""
    bd = sol.boundaries
    sel = (bd.times >= t_lo - 1e-12) & (bd.times <= t_hi + 1e-12)
    fu, fv = _outward_flux(sol.edge_lines[sel, :, 0]).T
    return bd.times[sel], fu, fv


def refined_boundary_curves(sol: FbpSolution) -> BoundaryCurves:
    """Absorption boundaries corrected for the cut-off strip.

    The support edge of a sharp-cut profile sits about sqrt(2*kappa*delta /
    slope) inside the limiting free boundary, because the cut removes the
    tail chunk that the limit profile still carries.  Extrapolating the
    near-edge linear piece to zero cancels that offset, so the refined
    curves converge at rate delta instead of sqrt(delta).  Where a near-edge
    line does not fall (or is NaN), the raw edge stays."""
    bd = sol.boundaries
    # columns: u's right edge, and v's in the mirrored frame
    edge = np.stack([bd.U, -bd.V], axis=1)
    slope, icept = sol.edge_lines[..., 0], sol.edge_lines[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        zero = np.minimum(np.maximum(edge, -icept / slope), edge + 0.5)
    refined = np.where(slope < 0, zero, edge)
    return BoundaryCurves(bd.times.copy(), refined[:, 0], -refined[:, 1])


# ---------------------------------------------------------------------------
# absorbed Brownian paths


def simulate_absorbed(starts_x: np.ndarray, starts_t: np.ndarray, t_end: float,
                      upper, dt: float, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Brownian paths with absorption at a moving upper boundary.

    `upper` maps (an array of) times to boundary values.  Paths activate at
    the first grid time at or after their start times.  The Gaussian
    increments are exact, and the crossing probability of the Brownian
    bridge between grid points, exp(-2(a1-x1)(a2-x2)/dt), is exact for a
    boundary linear on each step.  Each step works on a compact slice of
    the live paths and skips `exp` where it underflows to 0.  Returns
    (final positions, absorbed flags).
    """
    x = np.asarray(starts_x, dtype=float).copy()
    starts_t = np.asarray(starts_t, dtype=float)
    n_steps = _step_count(t_end, dt)
    grid_t = dt * np.arange(n_steps + 1)
    bvals = np.asarray(upper(grid_t), dtype=float)
    start_idx = np.clip(np.ceil(starts_t / dt - 1e-12).astype(int), 0, n_steps)
    absorbed = np.zeros(len(x), dtype=bool)
    # paths by activation step, ascending index within a step
    order = np.argsort(start_idx, kind="stable")
    first = np.searchsorted(start_idx, np.arange(n_steps + 1), sorter=order)
    # the live slice: unabsorbed active paths in ascending index (the order
    # the normals are drawn in) and their positions
    live = np.empty(0, dtype=order.dtype)
    xl = np.empty(0)
    sqrt_dt = math.sqrt(dt)
    # exp(-2 g/dt) with g = (a1-x1)(a2-x2) is exactly 0 (and u < 0 never
    # holds) unless g < 373 dt; the margin covers the rounding of the test
    near_g = 373.0 * dt * (1.0 + 1e-9)
    # an empty slice is stepped too: size-0 draws keep rng's state
    for k in range(n_steps):
        new = order[first[k]:first[k + 1]]
        # np.insert copies and makes temporaries the size of `new`
        if len(live) == 0:
            live, xl = new, x[new]
        elif len(new):
            at = np.searchsorted(live, new)
            live = np.insert(live, at, new)
            xl = np.insert(xl, at, x[new])
        a1, a2 = bvals[k], bvals[k + 1]
        x2 = sqrt_dt * rng.standard_normal(len(live))
        x2 += xl
        hit = np.flatnonzero(x2 >= a2)
        # u is drawn for the paths not hit, in order
        u = rng.random(len(live) - len(hit))
        g = a1 - xl
        g *= a2 - x2
        g[hit] = np.inf
        near = np.flatnonzero(g < near_g)
        crossed = near[u[near - np.searchsorted(hit, near)]
                       < np.exp(-2.0 * g[near] / dt)]
        hit = np.concatenate([hit, crossed])
        if len(hit):
            gone = live[hit]
            x[gone] = x2[hit]
            absorbed[gone] = True
            live = np.delete(live, hit)
            x2 = np.delete(x2, hit)
        xl = x2
    x[live] = xl
    return x, absorbed


def absorption_prob_const(r0: float, a: float, t: float) -> float:
    """Reflection-principle probability that a path from r0 reaches the
    constant level a by time t: 1 from at or above the level, 0 at t = 0
    from below it."""
    if t < 0:
        raise FbpError(f"time t={t} must be nonnegative")
    if r0 >= a:
        return 1.0
    if t == 0:
        return 0.0
    return 2.0 * (1.0 - 0.5 * (1.0 + math.erf((a - r0) / math.sqrt(2.0 * t))))


def binomial_var(p_hat: float, n: int, weight: float = 1.0) -> float:
    """Variance of weight * p_hat for a proportion (or an array of them)
    p_hat of n trials.  p_hat is clipped to [1/(n+1), n/(n+1)], so a count
    of 0 or n keeps a nonzero standard error; any other count is as it is."""
    p = np.clip(p_hat, 1 / (n + 1), n / (n + 1))
    return weight**2 * p * (1 - p) / n


def constant_boundary_check(r0: float, a: float, t: float, n_paths: int,
                            dt: float, rng: np.random.Generator
                            ) -> tuple[float, float, float]:
    """(MC estimate, exact value, standard error) of the hitting probability;
    used as a correctness gate before trusting moving-boundary runs."""
    _, absorbed = simulate_absorbed(np.full(n_paths, r0), np.zeros(n_paths),
                                    t, lambda ts: np.full_like(ts, a), dt, rng)
    p = float(np.mean(absorbed))
    se = math.sqrt(binomial_var(p, n_paths))
    return p, absorption_prob_const(r0, a, t), se


# ---------------------------------------------------------------------------
# Monte Carlo validation of the representation


def _sample_from_density(f: np.ndarray, grid: GridSpec, n: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw n points with density proportional to the node-sampled f, uniform
    within each node's weight cell."""
    w = node_weights(grid) * np.asarray(f, float)
    w = np.clip(w, 0.0, None)
    idx = rng.choice(grid.n_nodes, size=n, p=w / w.sum())
    return grid.node(idx) + grid.h * (rng.random(n) - 0.5)


def _z(estimate: float, target: float, se: float) -> float:
    return (estimate - target) / np.maximum(se, 1e-300)


def _side_data(sol: FbpSolution, side: str, t: float
               ) -> tuple[ProfilePair, BoundaryCurves, ProfilePair]:
    """Initial pair, refined boundaries and reference pair at time t, in the
    frame where `side` is u: absorbed at the right edge U and fed at V.  The
    v side is the u side of the mirrored problem."""
    if side not in ("u", "v"):
        raise FbpError(f"side must be 'u' or 'v', got {side!r}")
    p0, bd, ref = sol.minus[0], sol.refined_boundaries, sol.profile_at(t)
    if side == "v":
        return p0.mirrored(), bd.mirrored(), ref.mirrored()
    return p0, bd, ref


def mc_validate(sol: FbpSolution, t: float, n_paths: int,
                rng: np.random.Generator, side: str = "u", *,
                dt: float) -> dict:
    """Compare interval masses of the reference profile at time t with the
    path representation: surviving paths from the initial datum plus
    surviving paths injected at the partner's boundary at uniform times
    (Fubini weight kappa*t).  Also checks the absorbed-mass identity.

    Returns the report entry: `side`, `t`, `max_abs_z` (the largest |z| of
    the intervals), `mass` (`t`, `target` kappa*t, `estimate`, `se`, `z`)
    and `intervals` (`r_lo`, `r_hi`, `reference`, `estimate`, `se`, `z`
    each), z the estimate's distance from its target in standard errors.
    """
    p0, bd, ref = _side_data(sol, side, t)
    mass0 = p0.mass_u
    kappa_t = sol.kappa * t

    n0 = n_paths
    ns = max(n_paths // 2, 1)
    x0 = _sample_from_density(p0.u, p0.grid, n0, rng)
    xf0, ab0 = simulate_absorbed(x0, np.zeros(n0), t, bd.U_at, dt, rng)
    s = t * rng.random(ns)
    xfs, abs_ = simulate_absorbed(bd.V_at(s), s, t, bd.U_at, dt, rng)

    # reference interval masses on the midpoint profile, from u's left
    # support edge to the refined boundary; the intervals carry equal
    # reference mass so no bin is starved of paths
    peak = max(float(ref.u.max()), float(ref.v.max()))
    r_lo = -_right_edge(ref.u[::-1], ref.grid.mirrored(), EDGE_FRAC * peak)
    r_hi = float(bd.U_at(t))
    top, bottom = tail_integral(ref.u, ref.grid, [r_lo, r_hi])
    levels = top - (top - bottom) * np.arange(1, N_INTERVALS) / N_INTERVALS
    edges = np.array([r_lo, *(macro.invert_tail(ref.u, ref.grid, m)
                              for m in levels), r_hi])
    tails = tail_integral(ref.u, ref.grid, edges)
    ref_mass = tails[:-1] - tails[1:]

    # survivors counted on the half-open intervals [a, b)
    c0, cs = (np.histogram(xf[~ab & (xf < r_hi)], edges)[0]
              for xf, ab in ((xf0, ab0), (xfs, abs_)))
    est = mass0 / n0 * c0 + kappa_t / ns * cs
    se = np.sqrt(binomial_var(c0 / n0, n0, mass0)
                 + binomial_var(cs / ns, ns, kappa_t))
    z = _z(est, ref_mass, se)
    # reported in the original r, where the mirrored [a, b) is (-b, -a]
    lo, hi = edges[:-1], edges[1:]
    if side == "v":
        lo, hi = -hi, -lo
    keys = ("r_lo", "r_hi", "reference", "estimate", "se", "z")
    intervals = [dict(zip(keys, map(float, row)))
                 for row in zip(lo, hi, ref_mass, est, se, z)]

    pa0 = float(np.mean(ab0))
    pas = float(np.mean(abs_))
    est_mass = mass0 * pa0 + kappa_t * pas
    se_mass = math.sqrt(binomial_var(pa0, n0, mass0)
                        + binomial_var(pas, ns, kappa_t))
    return {
        "side": side,
        "t": t,
        "max_abs_z": float(np.abs(z).max()),
        "mass": {"t": t, "target": kappa_t, "estimate": est_mass,
                 "se": se_mass, "z": _z(est_mass, kappa_t, se_mass)},
        "intervals": intervals,
    }


# ---------------------------------------------------------------------------
# export


def boundaries_to_csv(bd: BoundaryCurves, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "U", "V"])
        for t, u_, v_ in zip(bd.times, bd.U, bd.V):
            wr.writerow([f"{t:.12g}", f"{u_:.12g}", f"{v_:.12g}"])


def solution_summary(sol: FbpSolution) -> dict:
    return {
        "kappa": sol.kappa,
        "delta": sol.delta,
        "n_steps": len(sol.times) - 1,
        # a solve that exhausts a species raises instead of returning
        "annihilated": False,
        "final_bracket_width": float(sol.bracket_widths[-1]),
        "U_final": float(sol.boundaries.U[-1]),
        "V_final": float(sol.boundaries.V[-1]),
    }


def solution_summary_json(sol: FbpSolution, path) -> None:
    with open(path, "w") as fh:
        json.dump(solution_summary(sol), fh, indent=2)
