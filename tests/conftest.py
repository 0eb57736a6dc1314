"""Shared fixtures and random-instance generators for the test suite."""
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from twospecies import macro


def process_left_running() -> bool:
    """True if this process has a child process, running or exited but not
    reaped; the exited ones it finds are reaped."""
    found = False
    try:
        while True:
            pid, _ = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                return True
            found = True
    except ChildProcessError:
        return found


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process running or unreaped, so a
    replica fan-out cannot leak its workers unseen."""
    yield
    if hasattr(os, "WNOHANG"):
        assert not process_left_running(), "the test left a child process"


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(20260823))


def random_class_u_pair(rng, n_cells=None):
    """Random overlapping-tent pair with the interval-support geometry."""
    L = float(rng.uniform(-1.6, -0.8))
    D = float(rng.uniform(-0.2, 0.2))
    R = float(rng.uniform(0.4, 0.8))
    E = float(rng.uniform(1.1, 1.8))
    mass_u = float(rng.uniform(0.5, 2.0))
    mass_v = float(rng.uniform(0.5, 2.0))
    if n_cells is None:
        n_cells = int(rng.integers(160, 240))
    grid = macro.GridSpec(L - 1.0, E + 1.0, n_cells)
    return macro.ProfilePair(grid, macro.tent(grid, L, R, mass_u),
                             macro.tent(grid, D, E, mass_v))


def ordered_pair(rng):
    """(lower, upper) with identical u+v sum and species masses, lower
    dominated by upper: the lower is a cut of the upper.

    The cut only lowers u-tails while its two transfer points stay
    uncrossed, so draws that would cross them are redrawn.
    """
    while True:
        p = random_class_u_pair(rng)
        q = float(rng.uniform(0.02, 0.1)) * min(p.mass_u, p.mass_v)
        cp = macro.cut_points(p, q)
        if cp.D_delta < cp.R_delta:
            return macro.apply_cut(p, q), p


def mod_m_pair(rng):
    """(p1, p2, m) with the u-tails of p1 exceeding those of p2 by at most m
    while sharing u+v and the species masses.

    p1 sits above a base pair (a small upper repair), p2 below it (a small
    cut), so their order defect is bounded by the sum of the two transfers.
    Draws whose repair regions collide or whose cut points cross are
    redrawn.
    """
    while True:
        p = random_class_u_pair(rng)
        m = 0.02 * min(p.mass_u, p.mass_v)
        q1 = float(rng.uniform(0.2, 0.5)) * m
        q2 = m - q1
        cp = macro.cut_points(p, q1)
        if not cp.D_delta < cp.R_delta:
            continue
        try:
            p1 = macro.repair_upper(p, q2, m0=macro.default_m0(p))
        except macro.RepairError:
            continue
        p2 = macro.apply_cut(p, q1)
        return p1, p2, m


# a class-U datum that is not its own mirror image, unlike the default tents
ASYMMETRIC_GRID = macro.GridSpec(-2.0, 3.0, 1000)
ASYMMETRIC = macro.ProfilePair(ASYMMETRIC_GRID,
                               macro.tent(ASYMMETRIC_GRID, -1.2, 0.6, 1.4),
                               macro.tent(ASYMMETRIC_GRID, 0.1, 1.9, 0.7))


@st.composite
def asymmetric_tent_pairs(draw):
    """Overlapping tents L < D < R < E on [-2, 3], with masses drawn apart:
    unlike `macro.tent_pair()`, such a pair is almost never its own mirror
    image."""
    L = draw(st.floats(-1.6, -0.8))
    D = draw(st.floats(-0.3, 0.3))
    R = draw(st.floats(0.45, 0.9))
    E = draw(st.floats(1.2, 2.0))
    mass_u = draw(st.floats(0.5, 2.0))
    mass_v = draw(st.floats(0.5, 2.0))
    return macro.ProfilePair(ASYMMETRIC_GRID,
                             macro.tent(ASYMMETRIC_GRID, L, R, mass_u),
                             macro.tent(ASYMMETRIC_GRID, D, E, mass_v))
