"""Shared numerics against their oracles: monotone inversion's whole-array
first sweep against the lane-indexed loop, and the level-wise adaptive
Simpson rule against the one-panel-at-a-time loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualitysim.numerics import adaptive_simpson, invert_monotone


def _reference_invert(f, targets, lo, hi, tol, fprime, x0, max_iter=200):
    """The lane-indexed loop that also ran the first sweep, kept as the oracle."""
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    lo_a = np.broadcast_to(np.asarray(lo, dtype=float), t.shape).copy()
    hi_a = np.broadcast_to(np.asarray(hi, dtype=float), t.shape).copy()
    x = np.clip(np.broadcast_to(np.asarray(x0, dtype=float), t.shape).copy(), lo_a, hi_a)
    res = np.asarray(f(x)) - t
    idx = np.nonzero(np.abs(res) > tol)[0]
    for _ in range(max_iter):
        if idx.size == 0:
            break
        xi = x[idx]
        ri = res[idx]
        above = ri > 0.0
        hi_a[idx[above]] = xi[above]
        lo_a[idx[~above]] = xi[~above]
        mid = 0.5 * (lo_a[idx] + hi_a[idx])
        if fprime is not None:
            fp = np.asarray(fprime(xi), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                xn = xi - ri / fp
            bad = ~np.isfinite(xn) | (xn <= lo_a[idx]) | (xn >= hi_a[idx]) | (fp <= 0.0)
            xn = np.where(bad, mid, xn)
        else:
            xn = mid
        x[idx] = xn
        res[idx] = np.asarray(f(xn)) - t[idx]
        idx = idx[np.abs(res[idx]) > tol]
    if idx.size:
        raise ArithmeticError("reference inversion failed")
    return x


def _flat_spot(x):
    """Nondecreasing, constant on [-0.25, 0.25], cubic (zero slope at its ends) outside."""
    return np.where(np.abs(x) <= 0.25, 0.0, np.sign(x) * (np.abs(x) - 0.25) ** 3)


def _flat_spot_slope(x):
    return np.where(np.abs(x) <= 0.25, 0.0, 3.0 * (np.abs(x) - 0.25) ** 2)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    newton=st.booleans(),
    start_on_root=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_first_sweep_matches_the_lane_indexed_loop(seed, n, newton, start_on_root):
    rng = np.random.default_rng(seed)
    lo, hi = -1.0, 1.0
    x_true = rng.uniform(lo, hi, n)
    # starts in the flat spot and on its zero-slope ends, where Newton must fall back
    x0 = np.where(rng.random(n) < 0.3, rng.choice([-0.25, 0.0, 0.25, 0.1], n), rng.uniform(lo, hi, n))
    if start_on_root:
        x0[0] = x_true[0]  # one lane already converged: the first sweep gathers
    targets = _flat_spot(x_true)
    fprime = _flat_spot_slope if newton else None
    got = invert_monotone(_flat_spot, targets, lo, hi, tol=1e-13, fprime=fprime, x0=x0)
    want = _reference_invert(_flat_spot, targets, lo, hi, 1e-13, fprime, x0)
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("max_iter", [1, 3])
@pytest.mark.parametrize("newton", [True, False])
def test_exhausted_iterations_raise(newton, max_iter):
    targets = np.array([-0.3, 0.0, 0.2, 0.4])
    fprime = _flat_spot_slope if newton else None
    with pytest.raises(ArithmeticError, match="failed to reach"):
        invert_monotone(_flat_spot, targets, -1.0, 1.0, tol=1e-15, fprime=fprime, x0=np.full(4, 0.9), max_iter=max_iter)


def _stack_simpson(f, a, b, tol=1e-10, max_depth=60):
    """The one-panel-at-a-time stack loop the level-wise rule replaced, kept as its oracle."""

    def simpson(lo, flo, hi, fhi, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    m = 0.5 * (a + b)
    fa, fm, fb = float(f(a)), float(f(m)), float(f(b))
    whole = simpson(a, fa, b, fb, fm)
    stack = [(a, m, b, fa, fm, fb, whole, float(tol), 0)]
    total = 0.0
    while stack:
        lo, mid, hi, flo, fmid, fhi, coarse, budget, depth = stack.pop()
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = float(f(lm))
        frm = float(f(rm))
        left = simpson(lo, flo, mid, fmid, flm)
        right = simpson(mid, fmid, hi, fhi, frm)
        err = left + right - coarse
        if depth >= max_depth or abs(err) <= 15.0 * budget:
            total += left + right + err / 15.0
        else:
            half = 0.5 * budget
            stack.append((lo, lm, mid, flo, flm, fmid, left, half, depth + 1))
            stack.append((mid, rm, hi, fmid, frm, fhi, right, half, depth + 1))
    return total


_INTEGRANDS = {
    "sin": (np.sin, 0.0, math.pi, 1e-12, 60),
    "gaussian": (lambda x: np.exp(-x * x), -3.0, 3.0, 1e-13, 60),
    "kink": (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, 1e-12, 60),
    "fringes": (lambda x: np.cos(40.0 * x) ** 2 * np.exp(-x), 0.0, 2.0, 1e-11, 60),
    # a jump never meets the budget: near 0.001 the panels split down to
    # max_depth; near 1/3 they shrink to zero width first and are accepted there
    "jump": (lambda x: np.where(x < 0.001, 0.0, 1.0), 0.0, 1.0, 1e-12, 60),
    "jump-below-an-ulp": (lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0, 1e-12, 60),
    "shallow": (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, 1e-15, 4),
}


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
def test_level_wise_simpson_matches_the_stack_loop_bit_for_bit(name):
    f, a, b, tol, depth = _INTEGRANDS[name]
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return f(x)

    got = adaptive_simpson(counted, a, b, tol=tol, max_depth=depth)
    want = _stack_simpson(lambda x: float(f(np.array([x]))[0]), a, b, tol=tol, max_depth=depth)
    assert type(got) is float
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
    assert len(calls) <= depth + 2  # the three first points, then one call per level


def test_simpson_reaches_max_depth_on_a_jump():
    calls = []

    def jump(x):
        calls.append(x)
        return np.where(x < 0.001, 0.0, 1.0)

    adaptive_simpson(jump, 0.0, 1.0, tol=1e-12, max_depth=60)
    assert len(calls) == 62  # the root's three points plus levels 0 through 60


def test_simpson_rejects_an_empty_interval():
    with pytest.raises(ValueError, match="a < b"):
        adaptive_simpson(np.sin, 1.0, 1.0)
