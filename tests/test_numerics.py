"""Monotone inversion: the whole-array first sweep against the lane-indexed loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualitysim.numerics import invert_monotone


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
