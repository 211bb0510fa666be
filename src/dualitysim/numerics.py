"""Shared numerics: level-wise adaptive Simpson quadrature, vectorized
monotone inversion, the thread pool that runs a run's chunks, and the C
library's ``log`` and ``acos`` on arrays."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

import numpy as np


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _new_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=_cpu_count(), thread_name_prefix="dualitysim")


#: one worker per CPU this process may run on; its tasks (a run's chunks) are
#: leaf work, mostly numpy kernels that release the GIL, and never wait on
#: another task, so even a one-worker pool cannot deadlock
_POOL: ThreadPoolExecutor
_new_pool()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the executor object but none of its threads
    os.register_at_fork(after_in_child=_new_pool)


def map_blocks(fn: Callable[[slice], object], n: int, block: int) -> list:
    """``[fn(s) for s in slices]`` over the fixed blocks ``[0, block)``,
    ``[block, 2 block)``, ... of ``range(n)``.

    The blocks depend on ``n`` and ``block`` only, never on the worker count.
    Two or more blocks run on the shared pool; once all have finished, the
    first exception in block order is raised, as a serial loop would raise it.
    Call it from outside the pool: a pool task waiting on blocks could
    deadlock a one-worker pool.
    """
    blocks = [slice(start, start + block) for start in range(0, n, block)]
    if len(blocks) < 2:
        return [fn(s) for s in blocks]
    futures = [_POOL.submit(fn, s) for s in blocks]
    wait(futures)
    return [f.result() for f in futures]


def libm(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` (``np.log`` or ``np.arccos``) of a 1-D float64 array, with
    the bits of the C library's ``log`` or ``acos`` on every CPU.

    numpy runs both on AVX-512 kernels where the CPU has them, and their last
    bit differs from the C library's: ``log`` in 1 to 2 lanes in 10,000,
    ``arccos`` in about 9 in 100 on uniform levels. numpy takes its
    C-library loop instead when the output overlaps the input at an offset,
    so ``x`` is copied one element up a buffer and the result is written one
    element below, over it. That fallback is numpy's dispatch rule, not its
    documented API (checked with numpy 2.4): ``tests/test_numerics.py`` shows
    it wherever numpy reports AVX-512.
    """
    buf = np.empty(x.size + 1)
    buf[1:] = x
    ufunc(buf[1:], out=buf[:-1])
    return buf[:-1]


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 60,
) -> float:
    """Adaptive Simpson quadrature of a vectorized ``f`` over [a, b].

    Panels are split until the local Richardson estimate drops below the
    budgeted tolerance (halved per level), and each accepted panel adds its
    Richardson-corrected estimate. The panel tree is built one level at a
    time, with one call of ``f`` on every new point of the level; the
    accepted panels are then summed right to left, the order of a
    depth-first walk that visits the right half first. ``f`` must be finite
    on [a, b].
    """
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")

    def simpson(lo, flo, hi, fhi, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def halves(split: np.ndarray, left_half: np.ndarray, right_half: np.ndarray) -> np.ndarray:
        # the split panels' children, each left half followed by its right half
        return np.stack((left_half[split], right_half[split]), axis=1).ravel()

    # one level's panels, left to right: ends, midpoints, f there, and the panel's Simpson estimate
    points = np.array([a, 0.5 * (a + b), b])
    lo, mid, hi = np.split(points, 3)
    flo, fmid, fhi = np.split(np.asarray(f(points), dtype=float), 3)
    coarse = simpson(lo, flo, hi, fhi, fmid)
    budget = float(tol)
    # per level: each panel's corrected estimate, and the index of its first
    # child on the next level (-1 for an accepted panel)
    levels: list[tuple[list[float], list[int]]] = []
    for depth in range(max_depth + 1):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        fl, fr = np.split(np.asarray(f(np.concatenate((lm, rm))), dtype=float), 2)
        left = simpson(lo, flo, mid, fmid, fl)
        right = simpson(mid, fmid, hi, fhi, fr)
        err = left + right - coarse
        # written so that a NaN error splits, as the accept test of a scalar loop would
        split = ~(np.abs(err) <= 15.0 * budget) & (depth < max_depth)
        first_child = np.where(split, 2 * np.cumsum(split) - 2, -1)
        levels.append(((left + right + err / 15.0).tolist(), first_child.tolist()))
        if not split.any():
            break
        lo, mid, hi = halves(split, lo, mid), halves(split, lm, rm), halves(split, mid, hi)
        flo, fmid, fhi = halves(split, flo, fmid), halves(split, fl, fr), halves(split, fmid, fhi)
        coarse = halves(split, left, right)
        budget *= 0.5
    # depth first, right half first
    total = 0.0
    stack = [(0, 0)]
    while stack:
        depth, i = stack.pop()
        values, first_child = levels[depth]
        k = first_child[i]
        if k < 0:
            total += values[i]
        else:
            stack.append((depth + 1, k))
            stack.append((depth + 1, k + 1))
    return total


def invert_monotone(
    f: Callable[[np.ndarray], np.ndarray],
    targets: np.ndarray,
    lo,
    hi,
    tol: float = 1e-13,
    fprime: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    max_iter: int = 200,
) -> np.ndarray:
    """Solve ``f(x) = target`` lane-wise for a nondecreasing vectorized ``f``.

    ``lo``/``hi`` bracket each root (scalars or arrays). Newton steps, when a
    derivative is supplied, are accepted only inside the shrinking bisection
    bracket, so flat spots of ``f`` cannot stall convergence. Returns ``x``
    with ``|f(x) - target| <= tol`` in every lane.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    lo_a = np.broadcast_to(np.asarray(lo, dtype=float), t.shape)
    hi_a = np.broadcast_to(np.asarray(hi, dtype=float), t.shape)
    if x0 is None:
        x = 0.5 * (lo_a + hi_a)
    else:
        x = np.clip(np.broadcast_to(np.asarray(x0, dtype=float), t.shape), lo_a, hi_a)

    res = np.asarray(f(x)) - t
    # the unconverged lanes, gathered once and shrunk as they converge
    idx = np.flatnonzero(np.abs(res) > tol)
    xi, ri, ti, lo_i, hi_i = x[idx], res[idx], t[idx], lo_a[idx], hi_a[idx]
    for _ in range(max_iter):
        if idx.size == 0:
            break
        # the bracket shrinks to the side of x its residual shows; the step goes
        # to the Newton point where that falls inside the bracket, else to its midpoint
        above = ri > 0.0
        np.copyto(hi_i, xi, where=above)
        np.copyto(lo_i, xi, where=~above)
        mid = 0.5 * (lo_i + hi_i)
        if fprime is not None:
            fp = np.asarray(fprime(xi), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                xn = xi - ri / fp
            bad = ~np.isfinite(xn) | (xn <= lo_i) | (xn >= hi_i) | (fp <= 0.0)
            xi = np.where(bad, mid, xn)
        else:
            xi = mid
        ri = np.asarray(f(xi)) - ti
        keep = np.abs(ri) > tol
        x[idx[~keep]] = xi[~keep]
        idx, xi, ri, ti, lo_i, hi_i = idx[keep], xi[keep], ri[keep], ti[keep], lo_i[keep], hi_i[keep]
    if idx.size:
        worst = float(np.max(np.abs(ri)))
        raise ArithmeticError(f"monotone inversion failed to reach tol={tol} (worst residual {worst:.3e})")
    return x if np.ndim(targets) else x[0]
