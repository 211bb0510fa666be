"""Blocked work on the shared pool gives the bits of an unblocked serial evaluation.

Wave ``ppf`` and the classifier's per-impact contributions run in fixed blocks
on ``numerics``' thread pool, and ``_assemble`` hashes the event log there
while the subsets classify. These tests compare both against whole-array
references at sizes around the block boundaries, check that errors surface as
the serial path raises them, and check that no report depends on the number
of workers.
"""

import contextlib
import hashlib
import math
import multiprocessing
import queue
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from dualitysim import numerics, optics, stats
from dualitysim.cli import canonical_json
from dualitysim.numerics import invert_monotone, map_blocks
from dualitysim.optics import (
    SAMPLER_CDF_TOL,
    DomainError,
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
)
from dualitysim.protocols import RunResult, run_protocol
from dualitysim.stats import DENSITY_FLOOR_FRACTION, VERDICT_LLR_THRESHOLD, classify_pattern

from test_golden import GOLDEN, matrix

PPF_B = optics._PPF_BLOCK
CLS_B = stats._CLASSIFY_BLOCK
DEFAULT = OpticsConfig()
ENVELOPE = OpticsConfig(envelope_enabled=True)


def _sizes(block: int) -> list[int]:
    return [0, 1, block - 1, block, block + 1, 3 * block + 7]


def _serial_ppf(dist: PatternDistribution, u: np.ndarray) -> np.ndarray:
    """The wave sampler as one whole-array inversion."""
    xs, _ = dist._quantile_table
    cell, x0 = dist._start_points(u)
    return invert_monotone(
        dist._cdf_raw, u, lo=xs[cell], hi=xs[cell + 1], tol=SAMPLER_CDF_TOL, fprime=dist._density_raw, x0=x0
    )


def _serial_llr(x, cfg, phase, restrict_to=None, threshold=VERDICT_LLR_THRESHOLD) -> float:
    """The classifier's statistic with every density taken over the whole array."""
    wave = PatternDistribution(PatternKind.WAVE, cfg, phase)
    particle = PatternDistribution(PatternKind.PARTICLE, cfg)
    w = np.asarray(wave.density(x), dtype=float)
    p = np.asarray(particle.density(x), dtype=float)
    if restrict_to is not None:
        w = w / wave.mass(restrict_to)
        p = p / particle.mass(restrict_to)
    floor = DENSITY_FLOOR_FRACTION / cfg.window_width_m
    per_sample = np.clip(np.log(np.maximum(w, floor)) - np.log(np.maximum(p, floor)), -threshold, threshold)
    return float(np.sum(per_sample))


@contextlib.contextmanager
def _pool_of(workers: int):
    """The shared pool replaced by one of ``workers`` threads, switching often."""
    executor = ThreadPoolExecutor(max_workers=workers)
    saved_pool, numerics._POOL = numerics._POOL, executor
    saved_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(saved_interval)
        numerics._POOL = saved_pool
        executor.shutdown()


@pytest.fixture(params=[1, 3], ids=["1-worker", "3-workers"])
def pool(request):
    with _pool_of(request.param):
        yield request.param


class TestMapBlocks:
    def test_blocks_are_fixed_and_in_order(self, pool):
        seen = map_blocks(lambda s: (s.start, s.stop), 10, 4)
        assert seen == [(0, 4), (4, 8), (8, 12)]
        assert map_blocks(lambda s: s, 0, 4) == []

    def test_first_error_in_block_order_is_raised(self, pool):
        def fail_late(s):
            if s.start >= 4:
                raise ValueError(f"block at {s.start}")

        with pytest.raises(ValueError, match="block at 4"):
            map_blocks(fail_late, 12, 4)


class TestPpfBlocks:
    @pytest.mark.parametrize("cfg", [DEFAULT, ENVELOPE], ids=["uniform", "envelope"])
    @pytest.mark.parametrize("phase", [0.0, math.pi / 2], ids=["phase0", "phase_half_pi"])
    @pytest.mark.parametrize("size", _sizes(PPF_B))
    def test_matches_whole_array_inversion(self, pool, cfg, phase, size):
        dist = PatternDistribution(PatternKind.WAVE, cfg, phase)
        u = np.random.default_rng(size).random(size)
        got = dist.ppf(u)
        assert got.shape == (size,)
        np.testing.assert_array_equal(got, _serial_ppf(dist, u) if size else u)

    def test_keeps_the_input_shape(self, pool):
        dist = PatternDistribution(PatternKind.WAVE, DEFAULT)
        u = np.random.default_rng(5).random((3, PPF_B + 1))
        np.testing.assert_array_equal(dist.ppf(u), _serial_ppf(dist, u.ravel()).reshape(u.shape))


class TestClassifierBlocks:
    @pytest.mark.parametrize("cfg", [DEFAULT, ENVELOPE], ids=["uniform", "envelope"])
    @pytest.mark.parametrize("phase", [0.0, math.pi / 2], ids=["phase0", "phase_half_pi"])
    @pytest.mark.parametrize("size", _sizes(CLS_B)[1:])
    def test_matches_whole_array_sum(self, pool, cfg, phase, size):
        lo, hi = cfg.window
        x = np.random.default_rng(size).uniform(lo, hi, size)
        result = classify_pattern(x, cfg, phase_offset_rad=phase)
        assert result.log_likelihood_ratio == _serial_llr(x, cfg, phase)
        assert result.n_samples == size

    @pytest.mark.parametrize("cfg", [DEFAULT, ENVELOPE], ids=["uniform", "envelope"])
    @pytest.mark.parametrize("size", _sizes(CLS_B)[1:])
    def test_restricted_matches_whole_array_sum(self, pool, cfg, size):
        region = IntervalSet.from_pairs([(-1e-4, 0.0), (0.1e-3, 0.3e-3)], window=cfg.window)
        u = np.random.default_rng(size).random(size)
        # half the impacts in each interval
        x = np.where(u < 0.5, -1e-4 + 2e-4 * u, 0.1e-3 + 0.4e-3 * (u - 0.5))
        assert np.all(region.contains(x))
        result = classify_pattern(x, cfg, phase_offset_rad=0.3, restrict_to=region)
        assert result.log_likelihood_ratio == _serial_llr(x, cfg, 0.3, restrict_to=region)

    def test_out_of_window_sample_in_a_later_block_raises_the_serial_text(self, pool):
        lo, hi = DEFAULT.window
        x = np.random.default_rng(3).uniform(lo, hi, 3 * CLS_B + 7)
        x[2 * CLS_B + 5] = 2.0 * hi
        x[3 * CLS_B + 1] = 2.0 * lo
        with pytest.raises(DomainError) as serial:
            PatternDistribution(PatternKind.WAVE, DEFAULT).density(x)
        with pytest.raises(DomainError) as blocked:
            classify_pattern(x, DEFAULT)
        assert str(blocked.value) == str(serial.value)


#: golden cases whose runs take the pool's blocked paths, at a size spanning several blocks
WORKER_CASES = [
    "quantum_eraser-collapse",
    "quantum_eraser-render",
    "quantum_eraser-envelope-render",
    "quantum_eraser-greedy-render",
    "predictor-render",
    "switch-d-i-empty-render",
    "switch-d-i-custom-render",
    "perishable-b-indistinguishable-render",
    "perishable-b-empty-collapse",
]
N_BLOCKS = 3 * max(PPF_B, CLS_B) + 7


def _outcomes(workers: int, names: list[str], n: int | None) -> dict[str, tuple]:
    cases = matrix()
    out = {}
    with _pool_of(workers):
        for name in names:
            cfg = cases[name] if n is None else replace(cases[name], n_pairs=n)
            outcome = run_protocol(cfg)
            text = canonical_json(outcome).encode()
            out[name] = (outcome.event_digest if isinstance(outcome, RunResult) else None, text)
    return out


def _with_timeout(fn, seconds: float = 120.0):
    """Run ``fn`` on a fresh thread; fail instead of hanging if it never returns."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the test's thread below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s: the pool deadlocked"
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_reports_do_not_depend_on_the_worker_count():
    one = _with_timeout(lambda: _outcomes(1, WORKER_CASES, N_BLOCKS))
    three = _outcomes(3, WORKER_CASES, N_BLOCKS)
    for name in WORKER_CASES:
        assert one[name][0] == three[name][0], name
        assert one[name][1] == three[name][1], name


def test_one_worker_reproduces_the_golden_pins():
    got = _with_timeout(lambda: _outcomes(1, WORKER_CASES, None))
    for name, (digest, text) in got.items():
        assert (digest, hashlib.sha256(text).hexdigest()) == GOLDEN[name], name


def _forked_ppf(results) -> None:
    u = np.linspace(0.0, 1.0, 2 * PPF_B)
    results.put(float(PatternDistribution(PatternKind.WAVE, DEFAULT).ppf(u).sum()))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_a_forked_child_gets_a_working_pool():
    PatternDistribution(PatternKind.WAVE, DEFAULT).ppf(np.linspace(0.0, 1.0, 2 * PPF_B))  # start the workers
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_forked_ppf, args=(results,))
    child.start()
    try:
        got = results.get(timeout=60)
    except queue.Empty:
        pytest.fail("the forked child hung on the inherited pool")
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    u = np.linspace(0.0, 1.0, 2 * PPF_B)
    assert got == float(PatternDistribution(PatternKind.WAVE, DEFAULT).ppf(u).sum())
