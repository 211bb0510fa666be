"""Statistics separating the interference and structureless screen laws.

Central objects: the posterior probability that a given impact carries a
which-way record, the interval-mass functional
``delta(I) = P_particle[X in I] + P_wave[X not in I]`` whose minimum over
interval sets equals ``1 - TV`` (total variation distance between the two
laws), and a log-likelihood-ratio classifier with sample-size planning via the
Bhattacharyya coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

# adaptive_simpson is not called here; the benchmark tracer patches stats.adaptive_simpson
from .numerics import adaptive_simpson, libm  # noqa: F401
from .optics import (
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
    ValidationError,
    _cos2_integral,
    fringe_aligned_edges,
)

#: verdict threshold for the log-likelihood ratio (posterior odds 999:1)
VERDICT_LLR_THRESHOLD = math.log(999.0)
#: density floor, as a fraction of the uniform level, applied inside the classifier
DENSITY_FLOOR_FRACTION = 1e-12
#: |delta - 1| tolerance under which outcome-(i) generation is exactly consistent
DELTA_FEASIBILITY_TOL = 1e-9
#: impacts per classifier block
_CLASSIFY_BLOCK = 65536


def _pattern_pair(cfg: OpticsConfig) -> tuple[PatternDistribution, PatternDistribution]:
    return (
        PatternDistribution(PatternKind.WAVE, cfg),
        PatternDistribution(PatternKind.PARTICLE, cfg),
    )


def exact_posterior(x, cfg: OpticsConfig):
    """P[record | x] for equal priors, from the two normalized densities."""
    wave, particle = _pattern_pair(cfg)
    w = np.asarray(wave.density(x), dtype=float)
    p = np.asarray(particle.density(x), dtype=float)
    out = p / (p + w)
    return float(out) if np.ndim(x) == 0 else out

def approx_posterior(x, cfg: OpticsConfig):
    """The flat-pattern closed form 1 / (1 + 2 cos^2(pi x / a)); range [1/3, 1]."""
    PatternDistribution(PatternKind.WAVE, cfg)._check_domain(np.asarray(x, dtype=float))
    a = cfg.fringe_scale_m
    out = 1.0 / (1.0 + 2.0 * np.cos(np.pi * np.asarray(x, dtype=float) / a) ** 2)
    return float(out) if np.ndim(x) == 0 else out


# -- interval-mass deficit and total variation --------------------------------


def delta_of_interval_set(iset: IntervalSet, cfg: OpticsConfig) -> float:
    """P_particle[X in I] + P_wave[X not in I]; equals 1 on degenerate sets."""
    iset = IntervalSet.from_pairs(iset.intervals, window=cfg.window)
    wave, particle = _pattern_pair(cfg)
    return particle.mass(iset) + (1.0 - wave.mass(iset))


def _crossing_angles(wave: PatternDistribution, particle: PatternDistribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The particle law's cell edges, and per cell its level h over the wave
    law's peak c, q = h / c, and phi = acos(sqrt(q)) (0 once q >= 1), through
    the C library's acos: c cos^2 t exceeds h where t is within phi of k pi."""
    xs, cdf = particle._cell_table
    q = np.diff(cdf) / (wave._wave_norm * np.diff(xs))
    return xs, q, libm(np.arccos, np.sqrt(np.minimum(q, 1.0)))


def tv_distance(cfg: OpticsConfig) -> float:
    """Total variation distance between the two laws: half the L1 difference.

    In t = pi x / a the laws' densities are s cos^2 t and s q, s the wave
    law's normalization. From a bright centre half of |cos^2 - q| integrates
    to E(u) = A(min(|u|, phi)) - A(|u|) / 2, signed as u, A(u) = (1 - q) u -
    int_0^u sin^2, and over a period to P = sqrt(q (1 - q)) + (1 - 2q)(phi - pi/4).
    A cell adds (j1 - j0) P + E(t1 - j1 pi) - E(t0 - j0 pi), j = round(t / pi).
    """
    wave, particle = _pattern_pair(cfg)
    xs, q, phi = _crossing_angles(wave, particle)
    r = xs / cfg.fringe_scale_m
    j = np.rint(r)
    u = (r - j) * np.pi
    period = np.sqrt(np.maximum(q * (1.0 - q), 0.0)) + (1.0 - 2.0 * q) * (phi - 0.25 * np.pi)

    def area(v: np.ndarray) -> np.ndarray:
        return v * (1.0 - q) - _cos2_integral(v, 0.0, 1.0)

    def half_l1(u: np.ndarray) -> np.ndarray:
        return np.copysign(area(np.minimum(np.abs(u), phi)) - 0.5 * area(np.abs(u)), u)

    return float(np.sum((j[1:] - j[:-1]) * period + half_l1(u[1:]) - half_l1(u[:-1]))) * wave._wave_terms[3]


def optimal_interval_set(cfg: OpticsConfig) -> IntervalSet:
    """The interval set minimizing delta: where the wave law exceeds the particle law.

    For the default pair these are the half-period intervals centered on the
    bright fringes; delta there equals 1 - TV. The particle density is a
    constant h on each cell of its table, and c cos^2(pi x / a) exceeds h
    exactly on [k a - theta, k a + theta), theta = a phi / pi (see
    ``_crossing_angles``). Such an interval holds x when floor((x - theta) / a)
    < k <= floor((x + theta) / a), so the floors at a cell's edges give both
    its crossings and its sign at each edge. A node where the level jumps
    across the wave density is a boundary too.
    """
    a = cfg.fringe_scale_m
    xs, _, phi = _crossing_angles(*_pattern_pair(cfg))
    theta = phi * a / np.pi
    # floor((x + theta) / a) and floor((x - theta) / a) at both edges of every cell
    rise_lo, rise_hi, fall_lo, fall_hi = floors = [op(x, theta) for op in (np.add, np.subtract) for x in (xs[:-1], xs[1:])]
    for k in floors:
        np.floor(np.divide(k, a, out=k), out=k)

    def crossings(k_lo: np.ndarray, k_hi: np.ndarray, add: np.ufunc) -> np.ndarray:
        # k a +/- theta for every k in (k_lo, k_hi] of every cell, worked in
        # place: at many fringes these arrays set the call's peak memory
        counts = (k_hi - k_lo).astype(np.intp)
        cell = np.repeat(np.arange(counts.size), counts)
        k = np.arange(cell.size, dtype=float)
        k += (k_lo + 1.0 - (np.cumsum(counts) - counts))[cell]
        k *= a
        return add(k, theta[cell], out=k)

    exceeds_lo, exceeds_hi = rise_lo > fall_lo, rise_hi > fall_hi  # just above each cell edge
    jumps = xs[1:-1][exceeds_hi[:-1] != exceeds_lo[1:]]
    edges = np.concatenate((xs[:1], crossings(rise_lo, rise_hi, np.subtract), crossings(fall_lo, fall_hi, np.add), jumps, xs[-1:]))
    edges[1:-1].sort()
    # the sign flips at every crossing and jump; past the pieces of zero width
    # that coincident flips leave, a bright interval is a run of bright pieces
    above = np.tile([exceeds_lo[0], not exceeds_lo[0]], edges.size // 2)[: edges.size - 1]
    wide = edges[1:] > edges[:-1]
    starts, ends, above = edges[:-1][wide], edges[1:][wide], above[wide]
    run = np.diff(np.concatenate(([False], above, [False])).view(np.int8))  # 1 where a run starts, -1 past its end
    return IntervalSet(np.stack((starts[run[:-1] == 1], ends[run[1:] == -1]), axis=1))


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome-(i) bookkeeping for one interval set.

    ``margin = 1 - delta`` is how far the implied total probability falls
    short of one; ``feasible_under_outcome_i`` holds only for degenerate sets
    whose delta equals one to within :data:`DELTA_FEASIBILITY_TOL`.
    """

    interval_set: IntervalSet
    delta_value: float
    tv_value: float
    margin: float
    feasible_under_outcome_i: bool
    marker: str | None = None

    def __post_init__(self) -> None:
        if not (1.0 - self.tv_value - 1e-9 <= self.delta_value <= 1.0 + self.tv_value + 1e-9):
            raise ValidationError("delta must lie within 1 +/- TV")
        if abs(self.margin - (1.0 - self.delta_value)) > 1e-9:
            raise ValidationError("margin must equal 1 - delta")
        if self.feasible_under_outcome_i != (abs(self.delta_value - 1.0) <= DELTA_FEASIBILITY_TOL):
            raise ValidationError("feasibility flag inconsistent with delta")


def contradiction_margin(iset: IntervalSet, cfg: OpticsConfig, marker: str | None = None) -> FeasibilityReport:
    """FeasibilityReport for activating the switch exactly on ``iset``."""
    delta = delta_of_interval_set(iset, cfg)
    return FeasibilityReport(
        interval_set=iset,
        delta_value=delta,
        tv_value=tv_distance(cfg),
        margin=1.0 - delta,
        feasible_under_outcome_i=abs(delta - 1.0) <= DELTA_FEASIBILITY_TOL,
        marker=marker,
    )


# -- classification ------------------------------------------------------------


class Verdict(Enum):
    WAVE = "wave"
    PARTICLE = "particle"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ClassificationResult:
    verdict: Verdict
    log_likelihood_ratio: float
    n_samples: int


def classify_pattern(
    samples,
    cfg: OpticsConfig,
    phase_offset_rad: float = 0.0,
    restrict_to: IntervalSet | None = None,
) -> ClassificationResult:
    """Wave-vs-particle verdict from the summed per-impact log-likelihood ratio.

    Each impact contributes ``log(w(x)/p(x))`` with both densities floored at
    a fixed fraction of the uniform level and the contribution clipped to
    ``+/-VERDICT_LLR_THRESHOLD``, so no single impact can force a verdict.
    ``restrict_to`` classifies against the renormalized truncated laws, for
    subsets that were carved out of the screen by an interval rule.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValidationError("classification requires at least one sample")
    wave = PatternDistribution(PatternKind.WAVE, cfg, phase_offset_rad)
    wave._check_domain(x)
    if restrict_to is not None and not np.all(restrict_to.contains(x)):
        raise ValidationError("restricted classification requires all samples inside the region")
    terms = llr_terms(wave, PatternDistribution(PatternKind.PARTICLE, cfg), restrict_to)
    per_sample = np.empty_like(x)
    # each impact's contribution on its own, in fixed blocks that keep the
    # temporaries small; the one sum over the whole array keeps the bits of
    # an unblocked evaluation
    for start in range(0, x.size, _CLASSIFY_BLOCK):
        block = slice(start, start + _CLASSIFY_BLOCK)
        terms(x[block], per_sample[block])
    llr = float(np.sum(per_sample))
    return ClassificationResult(verdict_of(llr), llr, int(x.size))


def verdict_of(llr: float) -> Verdict:
    """The verdict a summed log-likelihood ratio gives."""
    if llr > VERDICT_LLR_THRESHOLD:
        return Verdict.WAVE
    if llr < -VERDICT_LLR_THRESHOLD:
        return Verdict.PARTICLE
    return Verdict.INDETERMINATE


def llr_terms(
    wave: PatternDistribution,
    particle: PatternDistribution,
    restrict_to: IntervalSet | None = None,
) -> Callable[..., np.ndarray]:
    """The classifier's per-impact term for a wave law (at its fringe phase)
    against the structureless law: ``terms(x, out=None, density=None)`` is
    each impact's ``log(w(x)/p(x))``, densities floored and the term clipped
    as :func:`classify_pattern` takes them, on the calling thread.
    ``density`` may give the wave law's density at ``x``, unrestricted and
    unfloored, taken already; it is overwritten.

    The restricted masses and the uniform law's log are taken here, once;
    tasks that share ``terms`` on the pool only read, given ``prepared``
    laws. ``x`` is not checked against the window or the region.
    """
    cfg = wave.config
    w_mass = p_mass = 1.0
    if restrict_to is not None:
        w_mass = wave.mass(restrict_to)
        p_mass = particle.mass(restrict_to)
        if not (w_mass > 0.0 and p_mass > 0.0):
            raise ValidationError("restriction region carries zero mass under a hypothesis law")
    floor = DENSITY_FLOOR_FRACTION / cfg.window_width_m

    def log_density(law: PatternDistribution, mass: float, at: np.ndarray, density=None) -> np.ndarray:
        density = law._density_raw(at) if density is None else density
        if restrict_to is not None:
            density /= mass
        # the C library's log, so that no bit depends on the CPU
        return libm(np.log, np.maximum(density, floor, out=density))

    # the uniform law's density is one value on every lane: its log is taken once
    log_p = None if cfg.envelope_enabled else float(log_density(particle, p_mass, np.array(cfg.window[:1]))[0])

    def terms(x: np.ndarray, out: np.ndarray | None = None, density: np.ndarray | None = None) -> np.ndarray:
        w = log_density(wave, w_mass, x, density)
        p = log_density(particle, p_mass, x) if log_p is None else log_p
        out = w if out is None else out
        return np.clip(np.subtract(w, p, out=w), -VERDICT_LLR_THRESHOLD, VERDICT_LLR_THRESHOLD, out=out)

    return terms


# -- sample-size planning -------------------------------------------------------


@dataclass(frozen=True)
class SampleSizePlan:
    n_samples: int
    bhattacharyya: float
    target_error: float


def bhattacharyya_coefficient(cfg: OpticsConfig) -> float:
    """Integral of sqrt(w * p) over the window; the n-sample equal-prior Bayes
    error is bounded by half its n-th power. It is at most 1 (Cauchy-Schwarz),
    and clamped there so that rounding cannot push it over.

    On a cell of the particle law's table, where p is a constant h,
    sqrt(w * p) = sqrt(c h) |cos(pi x / a)| has a closed-form integral.
    """
    wave, particle = _pattern_pair(cfg)
    a = cfg.fringe_scale_m
    xs, cdf = particle._cell_table
    t = np.pi * xs / a
    j = np.rint(t / np.pi)
    t_lo, t_hi = t[:-1], t[1:]
    # within one half period the difference of sines, taken as a product, does not cancel
    mass = 2.0 * np.abs(np.cos(0.5 * (t_lo + t_hi)) * np.sin(0.5 * (t_hi - t_lo)))
    # across a dark fringe 2j + sin(t - j pi), j = round(t / pi), is an antiderivative of |cos t|
    far = np.flatnonzero(j[:-1] != j[1:])
    t_lo, t_hi, j_lo, j_hi = t_lo[far], t_hi[far], j[far], j[far + 1]
    mass[far] = 2.0 * (j_hi - j_lo) + np.sin(t_hi - j_hi * np.pi) - np.sin(t_lo - j_lo * np.pi)
    total = float(np.sum(np.sqrt(wave._wave_norm * np.diff(cdf) / np.diff(xs)) * mass))
    return min(1.0, total * a / math.pi)


def required_sample_size(target_error: float, cfg: OpticsConfig) -> SampleSizePlan:
    """Smallest n with (1/2) * rho^n <= target_error, rho the Bhattacharyya coefficient."""
    if not (0.0 < target_error < 0.5):
        raise ValidationError("target_error must lie in (0, 0.5)")
    rho = bhattacharyya_coefficient(cfg)
    if rho >= 1.0:
        raise ValidationError(
            "the Bhattacharyya coefficient rounds to 1 on this window: "
            "no sample size separates the two laws in double precision"
        )
    n = max(1, math.ceil(math.log(2.0 * target_error) / math.log(rho)))
    while 0.5 * rho**n > target_error:
        n += 1
    while n > 1 and 0.5 * rho ** (n - 1) <= target_error:
        n -= 1
    return SampleSizePlan(n, rho, target_error)


def tv_distance_empirical(samples_p, samples_q, cfg: OpticsConfig) -> float:
    """Plug-in TV estimate over the fringe-aligned binning.

    The estimator carries a positive bias of order sqrt(bins / n) from
    counting noise, on top of the (negative) discretization bias.
    """
    a = np.asarray(samples_p, dtype=float).ravel()
    b = np.asarray(samples_q, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ValidationError("empirical TV requires nonempty sample sets")
    edges = fringe_aligned_edges(cfg)
    wlo, whi = cfg.window
    for arr in (a, b):
        if not (np.all(arr >= wlo) and np.all(arr <= whi)):  # NaN fails too
            raise ValidationError("samples must lie inside the screen window")
    pa, _ = np.histogram(a, bins=edges)
    qa, _ = np.histogram(b, bins=edges)
    return tv_of_counts(pa, qa)


def tv_of_counts(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    """The plug-in TV estimate of two nonempty sample sets from their
    histogram counts on the fringe-aligned binning, every sample binned."""
    return 0.5 * float(np.abs(p_counts / p_counts.sum() - q_counts / q_counts.sum()).sum())
