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

import numpy as np

# adaptive_simpson is not called here; the benchmark tracer patches stats.adaptive_simpson
from .numerics import adaptive_simpson, map_blocks  # noqa: F401
from .optics import (
    IntervalSet,
    OpticsConfig,
    PatternDistribution,
    PatternKind,
    ValidationError,
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
    iset = IntervalSet.from_pairs(iset, window=cfg.window)
    wave, particle = _pattern_pair(cfg)
    return particle.mass(iset) + (1.0 - wave.mass(iset))


def _sign_intervals(wave: PatternDistribution, particle: PatternDistribution) -> list[tuple[float, float, bool]]:
    """Partition the window where the wave-minus-particle difference keeps one sign.

    Returns (lo, hi, wave_exceeds) triples. The particle density is a
    constant h on each cell of its table, and c cos^2(pi x / a) exceeds h
    exactly on [k a - theta, k a + theta), theta = a acos(sqrt(h / c)) / pi (0
    once h >= c). Such an interval holds x when floor((x - theta) / a) < k <=
    floor((x + theta) / a), so the floors at a cell's edges give both its
    crossings and its sign at each edge. A node where the level jumps across
    the wave density is a boundary too.
    """
    a = wave.config.fringe_scale_m
    xs, cdf = particle._cell_table
    # the per-cell arrays set the call's peak memory, so they are worked in place
    theta = np.diff(cdf) / (wave._wave_norm * np.diff(xs))  # h / c
    np.arccos(np.sqrt(np.minimum(theta, 1.0, out=theta), out=theta), out=theta)
    theta *= a
    theta /= np.pi
    lo, hi = xs[:-1], xs[1:]
    # floor((x + theta) / a) and floor((x - theta) / a) at both edges of every cell
    rise_lo, rise_hi, fall_lo, fall_hi = floors = [op(x, theta) for op in (np.add, np.subtract) for x in (lo, hi)]
    for k in floors:
        np.floor(np.divide(k, a, out=k), out=k)

    def crossings(k_lo: np.ndarray, k_hi: np.ndarray, sign: float) -> np.ndarray:
        # k a + sign theta for every k in (k_lo, k_hi] of every cell
        counts = (k_hi - k_lo).astype(np.intp)
        cell = np.repeat(np.arange(counts.size), counts)
        k = k_lo[cell] + 1.0 + (np.arange(cell.size) - (np.cumsum(counts) - counts)[cell])
        return k * a + sign * theta[cell]

    exceeds_lo, exceeds_hi = rise_lo > fall_lo, rise_hi > fall_hi  # just above each cell edge
    jumps = hi[:-1][exceeds_hi[:-1] != exceeds_lo[1:]]
    flips = np.sort(np.concatenate((crossings(rise_lo, rise_hi, -1.0), crossings(fall_lo, fall_hi, 1.0), jumps)))
    # the sign flips at every crossing and jump: drop the pieces of zero width
    # that coincident flips leave, then merge neighbours of one sign
    edges = np.concatenate((xs[:1], flips, xs[-1:]))
    above = np.arange(edges.size - 1) % 2 != exceeds_lo[0]
    wide = edges[1:] > edges[:-1]
    above, starts = above[wide], edges[:-1][wide]
    keep = np.concatenate(([True], above[1:] != above[:-1]))
    starts = starts[keep]
    return list(zip(starts.tolist(), [*starts[1:].tolist(), float(xs[-1])], above[keep].tolist()))


def tv_distance(cfg: OpticsConfig) -> float:
    """Total variation distance between the two laws: half the L1 difference."""
    wave, particle = _pattern_pair(cfg)
    # one CDF call per law on every interval edge: per-interval scalar calls
    # take about 90 ms on a window of 200 fringes
    edges = np.array([cfg.window[0], *(hi for _, hi, _ in _sign_intervals(wave, particle))])
    p_mass = np.diff(particle.cdf(edges))
    w_mass = np.diff(wave.cdf(edges))
    return 0.5 * float(np.sum(np.abs(p_mass - w_mass)))


def optimal_interval_set(cfg: OpticsConfig) -> IntervalSet:
    """The interval set minimizing delta: where the wave law exceeds the particle law.

    For the default pair these are the half-period intervals centered on the
    bright fringes; delta there equals 1 - TV.
    """
    pieces = [(lo, hi) for lo, hi, wave_exceeds in _sign_intervals(*_pattern_pair(cfg)) if wave_exceeds]
    return IntervalSet.from_pairs(pieces, window=cfg.window)


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
    particle = PatternDistribution(PatternKind.PARTICLE, cfg)
    wave._check_domain(x)
    if restrict_to is not None:
        if not np.all(restrict_to.contains(x)):
            raise ValidationError("restricted classification requires all samples inside the region")
        w_mass = wave.mass(restrict_to)
        p_mass = particle.mass(restrict_to)
        if not (w_mass > 0.0 and p_mass > 0.0):
            raise ValidationError("restriction region carries zero mass under a hypothesis law")
    floor = DENSITY_FLOOR_FRACTION / cfg.window_width_m
    per_sample = np.empty_like(x)

    def contribute(block: slice) -> None:
        w = wave._density_raw(x[block])
        p = particle._density_raw(x[block])
        if restrict_to is not None:
            w /= w_mass
            p /= p_mass
        np.log(np.maximum(w, floor, out=w), out=w)
        np.log(np.maximum(p, floor, out=p), out=p)
        np.clip(np.subtract(w, p, out=w), -VERDICT_LLR_THRESHOLD, VERDICT_LLR_THRESHOLD, out=per_sample[block])

    # each impact's contribution on its own, in fixed blocks on the pool; the
    # one sum over the whole array keeps the bits of an unblocked evaluation
    map_blocks(contribute, x.size, _CLASSIFY_BLOCK)
    llr = float(np.sum(per_sample))
    if llr > VERDICT_LLR_THRESHOLD:
        verdict = Verdict.WAVE
    elif llr < -VERDICT_LLR_THRESHOLD:
        verdict = Verdict.PARTICLE
    else:
        verdict = Verdict.INDETERMINATE
    return ClassificationResult(verdict, llr, int(x.size))


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
    return 0.5 * float(np.abs(pa / a.size - qa / b.size).sum())
