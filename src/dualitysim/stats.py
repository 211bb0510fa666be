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

from .numerics import adaptive_simpson, bisect_roots, map_blocks
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


def _sign_intervals(cfg: OpticsConfig) -> list[tuple[float, float, bool]]:
    """Partition the window where the wave-minus-particle difference keeps one sign.

    Returns (lo, hi, wave_exceeds) triples. The default flat-pattern pair has
    analytic crossings every half period; on the enveloped pair a dense scan
    brackets the crossings and bisection refines them to adjacent floats.
    """
    wave, particle = _pattern_pair(cfg)
    wlo, whi = cfg.window
    if not cfg.envelope_enabled:
        # crossings solve c cos^2(pi x / a) = 1/W; on integer-fringe windows
        # c = 2/W puts them at a/4 + k a/2, otherwise the level shifts
        a = cfg.fringe_scale_m
        level = 1.0 / (wave._wave_norm * cfg.window_width_m)
        theta = math.acos(math.sqrt(level)) * a / math.pi
        crossings = []
        for k in range(math.floor(wlo / a) - 1, math.ceil(whi / a) + 2):
            for x in (k * a - theta, k * a + theta):
                if wlo < x < whi:
                    crossings.append(x)
        crossings.sort()
    else:
        diff = lambda x: wave._density_raw(x) - particle._density_raw(x)
        grid = np.linspace(wlo, whi, 16385)
        vals = diff(grid)
        i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        crossings = bisect_roots(diff, grid[i], grid[i + 1]).tolist()
    # densities on all midpoints at once, as tv_distance takes its CDFs
    edges = np.array([wlo, *crossings, whi])
    mids = 0.5 * (edges[:-1] + edges[1:])
    above = wave.density(mids) > particle.density(mids)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist(), above.tolist()))


def tv_distance(cfg: OpticsConfig) -> float:
    """Total variation distance between the two laws: half the L1 difference."""
    wave, particle = _pattern_pair(cfg)
    # one CDF call per law on every interval edge: per-interval scalar calls
    # take about 90 ms on a window of 200 fringes
    edges = np.array([cfg.window[0], *(hi for _, hi, _ in _sign_intervals(cfg))])
    p_mass = np.diff(particle.cdf(edges))
    w_mass = np.diff(wave.cdf(edges))
    return 0.5 * float(np.sum(np.abs(p_mass - w_mass)))


def optimal_interval_set(cfg: OpticsConfig) -> IntervalSet:
    """The interval set minimizing delta: where the wave law exceeds the particle law.

    For the default pair these are the half-period intervals centered on the
    bright fringes; delta there equals 1 - TV.
    """
    pieces = [(lo, hi) for lo, hi, wave_exceeds in _sign_intervals(cfg) if wave_exceeds]
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

    Against the uniform law sqrt(w * p) = sqrt(c / W) |cos(pi x / a)| has a
    closed-form integral; the enveloped law is integrated numerically.
    """
    wave, particle = _pattern_pair(cfg)
    a = cfg.fringe_scale_m
    lo, hi = cfg.window
    if cfg.envelope_enabled:

        def integrand(t: np.ndarray) -> np.ndarray:
            # the round trip through fringe units can land an ulp outside the window
            x = np.clip(t * a, lo, hi)
            return np.sqrt(wave._density_raw(x) * particle._density_raw(x))

        return min(1.0, a * adaptive_simpson(integrand, lo / a, hi / a, tol=1e-12))
    t_lo, t_hi = math.pi * lo / a, math.pi * hi / a
    j_lo, j_hi = round(t_lo / math.pi), round(t_hi / math.pi)
    if j_lo == j_hi:
        # within one half period the difference of sines, taken as a product, does not cancel
        mass = 2.0 * abs(math.cos(0.5 * (t_lo + t_hi)) * math.sin(0.5 * (t_hi - t_lo)))
    else:
        # 2j + sin(t - j pi), j = round(t / pi), is an antiderivative of |cos t|
        mass = 2.0 * (j_hi - j_lo) + math.sin(t_hi - j_hi * math.pi) - math.sin(t_lo - j_lo * math.pi)
    return min(1.0, math.sqrt(wave._wave_norm / cfg.window_width_m) * mass * a / math.pi)


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
