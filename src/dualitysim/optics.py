"""Screen-impact laws for a two-slit bench.

The fringe scale ``a = wavelength * distance / separation`` sets the period of
the interference law; the screen window is ``[-halfwidth, +halfwidth]``. Two
normalized pattern laws live on that window: an interference ("wave") law
proportional to ``cos^2(pi x / a + phase)`` and a structureless ("particle")
law, uniform by default or, with the optional diffraction envelope, constant
on each cell of a dense CDF table of the two-slit sinc^2 sum.
The interference law's normalization and CDF come from one closed form of the
integral of cos^2, written so that it does not cancel on any window, however
small or however many fringes it spans.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# adaptive_simpson is not called here; the benchmark tracer patches optics.adaptive_simpson
from .numerics import adaptive_simpson, invert_monotone  # noqa: F401


class ValidationError(ValueError):
    """A configuration or argument violates a documented precondition."""


class DomainError(ValueError):
    """A screen coordinate falls outside the configured window."""


PARAXIAL_WARN_RATIO = 0.1
INTEGER_FRINGE_TOL = 1e-9
SAMPLER_CDF_TOL = 1e-12
BINS_PER_FRINGE = 50
MAX_HISTOGRAM_BINS = 500
_QUANTILE_TABLE_NODES = 4097
_ENVELOPE_GRID_NODES = 32769
#: u-buckets of the quantile cell index; a power of two, so u * K is exact
_GUIDE_BUCKETS = 8192
#: lanes per wave-sampler block
_PPF_BLOCK = 16384
#: below this angle span d, 2d - sin 2d comes from its Taylor series
_SERIES_SPAN = 0.125
#: (y - sin y) / y**3 as a polynomial in y**2, highest power first; double precision at |y| < 0.25
_Y_MINUS_SIN = (-1 / 6227020800, 1 / 39916800, -1 / 362880, 1 / 5040, -1 / 120, 1 / 6)


@dataclass(frozen=True)
class OpticsConfig:
    """Bench geometry and pattern options. Lengths in meters.

    ``slit_width_m`` is used by the optional diffraction envelope and defaults
    to a quarter of the slit separation.
    """

    wavelength_m: float = 700e-9
    slit_separation_m: float = 1e-3
    slit_screen_distance_m: float = 1.0
    screen_halfwidth_m: float = 0.35e-3
    envelope_enabled: bool = False
    slit_width_m: float | None = None

    def __post_init__(self) -> None:
        for name in (
            "wavelength_m",
            "slit_separation_m",
            "slit_screen_distance_m",
            "screen_halfwidth_m",
        ):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
        if self.slit_width_m is not None:
            if not (
                isinstance(self.slit_width_m, (int, float))
                and math.isfinite(self.slit_width_m)
                and 0 < self.slit_width_m < self.slit_separation_m
            ):
                raise ValidationError(
                    "slit_width_m must be positive and smaller than slit_separation_m, "
                    f"got {self.slit_width_m!r}"
                )
        if self.screen_halfwidth_m / self.slit_screen_distance_m > PARAXIAL_WARN_RATIO:
            warnings.warn(
                "screen_halfwidth_m exceeds "
                f"{PARAXIAL_WARN_RATIO} * slit_screen_distance_m; the small-angle "
                "approximation behind the fringe scale is no longer reliable",
                UserWarning,
                stacklevel=2,
            )

    @property
    def fringe_scale_m(self) -> float:
        """Fringe period on the screen."""
        return self.wavelength_m * self.slit_screen_distance_m / self.slit_separation_m

    @property
    def window(self) -> tuple[float, float]:
        return (-self.screen_halfwidth_m, self.screen_halfwidth_m)

    @property
    def window_width_m(self) -> float:
        return 2.0 * self.screen_halfwidth_m

    @property
    def fringe_count(self) -> float:
        """Window width in fringe periods."""
        return self.window_width_m / self.fringe_scale_m

    @property
    def effective_slit_width_m(self) -> float:
        return self.slit_width_m if self.slit_width_m is not None else 0.25 * self.slit_separation_m

    def is_integer_fringe_window(self) -> bool:
        m = self.fringe_count
        return abs(m - round(m)) <= INTEGER_FRINGE_TOL * max(1.0, m) and round(m) >= 1

    def require_integer_fringe_window(self) -> None:
        if not self.is_integer_fringe_window():
            raise ValidationError(
                "window must span an integer number (m >= 1) of fringe periods; "
                f"got {self.fringe_count!r} periods"
            )


class PatternKind(Enum):
    WAVE = "wave"
    PARTICLE = "particle"


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint, sorted, half-open [lo, hi) intervals on the screen."""

    intervals: tuple[tuple[float, float], ...] = ()

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Sequence[float]],
        window: tuple[float, float] | None = None,
    ) -> "IntervalSet":
        items: list[tuple[float, float]] = []
        for pair in pairs:
            lo, hi = float(pair[0]), float(pair[1])
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError(f"interval must have finite lo < hi, got ({lo!r}, {hi!r})")
            items.append((lo, hi))
        items.sort()
        for (alo, ahi), (blo, _) in zip(items, items[1:]):
            if blo < ahi:
                raise ValidationError(f"intervals overlap near x={blo!r}; they must be disjoint")
        if window is not None:
            wlo, whi = window
            for lo, hi in items:
                if lo < wlo or hi > whi:
                    raise ValidationError(
                        f"interval ({lo!r}, {hi!r}) leaves the screen window [{wlo!r}, {whi!r}]"
                    )
        return cls(tuple(items))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def full_window(cls, cfg: OpticsConfig) -> "IntervalSet":
        return cls((cfg.window,))

    @property
    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def complement(self, window: tuple[float, float]) -> "IntervalSet":
        wlo, whi = window
        out: list[tuple[float, float]] = []
        cursor = wlo
        for lo, hi in self.intervals:
            if lo > cursor:
                out.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < whi:
            out.append((cursor, whi))
        return IntervalSet(tuple(out))

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        mask = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            mask |= (x >= lo) & (x < hi)
        return mask

    def __len__(self) -> int:
        return len(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __iter__(self):
        return iter(self.intervals)


def _cos2_integral(d: np.ndarray, cos0: float, sin0: float, scale: float = 1.0) -> np.ndarray:
    """``scale`` times the integral of cos^2 from theta0 to theta0 + d, for 1-D
    spans d >= 0: (2d - sin 2d)/4 + cos0^2 sin(2d)/2 - sin0 cos0 sin^2(d), with
    cos0, sin0 those of theta0. Below ``_SERIES_SPAN``, 2d - sin 2d comes from
    its series, so a span that starts on a dark fringe keeps its precision.
    """
    # The integral is d/2 + osc, osc = sin d (Q cos d - R sin d) of period pi. With d = q pi/2 + r,
    # |r| <= pi/4 (where sin and cos are cheapest), and s, c = sin r, cos r, osc = s (Q c - R s) for
    # even q and -s (Q c - R s) - R for odd q. In place: temporaries cost more than the flops.
    big_q, big_r = scale * (cos0 * cos0 - 0.5), scale * sin0 * cos0
    q = np.rint(d * (2.0 / math.pi))
    osc = d - q * (0.5 * math.pi)  # r, then c, then osc for even q
    s = np.sin(osc)
    np.cos(osc, out=osc)
    osc *= big_q
    osc -= big_r * s
    osc *= s
    q *= 0.5
    odd = q - np.floor(q)  # 0 for even q, 1/2 for odd q
    out = d * (0.5 * scale)
    out += osc
    osc *= 4.0
    osc += 2.0 * big_r
    osc *= odd
    out -= osc
    small = np.flatnonzero(d < _SERIES_SPAN)
    if small.size:
        s, c, y = s[small], np.cos(d[small]), 2.0 * d[small]  # q = 0 there, so r = d
        z = y * y  # y - sin y = y z P(z)
        out[small] = scale * (0.25 * y * z * np.polyval(_Y_MINUS_SIN, z) + s * (cos0 * cos0 * c - sin0 * cos0 * s))
    return out


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x: scipy's ``cumulative_trapezoid(y, x, initial=0.0)``."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


@dataclass(frozen=True)
class PatternDistribution:
    """One normalized screen-impact law: interference or structureless."""

    kind: PatternKind
    config: OpticsConfig
    phase_offset_rad: float = 0.0

    # -- raw evaluations (no domain checks), used by the samplers -----------

    @cached_property
    def _wave_terms(self) -> tuple[float, float, float, float]:
        """(pi / a, cos theta0, sin theta0, 1 / M): theta0 = pi lo / a + phase at
        the window's low edge, by angle addition so that a tiny cosine stays
        accurate, and M the integral of cos^2 over the window's phase span."""
        cfg = self.config
        k = math.pi / cfg.fringe_scale_m
        t = math.pi * cfg.window[0] / cfg.fringe_scale_m
        phase = self.phase_offset_rad
        cos0 = math.cos(t) * math.cos(phase) - math.sin(t) * math.sin(phase)
        sin0 = math.sin(t) * math.cos(phase) + math.cos(t) * math.sin(phase)
        return k, cos0, sin0, 1.0 / float(_cos2_integral(np.array([cfg.window_width_m * k]), cos0, sin0)[0])

    @cached_property
    def _wave_norm(self) -> float:
        """Normalization constant c with integral c * cos^2(pi x/a + phase) = 1."""
        return self._wave_terms[0] * self._wave_terms[3]

    @cached_property
    def _cell_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, cdf) nodes of the structureless law, which ``cdf`` and ``ppf``
        interpolate linearly: its density is constant on each cell between two
        nodes. The uniform law is one cell; the envelope's CDF is the running
        trapezoid integral of the two-slit sinc^2 sum on a dense grid."""
        cfg = self.config
        lo, hi = cfg.window
        if not cfg.envelope_enabled:
            return np.array([lo, hi]), np.array([0.0, 1.0])
        xs = np.linspace(lo, hi, _ENVELOPE_GRID_NODES)
        b = cfg.effective_slit_width_m
        scale = cfg.wavelength_m * cfg.slit_screen_distance_m
        half = 0.5 * cfg.slit_separation_m
        raw = np.sinc(b * (xs - half) / scale) ** 2 + np.sinc(b * (xs + half) / scale) ** 2
        cdf = _cumulative_trapezoid(raw, xs)
        cdf /= cdf[-1]
        cdf[0], cdf[-1] = 0.0, 1.0
        return xs, cdf

    @cached_property
    def _cell_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The cell densities as ``np.interp`` nodes: every inner node doubled,
        so that interpolation is constant on each cell and gives a node the
        level of the cell above it."""
        xs, cdf = self._cell_table
        return np.repeat(xs, 2)[1:-1], np.repeat(np.diff(cdf) / np.diff(xs), 2)

    def _density_raw(self, x: np.ndarray) -> np.ndarray:
        cfg = self.config
        if self.kind is PatternKind.WAVE:
            # c cos^2(pi x / a + phase), each step in place
            d = np.multiply(np.pi, x, out=np.empty(np.shape(x)))
            d /= cfg.fringe_scale_m
            d += self.phase_offset_rad
            np.cos(d, out=d)
            np.square(d, out=d)
            d *= self._wave_norm
            return d
        if cfg.envelope_enabled:
            return np.interp(x, *self._cell_levels)
        return np.full_like(np.asarray(x, dtype=float), 1.0 / cfg.window_width_m)

    def _cdf_raw(self, x: np.ndarray) -> np.ndarray:
        cfg = self.config
        lo, _ = cfg.window
        if self.kind is PatternKind.WAVE:
            k, cos0, sin0, inv_total = self._wave_terms
            spans = np.subtract(x, lo, dtype=float).ravel()
            spans *= k
            raw = _cos2_integral(spans, cos0, sin0, scale=inv_total)
            return np.clip(raw, 0.0, 1.0, out=raw).reshape(np.shape(x))
        if cfg.envelope_enabled:
            return np.interp(x, *self._cell_table)
        return np.clip((x - lo) / cfg.window_width_m, 0.0, 1.0)

    # -- public surface ------------------------------------------------------

    def _check_domain(self, x: np.ndarray) -> None:
        lo, hi = self.config.window
        # NaN fails both tests; taken one at a time, they keep one mask alive, not three
        if not (np.all(x >= lo) and np.all(x <= hi)):
            bad = x[~((x >= lo) & (x <= hi))]
            raise DomainError(f"x={bad.flat[0]!r} lies outside the screen window [{lo!r}, {hi!r}]")

    def density(self, x) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        self._check_domain(arr)
        out = self._density_raw(arr)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        self._check_domain(arr)
        out = self._cdf_raw(arr)
        return float(out) if np.ndim(x) == 0 else out

    @cached_property
    def _quantile_table(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.config.window
        xs = np.linspace(lo, hi, _QUANTILE_TABLE_NODES)
        cs = self._cdf_raw(xs)
        cs[0], cs[-1] = 0.0, 1.0
        return xs, cs

    @cached_property
    def _cell_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """O(1) lookup of a quantile level's table cell.

        ``guide[k]`` is the cell holding ``k / _GUIDE_BUCKETS``; ``wide[k]``
        marks buckets spanning more than two cells; ``cs_pad`` is the CDF
        column padded with two +inf sentinels; ``slopes`` are the per-cell
        slopes ``np.interp`` uses. The CDF column is sorted on every window.
        """
        xs, cs = self._quantile_table
        levels = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        guide = np.searchsorted(cs, levels, side="right") - 1
        wide = np.diff(guide) > 2
        cs_pad = np.concatenate((cs, [np.inf, np.inf]))
        with np.errstate(divide="ignore", over="ignore"):
            slopes = np.diff(xs) / np.diff(cs)
        return guide, wide, cs_pad, slopes

    @cached_property
    def _cubic_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per cell of the quantile table, the cubic Hermite interpolant of the
        quantile function Q, as ``x_i + d (m0 + t (b + t c))`` with ``d`` the
        level above the cell's lower CDF node and ``t = d / h``, ``h`` the
        cell's CDF step: ``(1 / h, m0, b, c)``. The node slopes ``m = dQ/du``
        are 1 / density (inf where it vanishes); with ``s`` the cell's secant
        slope, ``b = 3 s - 2 m0 - m1`` and ``c = m0 + m1 - 2 s``."""
        xs, cs = self._quantile_table
        s = self._cell_index[3]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m = 1.0 / self._density_raw(xs)
            m0, m1 = m[:-1], m[1:]
            return 1.0 / np.diff(cs), m0, 3.0 * s - 2.0 * m0 - m1, m0 + m1 - 2.0 * s

    def _start_points(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Newton bracket cell and start point of each level in [0, 1].

        The cell is ``clip(searchsorted(cs, u, "right") - 1, 0, len - 2)``.
        The start is the cell's cubic Hermite quantile (``_cubic_cells``)
        where that is finite and inside the cell, else the bits of
        ``np.interp(u, cs, xs)``. Both use only IEEE arithmetic, and the
        block's temporaries are reused in place."""
        xs, cs = self._quantile_table
        guide, wide, cs_pad, slopes = self._cell_index
        # u * K is exact, so bucket k holds exactly the levels in [k/K, (k+1)/K);
        # fmin sends u = 1 to the last bucket and a NaN level to a valid one
        k = np.fmin(u * _GUIDE_BUCKETS, _GUIDE_BUCKETS - 1).astype(np.intp)
        cell = guide[k]
        cell += cs_pad[cell + 1] <= u
        cell += cs_pad[cell + 1] <= u
        far = wide[k]
        del k
        if far.any():
            cell[far] = np.searchsorted(cs, u[far], side="right") - 1
        np.minimum(cell, len(xs) - 2, out=cell)
        x_cell = xs[cell]
        d = cs[cell]
        on_node = u == d
        np.subtract(u, d, out=d)
        inv_h, m0, b, c = self._cubic_cells
        with np.errstate(invalid="ignore", over="ignore"):
            t = inv_h[cell]
            t *= d
            x0 = c[cell]
            x0 *= t
            x0 += b[cell]
            x0 *= t
            del t
            x0 += m0[cell]
            x0 *= d
            x0 += x_cell
            # np.interp's arithmetic and its special cases: a level on a node
            # maps to that node, and a level at the top of the table to its last node
            linear = slopes[cell]
            linear *= d
            linear += x_cell
        np.copyto(linear, x_cell, where=on_node)
        # NaN and infinite cubic starts fail both tests
        inside = x0 >= x_cell
        inside &= x0 <= xs[cell + 1]
        np.copyto(x0, linear, where=~inside)
        x0[u >= cs[-1]] = xs[-1]
        return cell, x0

    def prepared(self) -> "PatternDistribution":
        """This law with every table its sampler and density read already
        built, so that threads sharing it only read them."""
        if self.kind is PatternKind.WAVE:
            self._cubic_cells  # the quantile table, its index and the density's norm with it
        elif self.config.envelope_enabled:
            self._cell_levels
        return self

    def ppf(self, u) -> np.ndarray | float:
        """Quantile function; |cdf(ppf(u)) - u| <= 1e-12 lane-wise."""
        arr = np.asarray(u, dtype=float)
        # written so that a NaN level fails it too
        if arr.size and not ((arr >= 0.0) & (arr <= 1.0)).all():
            raise ValidationError("quantile levels must lie in [0, 1]")
        if self.kind is PatternKind.PARTICLE:
            out = self.quantiles(arr)
            return float(out) if np.ndim(u) == 0 else out
        out = self.quantiles(np.atleast_1d(arr).ravel())
        return float(out[0]) if np.ndim(u) == 0 else out.reshape(arr.shape)

    def quantiles(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``ppf`` of a 1-D array of levels already known to lie in [0, 1],
        on the calling thread. The wave law inverts fixed blocks of
        ``_PPF_BLOCK`` levels one after another, which keeps temporaries
        small and changes no bit: its lanes are independent."""
        cfg = self.config
        if self.kind is PatternKind.PARTICLE:
            if cfg.envelope_enabled:
                xs, cdf = self._cell_table
                x = np.interp(u, cdf, xs)
            else:
                x = cfg.window[0] + u * cfg.window_width_m
            if out is None:
                return x
            out[...] = x
            return out
        out = np.empty_like(u) if out is None else out
        for start in range(0, u.size, _PPF_BLOCK):
            block = slice(start, start + _PPF_BLOCK)
            self._solve(u[block], out[block])
        return out

    def _solve(self, u: np.ndarray, out: np.ndarray) -> None:
        """The wave law's quantiles of one block of levels, into ``out``."""
        xs, _ = self._quantile_table
        cell, x0 = self._start_points(u)
        out[...] = invert_monotone(
            self._cdf_raw, u, lo=xs[cell], hi=xs[cell + 1], tol=SAMPLER_CDF_TOL, fprime=self._density_raw, x0=x0
        )

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray | float:
        """Inverse-CDF sampling; deterministic given the generator stream."""
        return self.ppf(rng.random(size))

    def mass(self, region: IntervalSet) -> float:
        """Probability that an impact lands in ``region``."""
        if not region:
            return 0.0
        arr = np.asarray(region.intervals, dtype=float)
        return float(np.sum(self.cdf(arr[:, 1]) - self.cdf(arr[:, 0])))


# -- module-level operation surface ------------------------------------------


def wave_density(x, cfg: OpticsConfig, phase_offset_rad: float = 0.0):
    """Normalized interference density c * cos^2(pi x / a + phase) on the window."""
    return PatternDistribution(PatternKind.WAVE, cfg, phase_offset_rad).density(x)


def particle_density(x, cfg: OpticsConfig):
    """Normalized structureless density: uniform, or constant on each cell of the envelope's CDF table."""
    return PatternDistribution(PatternKind.PARTICLE, cfg).density(x)


def fringe_aligned_edges(cfg: OpticsConfig) -> np.ndarray:
    """Equal-width bin edges over the window, BINS_PER_FRINGE per fringe, at
    least 20 and at most MAX_HISTOGRAM_BINS bins."""
    n = int(round(BINS_PER_FRINGE * cfg.fringe_count))
    n = max(20, min(n, MAX_HISTOGRAM_BINS))
    lo, hi = cfg.window
    return np.linspace(lo, hi, n + 1)


def fringe_visibility(counts, edges, cfg: OpticsConfig) -> float:
    """(I_max - I_min) / (I_max + I_min) of the period-folded bin intensities.

    When the binning tiles an integer number of fringe periods the bins are
    folded onto a single period before taking extremes, which suppresses
    counting noise; otherwise a moving-average smoothing is applied.
    """
    intensities = np.asarray(counts, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if intensities.ndim != 1 or len(edges) != len(intensities) + 1:
        raise ValidationError("histogram requires counts of length len(edges) - 1")
    if len(intensities) < 20:
        raise ValidationError("visibility requires at least 20 bins")
    total = intensities.sum()
    if not total > 0:
        raise ValidationError("visibility requires a histogram with positive total count")
    if np.any(intensities < 0):
        raise ValidationError("bin intensities must be nonnegative")

    nbins = len(intensities)
    periods = int(round(cfg.fringe_count))
    if cfg.is_integer_fringe_window() and nbins % periods == 0:
        profile = intensities.reshape(periods, nbins // periods).sum(axis=0)
    else:
        k = max(1, nbins // 20)
        kernel = np.ones(k) / k
        profile = np.convolve(intensities, kernel, mode="valid")
    top = float(profile.max())
    bottom = float(profile.min())
    return (top - bottom) / (top + bottom)
