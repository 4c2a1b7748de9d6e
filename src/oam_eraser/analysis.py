"""Fringe analytics: visibility, which-path knowledge, pattern rendering.

Visibility is the Michelson contrast ``(P_max - P_min)/(P_max + P_min)``
of a fringe fit, ``amplitude/offset`` (:func:`fit_visibility`).  The fit is
closed-form for exact scans (:func:`exact_fringes`) and least squares for
counted or read-back ones (:func:`fit_sinusoid`).  Which-path knowledge is
the trace norm of the weighted difference between the marker states
conditioned on each path; for pure joint states ``V**2 + D**2 = 1``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import elements as el
from .hilbert import NULL_TOL, JointKet, checked_probability
from .experiment import (
    ExperimentConfig,
    ScanSeries,
    _config_moments,
    _fringe_at,
    _fringe_form,
    _moments,
)


@dataclass(frozen=True)
class FringeFit:
    """Fitted or exact parameters of ``offset + amplitude*cos(2x + phase)``.

    For probability data the amplitude never exceeds the offset (the curve
    stays non-negative); ``residual_rms`` is the root-mean-square misfit.
    """

    offset: float
    amplitude: float
    phase: float
    residual_rms: float


@dataclass(frozen=True)
class ComplementarityRecord:
    visibility: float
    distinguishability: float
    sum_of_squares: float
    violated: bool


@dataclass(frozen=True, eq=False)
class TwoPathModel:
    """Generic two-path interference with a which-path marker.

    ``marker_overlap`` is the inner product of the two marker states
    (1: unmarked, 0: fully marked); ``u1``/``u2`` are the complex path
    envelopes sampled on a common grid.
    """

    marker_overlap: complex
    relative_phase: float
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        if abs(self.marker_overlap) > 1.0 + 1e-12:
            raise ValueError("marker overlap magnitude exceeds 1")


# ---------------------------------------------------------------------------
# sinusoid fitting and visibility


def fit_sinusoid(series: ScanSeries, on: str = "auto") -> FringeFit:
    """Linear least squares of ``offset + a*cos(2x + phase)``.

    The model is linear in ``(offset, a*cos(phase), -a*sin(phase))``, so one
    ``np.linalg.lstsq`` solve (an SVD of the three-column design matrix)
    fits it exactly.  Fits the counts when present (and ``on="auto"``),
    otherwise the conditional probabilities.
    """
    settings = np.asarray(series.settings, dtype=float)
    if len(set(series.settings)) < 4:
        raise ValueError("need at least 4 distinct settings to fit")
    if on == "auto":
        on = "counts" if series.counts is not None else "probabilities"
    if on == "counts":
        if series.counts is None:
            raise ValueError("series carries no counts")
        values = np.asarray(series.counts, dtype=float)
    elif on == "probabilities":
        values = np.asarray(series.probabilities, dtype=float)
    else:
        raise ValueError(f"unknown fit target {on!r}")
    design = np.column_stack([
        np.ones_like(settings),
        np.cos(2.0 * settings),
        np.sin(2.0 * settings),
    ])
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 3:
        raise ValueError("degenerate design: settings do not resolve the fringe")
    c0, c1, c2 = (float(c) for c in coeffs)
    amplitude = math.hypot(c1, c2)
    phase = math.atan2(-c2, c1)
    resid = design @ coeffs - values
    return FringeFit(offset=c0, amplitude=amplitude, phase=phase,
                     residual_rms=float(np.sqrt(np.mean(resid ** 2))))


def fit_visibility(fit: FringeFit) -> float:
    """Contrast ``amplitude/offset`` of a fitted or exact fringe, in [0, 1]."""
    if fit.offset <= 0.0:
        raise ValueError("no signal")
    # clamped, not checked: a sinusoid fit to noisy counts can
    # legitimately give amplitude/offset > 1
    return min(max(fit.amplitude / fit.offset, 0.0), 1.0)


def theoretical_visibility(alpha: float) -> float:
    """Ideal fringe contrast versus polarizer angle: ``|sin(2*alpha)|``."""
    return abs(math.sin(2.0 * alpha))


def exact_fringes(state: JointKet, polarizer, hologram, alphas) -> list:
    """Exact fringe of the sector scan at each polarizer angle (one fringe for
    ``polarizer=None``): with ``(coef, p_pol)`` from the fringe form
    (:func:`~oam_eraser.experiment._fringe_form`), ``offset = coef0/p_pol`` and
    ``amplitude*e^{i phase} = (coef1 + i coef2)/p_pol``."""
    return _exact_fringes(_moments(state, hologram.ell, hologram.arm), polarizer,
                          hologram, alphas)


def _exact_fringes(fringe, polarizer, hologram, alphas) -> list:
    if polarizer is not None and polarizer.arm != hologram.arm:
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        if len(alphas) == 1:
            return [_fringe_fit(*_fringe_at(fringe, polarizer, hologram, alphas.item()))]
    coef, p_pol = _fringe_form(fringe, polarizer, hologram, alphas)  # or its arm error
    return list(map(_fringe_fit, coef.tolist(), p_pol.tolist()))


def _fringe_fit(coef, p: float) -> FringeFit:
    o, x, y = coef
    return FringeFit(o / p, math.hypot(x, y) / p, math.atan2(y, x), 0.0)


@dataclass(frozen=True)
class VisibilityPoint:
    alpha: float
    visibility: float
    fit: FringeFit


def visibility_points(alphas, series) -> list:
    """Fitted visibility (of counts if present) of each scan at its angle."""
    return [VisibilityPoint(float(alpha), fit_visibility(fit), fit)
            for alpha, fit in zip(alphas, map(fit_sinusoid, series))]


def visibility_curve(config: ExperimentConfig, alphas, theta_points=None):
    """Exact scan visibility per polarizer angle; ``theta_points`` has no effect."""
    fits = _exact_fringes(_config_moments(config), config.analyzer_a,
                          config.analyzer_b, alphas)
    return [VisibilityPoint(float(alpha), fit_visibility(fit), fit)
            for alpha, fit in zip(alphas, fits)]


def fitted_visibility(config: ExperimentConfig):
    """Visibility and fringe of the exact scan at the configured angle."""
    point, = visibility_curve(config, [config.analyzer_a.alpha])
    return point.visibility, point.fit


#: the leak range :func:`calibrate_extinction` searches, and its final width
LEAK_BRACKET, LEAK_TOL = (0.0, 0.8), 1e-7


def calibrate_extinction(config_builder, target_visibility: float) -> float:
    """Solve for the polarizer leak at which the fitted visibility hits a target.

    ``config_builder(extinction)`` must return the experiment to evaluate;
    the fitted visibility must be monotone in the leak across
    ``LEAK_BRACKET``.  Returns the midpoint of a sign-change bracket no
    wider than ``LEAK_TOL``.

    If the builder's configs at the two ends differ only in their leaks, the
    ends, it is taken to vary only the leak: each step then reads the first
    config's fringe matrix at the tilted angle ``alpha + atan(leak)``, with
    no builder call, through the one-angle reader a config's visibility uses,
    so both give the same leak bit for bit.  Any other builder is called at
    every step.

    Each step is an ITP step (interpolate, truncate, project; Oliveira &
    Takahashi, ACM TOMS 47(1):5, 2020) with ``kappa1 = 0.2/(hi - lo)``,
    ``kappa2 = 2`` and ``n0 = 1``: a regula falsi point, nudged toward the
    midpoint, then kept close enough to it that after step ``k`` the
    bracket is no wider than bisection's after ``k - 1`` steps.  So a
    calibration takes at most ``ceil(log2(0.8/LEAK_TOL)) + 1 = 24`` steps,
    one more than bisection, and on the smooth misfit of a polarizer leak
    about 7 (bisection: 23).
    """
    lo, hi = LEAK_BRACKET
    first, last = config_builder(lo), config_builder(hi)
    f_lo, f_hi = (fitted_visibility(end)[0] - target_visibility for end in (first, last))
    if (isinstance(last, ExperimentConfig) and last.analyzer_a.extinction == hi
            and replace(last, analyzer_a=replace(last.analyzer_a, extinction=lo)) == first):
        fringe, pol = _config_moments(first), replace(first.analyzer_a, extinction=0.0)
        alpha, hologram = pol.alpha, first.analyzer_b

        def visibility(e: float) -> float:  # the per-step path's tilt and reader
            return fit_visibility(_fringe_fit(*_fringe_at(fringe, pol, hologram,
                                                          alpha + math.atan(e))))
    else:
        def visibility(e: float) -> float:
            return fitted_visibility(config_builder(e))[0]
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("target visibility not bracketed by the leak range")
    kappa1 = 0.2 / (hi - lo)
    cap = hi - lo  # the widest bracket the next step may leave
    while hi - lo > LEAK_TOL:
        mid = 0.5 * (lo + hi)
        # interpolate, then truncate toward the midpoint
        guess = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        nudge = kappa1 * (hi - lo) ** 2
        toward = math.copysign(1.0, mid - guess)
        if nudge <= abs(mid - guess):
            guess += toward * nudge
        else:
            guess = mid
        # project onto the points that leave a bracket no wider than cap
        radius = max(cap - 0.5 * (hi - lo), 0.0)
        x = guess if abs(guess - mid) <= radius else mid - toward * radius
        cap *= 0.5
        f_x = visibility(x) - target_visibility
        if f_x == 0.0:
            return x
        if f_lo * f_x < 0.0:
            hi, f_hi = x, f_x
        else:
            lo, f_lo = x, f_x
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# which-path knowledge and complementarity


def oam_fringe_visibility(state: JointKet, ell: int, arm: str = "B") -> float:
    """Visibility of the sector scan of a raw state on one arm (no polarizer)."""
    fit, = exact_fringes(state, None, el.HologramSpec(ell=ell, arm=arm), ())
    return fit_visibility(fit)


def distinguishability(state: JointKet, ell: int, path_arm: str = "B") -> float:
    """Which-path knowledge carried by the other arm about the OAM path.

    Computed as the trace norm of ``p+ rho+ - p- rho-`` where ``rho+-``
    are the full marker-arm states conditioned on the path being ``+ell``
    or ``-ell`` and ``p+-`` the path probabilities.  With equally likely
    paths this is exactly the trace distance between the two conditional
    marker states; a path of zero probability is fully distinguishable by
    absence (D = 1).  Each ``p rho`` is ``A A^dagger``, where ``A`` holds
    one path's amplitudes by marker label and path polarization.
    """
    mp, ml, pp, pl = (0, 1, 2, 3) if path_arm == "B" else (2, 3, 0, 1)
    amps = state.amplitudes
    at = {m: 2 * i for i, m in enumerate(sorted({(k[mp], k[ml]) for k in amps}))}
    paths = [[0j] * (2 * len(at)), [0j] * (2 * len(at))]  # +ell, -ell
    for k, amp in amps.items():
        if abs(k[pl]) != abs(ell):
            raise ValueError(f"state leaves the +-{ell} path subspace")
        paths[k[pl] != ell][at[k[mp], k[ml]] + k[pp]] = amp
    if min(sum(abs(a) ** 2 for a in path) for path in paths) < NULL_TOL:
        return 1.0
    plus, minus = np.array(paths, dtype=complex).reshape(2, -1, 2)
    diff = plus @ plus.conj().T - minus @ minus.conj().T
    return checked_probability(float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))


def complementarity_check(vis: float, dist: float) -> ComplementarityRecord:
    """Record ``V**2 + D**2`` and flag anything beyond the unit bound."""
    for name, val in (("visibility", vis), ("distinguishability", dist)):
        if not -1e-12 <= val <= 1.0 + 1e-9:
            raise ValueError(f"{name} outside [0, 1]")
    total = vis * vis + dist * dist
    return ComplementarityRecord(
        visibility=vis,
        distinguishability=dist,
        sum_of_squares=total,
        violated=total > 1.0 + 1e-9,
    )


# ---------------------------------------------------------------------------
# spatial patterns


def azimuthal_grid(grid_n: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(grid_n) / grid_n


def render_azimuthal_pattern(ell: int, intermodal_phase: float, grid_n: int,
                             weights=(1.0, 1.0)) -> np.ndarray:
    """Azimuthal intensity of ``w+ |ell> + w- e^{i phase} |-ell>``.

    For equal weights this is ``1 + cos(2*ell*phi - phase)`` with ``2|ell|``
    bright lobes around the circle; a single mode (one zero weight) gives a
    flat ring.  The grid must resolve the lobes: ``grid_n >= 4|ell| + 1``.
    """
    if grid_n < 4 * abs(ell) + 1:
        raise ValueError("undersampled azimuthal grid")
    if not math.isfinite(intermodal_phase):
        raise ValueError(f"non-finite intermodal phase {intermodal_phase!r}")
    phi = azimuthal_grid(grid_n)
    w_plus, w_minus = complex(weights[0]), complex(weights[1])
    total = abs(w_plus) ** 2 + abs(w_minus) ** 2
    if total <= 0.0:
        raise ValueError("all-zero mode weights")
    field = (w_plus * np.exp(1j * ell * phi)
             + w_minus * np.exp(1j * (-ell * phi + intermodal_phase)))
    return np.abs(field) ** 2 / total


def count_azimuthal_lobes(intensity: np.ndarray) -> int:
    """Cyclic count of strict local maxima (sign changes of the derivative)."""
    wrapped = np.append(intensity, intensity[0])
    signs = np.sign(np.diff(wrapped))
    signs = signs[signs != 0]
    if signs.size == 0:
        return 0
    nxt = np.roll(signs, -1)
    return int(np.sum((signs > 0) & (nxt < 0)))


def two_path_pattern(model: TwoPathModel, projection: str | None = None
                     ) -> np.ndarray:
    """Intensity of the two-path superposition, optionally marker-projected.

    Without projection the cross term is scaled by the marker overlap, so
    orthogonal markers (overlap 0) wash the fringes out entirely.
    Projecting the marker onto the diagonal (``"D"``) or anti-diagonal
    (``"A"``) basis revives complementary fringe patterns whose pointwise
    sum reproduces the fringe-free marked intensity.
    """
    u1 = np.asarray(model.u1, dtype=complex)
    u2 = np.asarray(model.u2, dtype=complex)
    phase = cmath.exp(1j * model.relative_phase)
    gamma = complex(model.marker_overlap)
    if projection is None:
        cross = 2.0 * np.real(gamma * np.conj(u1) * u2 * phase)
        return np.abs(u1) ** 2 + np.abs(u2) ** 2 + cross
    beta = math.sqrt(max(1.0 - abs(gamma) ** 2, 0.0))
    if projection == "D":
        marker2 = gamma + beta
    elif projection == "A":
        marker2 = gamma - beta
    else:
        raise ValueError(f"unknown marker projection {projection!r}")
    amp = (u1 + phase * marker2 * u2) / math.sqrt(2.0)
    return np.abs(amp) ** 2
