"""Optical element catalog.

Each element spec compiles to a tuple of one to four operator terms on one
arm, in the format of :func:`~oam_eraser.hilbert.apply_local`:

    wave plate   its Jones matrix, on every OAM index
    polarizer    the projector ``t t^T`` onto its transmission state
    q-plate      an up-shift block on ``ell + 2q`` and a down-shift block
                 on ``ell - 2q``
    fiber        the identity on the accepted OAM index only (an OAM mask)
    hologram     one term ``c_a c_b* I`` from ``|b>`` to ``|a>`` for each
                 ``a, b`` in ``{ell, -ell}`` (a rank-1 sector projector)

Plates are unitary, while polarizers, single-mode fibers and analysis
holograms post-select (their application returns a success probability).

Retarder convention (frozen; see :func:`waveplate_jones`): the fast-axis
component is unretarded and the slow-axis component is multiplied by
``exp(-i * retardance)``.  Together with the circular basis
``R = (H - iV)/sqrt(2)``, ``L = (H + iV)/sqrt(2)`` this fixes every phase
in the simulator; the choice is pinned by the quarter-wave-plate tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    ARMS,
    L_CAP,
    POL_IDENTITY,
    JointKet,
    apply_local,
    postselect_local,
)

TWO_PI = 2.0 * math.pi

#: Exact SI value, in meters per second.
SPEED_OF_LIGHT = 299_792_458.0


# ---------------------------------------------------------------------------
# element specs


@dataclass(frozen=True, slots=True)
class QPlateSpec:
    """Geometric-phase plate of charge ``q`` (2q must be an integer)."""

    q: float
    arm: str = "A"

    def __post_init__(self):
        if (not math.isfinite(self.q)
                or abs(2.0 * self.q - round(2.0 * self.q)) > 1e-9):
            raise ValueError("unphysical q-plate charge")
        _check_arm(self.arm)


@dataclass(frozen=True, slots=True)
class WavePlateSpec:
    kind: str  # "quarter" or "half"
    fast_axis: float  # radians from horizontal, in [0, pi)
    arm: str = "A"

    def __post_init__(self):
        if self.kind not in ("quarter", "half"):
            raise ValueError(f"unknown wave-plate kind {self.kind!r}")
        if not 0.0 <= self.fast_axis < math.pi:
            raise ValueError("fast axis must lie in [0, pi)")
        _check_arm(self.arm)


@dataclass(frozen=True, slots=True)
class PolarizerSpec:
    """Linear polarizer at ``alpha`` with an amplitude leak ``extinction``.

    The element projects the arm onto the transmission state
    ``(|alpha> + extinction * |alpha + pi/2>) / sqrt(1 + extinction**2)``:
    an ideal polarizer for ``extinction = 0``, and for small nonzero values
    the minimal one-parameter model of imperfect polarization filtering
    (it behaves exactly like an ideal polarizer tilted by
    ``atan(extinction)``).
    """

    alpha: float
    extinction: float = 0.0
    arm: str = "A"

    def __post_init__(self):
        if not 0.0 <= self.extinction <= 1.0:
            raise ValueError("extinction must lie in [0, 1]")
        _check_arm(self.arm)


@dataclass(frozen=True, slots=True)
class FiberSpec:
    """Single-mode fiber: keeps only one OAM index on its arm."""

    arm: str = "A"
    accepted_ell: int = 0

    def __post_init__(self):
        _check_arm(self.arm)
        if abs(self.accepted_ell) > L_CAP:
            raise ValueError("accepted OAM index beyond cap")


@dataclass(frozen=True, slots=True)
class HologramSpec:
    """Azimuthal analyzer for the ``{+ell, -ell}`` subspace.

    Projects onto the sector state ``(|ell> + exp(2i*theta)|-ell>)/sqrt(2)``.
    In ``binary`` mode the projector is scaled by the first-order coupling
    amplitude of a two-level angular mask (magnitude ``2/pi``), computed
    by :func:`binary_mask_overlap`.
    """

    ell: int
    theta: float = 0.0
    mode: str = "ideal"
    arm: str = "B"

    def __post_init__(self):
        if self.ell == 0:
            raise ValueError("hologram subspace index must be nonzero")
        if self.mode not in ("ideal", "binary"):
            raise ValueError(f"unknown hologram mode {self.mode!r}")
        _check_arm(self.arm)


@dataclass(frozen=True, slots=True)
class DelaySpec:
    """Extra free-space path on one arm, finite and non-negative; affects
    timing metadata only."""

    extra_path: float  # meters
    arm: str = "A"

    def __post_init__(self):
        if not 0.0 <= self.extra_path < math.inf:
            raise ValueError("extra path must be finite and non-negative")
        _check_arm(self.arm)

    @property
    def delay_seconds(self) -> float:
        return self.extra_path / SPEED_OF_LIGHT


ElementSpec = (QPlateSpec, WavePlateSpec, PolarizerSpec, FiberSpec,
               HologramSpec, DelaySpec)

_ELEMENT_NAMES = {
    QPlateSpec: "qplate",
    WavePlateSpec: "waveplate",
    PolarizerSpec: "polarizer",
    FiberSpec: "fiber",
    HologramSpec: "hologram",
    DelaySpec: "delay",
}


def element_name(spec) -> str:
    return _ELEMENT_NAMES[type(spec)]


def _check_arm(arm: str) -> None:
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}")


# ---------------------------------------------------------------------------
# compilers


#: q-plate blocks in the H/V basis: R -> L with ``ell + 2q`` and L -> R with
#: ``ell - 2q``.
_QPLATE_UP = ((0.5 + 0.0j, 0.5j), (0.5j, -0.5 + 0.0j))
_QPLATE_DOWN = ((0.5 + 0.0j, -0.5j), (-0.5j, -0.5 + 0.0j))


def qplate_operator(spec: QPlateSpec) -> tuple:
    """Spin-orbit coupling rules of a q-plate.

    ``|ell>|R> -> |ell + 2q>|L>`` and ``|ell>|L> -> |ell - 2q>|R>``: the
    circular polarization flips and the OAM index shifts by ``2q`` with a
    sign set by the input handedness.  In the H/V basis the up-shift block
    is ``[[1, i], [i, -1]]/2`` and the down-shift block is its conjugate.
    """
    shift = round(2.0 * spec.q)
    return (_QPLATE_UP, None, shift), (_QPLATE_DOWN, None, -shift)


def waveplate_jones(kind: str, fast_axis: float) -> np.ndarray:
    """Jones matrix of a retarder, fast axis at ``fast_axis`` radians.

    With ``c = cos(2*fa)``, ``s = sin(2*fa)`` and ``r = exp(-i*retardance)``
    (``r = -i`` quarter, ``r = -1`` half):

        [[(1+c)/2 + r(1-c)/2,   s(1-r)/2        ],
         [ s(1-r)/2,            (1-c)/2 + r(1+c)/2]]

    Frozen reference values: the quarter-wave plate at ``fa = pi/4`` is
    ``[[1-i, 1+i], [1+i, 1-i]]/2``, which maps ``R -> exp(-i*pi/4) H`` and
    ``L -> exp(+i*pi/4) V``.
    """
    retard = {"quarter": -1.0j, "half": -1.0 + 0.0j}[kind]
    c2 = math.cos(2.0 * fast_axis)
    s2 = math.sin(2.0 * fast_axis)
    d00 = (1.0 + c2) / 2.0 + retard * (1.0 - c2) / 2.0
    d01 = s2 * (1.0 - retard) / 2.0
    d11 = (1.0 - c2) / 2.0 + retard * (1.0 + c2) / 2.0
    return np.array([[d00, d01], [d01, d11]], dtype=complex)


def waveplate_operator(spec: WavePlateSpec) -> tuple:
    jones = waveplate_jones(spec.kind, spec.fast_axis).tolist()
    return ((tuple(map(tuple, jones)), None, 0),)


def transmission_state(alpha: float, extinction: float) -> tuple:
    """Normalized (H, V) components of the polarizer transmission state."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    e = extinction
    scale = 1.0 / math.sqrt(1.0 + e * e)
    return float((ca - e * sa) * scale), float((sa + e * ca) * scale)


def polarizer_operator(spec: PolarizerSpec) -> tuple:
    """Projector ``t t^T`` onto the (real) transmission state ``t``."""
    t = transmission_state(spec.alpha, spec.extinction)
    pol = tuple(tuple(complex(t_out * t_in) for t_in in t) for t_out in t)
    return ((pol, None, 0),)


def fiber_operator(spec: FiberSpec) -> tuple:
    """OAM mask: passes ``accepted_ell`` in either polarization."""
    return ((POL_IDENTITY, spec.accepted_ell, 0),)


def sector_coefficients(theta) -> np.ndarray:
    """Components ``(c_ell, c_-ell)`` of the sector state
    ``(|ell> + e^{2i theta}|-ell>)/sqrt2``.

    ``theta`` may be one angle or an array of them; the components lie
    along a new last axis.
    """
    two = 2.0 * np.asarray(theta, dtype=float)
    root = 1.0 / math.sqrt(2.0)
    minus = root * (np.cos(two) + 1j * np.sin(two))
    return np.stack((np.full_like(minus, root), minus), axis=-1)


def sector_projector(spec: HologramSpec) -> tuple:
    """Rank-1 projector (per polarization) onto the sector state.

    One term per pair of OAM indices ``a, b`` in ``{ell, -ell}``, mapping
    ``|b>`` to ``|a>`` with weight ``c_a c_b*``.  ``binary`` mode multiplies
    the projector by the matched first-order mask coupling, so
    probabilities scale by its square (about 0.405).
    """
    coeffs = dict(zip((spec.ell, -spec.ell), sector_coefficients(spec.theta).tolist()))
    scale = binary_coupling(spec.ell) if spec.mode == "binary" else 1.0
    terms = []
    for a, c_a in coeffs.items():
        for b, c_b in coeffs.items():
            w = scale * c_a * c_b.conjugate()
            terms.append((((w, 0.0j), (0.0j, w)), b, a - b))
    return tuple(terms)


# ---------------------------------------------------------------------------
# binary angular masks


def binary_mask_overlap(n_sectors: int, theta: float,
                        ell_in: int, ell_out: int) -> complex:
    """Coupling amplitude of a rotated two-level angular mask.

    ``c = (1/2pi) * integral of m(phi - theta) * exp(i (ell_in - ell_out) phi)``
    where ``m`` is the ``n_sectors``-sector square wave taking values +-1.
    Integrated exactly on each constant-sign piece between sector
    boundaries: ``(exp(ik hi) - exp(ik lo)) / (ik)``, or ``hi - lo`` for
    ``k = 0``.
    """
    if n_sectors < 2 or n_sectors % 2 != 0:
        raise ValueError("mask needs an even sector count >= 2")
    k = ell_in - ell_out
    width = TWO_PI / n_sectors

    def sign_at(phi: float) -> float:
        u = (phi - theta) % TWO_PI
        sector = int(u // width)
        if sector >= n_sectors:  # guard against the u == 2*pi edge
            sector = n_sectors - 1
        return 1.0 if sector % 2 == 0 else -1.0

    cuts = sorted({0.0, TWO_PI, *(((theta + s * width) % TWO_PI)
                                  for s in range(n_sectors))})
    total = 0.0 + 0.0j
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-13:
            continue
        piece = (hi - lo if k == 0 else
                 (cmath.exp(1j * k * hi) - cmath.exp(1j * k * lo)) / (1j * k))
        total += sign_at(0.5 * (lo + hi)) * piece
    return total / TWO_PI


@lru_cache(maxsize=None)
def binary_coupling(ell: int) -> float:
    """Matched first-order coupling magnitude of the ``2|ell|``-sector mask."""
    return abs(binary_mask_overlap(2 * abs(ell), 0.0, abs(ell), 0))


# ---------------------------------------------------------------------------
# uniform application


def apply_element(spec, state: JointKet):
    """Apply any element spec; returns ``(state_or_None, probability)``."""
    if isinstance(spec, QPlateSpec):
        return apply_local(qplate_operator(spec), spec.arm, state), 1.0
    if isinstance(spec, WavePlateSpec):
        return apply_local(waveplate_operator(spec), spec.arm, state), 1.0
    if isinstance(spec, PolarizerSpec):
        return postselect_local(polarizer_operator(spec), spec.arm, state)
    if isinstance(spec, FiberSpec):
        return postselect_local(fiber_operator(spec), spec.arm, state)
    if isinstance(spec, HologramSpec):
        return postselect_local(sector_projector(spec), spec.arm, state)
    if isinstance(spec, DelaySpec):
        return state, 1.0
    raise TypeError(f"not an element spec: {spec!r}")
