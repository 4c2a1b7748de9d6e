"""Optical element catalog.

Each element spec compiles to a :class:`~oam_eraser.hilbert.LocalOperator`
acting on one arm: geometric-phase plates and wave plates are unitary,
while polarizers, single-mode fibers and analysis holograms post-select
(their application returns a success probability).

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
    POL_H,
    POL_V,
    JointKet,
    LocalOperator,
    apply_local,
    postselect_local,
)

TWO_PI = 2.0 * math.pi

#: Exact SI value, in meters per second.
SPEED_OF_LIGHT = 299_792_458.0


# ---------------------------------------------------------------------------
# element specs


@dataclass(frozen=True)
class QPlateSpec:
    """Geometric-phase plate of charge ``q`` (2q must be an integer)."""

    q: float
    arm: str = "A"

    def __post_init__(self):
        if abs(2.0 * self.q - round(2.0 * self.q)) > 1e-9:
            raise ValueError("unphysical q-plate charge")
        _check_arm(self.arm)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FiberSpec:
    """Single-mode fiber: keeps only one OAM index on its arm."""

    arm: str = "A"
    accepted_ell: int = 0

    def __post_init__(self):
        _check_arm(self.arm)
        if abs(self.accepted_ell) > L_CAP:
            raise ValueError("accepted OAM index beyond cap")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DelaySpec:
    """Extra free-space path on one arm; affects timing metadata only."""

    extra_path: float  # meters
    arm: str = "A"

    def __post_init__(self):
        if self.extra_path < 0.0:
            raise ValueError("extra path must be non-negative")
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


def qplate_operator(spec: QPlateSpec, l_cap: int = L_CAP) -> LocalOperator:
    """Spin-orbit coupling rules of a q-plate.

    ``|ell>|R> -> |ell + 2q>|L>`` and ``|ell>|L> -> |ell - 2q>|R>``: the
    circular polarization flips and the OAM index shifts by ``2q`` with a
    sign set by the input handedness.  In the H/V basis the up-shift block
    is ``[[1, i], [i, -1]]/2`` and the down-shift block is its conjugate.
    """
    shift = round(2.0 * spec.q)
    entries = {}
    for ell in range(-l_cap, l_cap + 1):
        up, down = ell + shift, ell - shift
        entries[((POL_H, up), (POL_H, ell))] = 0.5
        entries[((POL_H, up), (POL_V, ell))] = 0.5j
        entries[((POL_V, up), (POL_H, ell))] = 0.5j
        entries[((POL_V, up), (POL_V, ell))] = -0.5
        entries[((POL_H, down), (POL_H, ell))] = 0.5
        entries[((POL_H, down), (POL_V, ell))] = -0.5j
        entries[((POL_V, down), (POL_H, ell))] = -0.5j
        entries[((POL_V, down), (POL_V, ell))] = -0.5
    return LocalOperator(entries, unitary=True)


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


def waveplate_operator(spec: WavePlateSpec, l_cap: int = L_CAP) -> LocalOperator:
    jones = waveplate_jones(spec.kind, spec.fast_axis)
    entries = {}
    for ell in range(-l_cap, l_cap + 1):
        for p_out in (POL_H, POL_V):
            for p_in in (POL_H, POL_V):
                amp = jones[p_out, p_in]
                if abs(amp) > 0.0:
                    entries[((p_out, ell), (p_in, ell))] = amp
    return LocalOperator(entries, unitary=True)


def transmission_state(spec: PolarizerSpec) -> tuple:
    """Normalized (H, V) components of the polarizer transmission state."""
    ca, sa = math.cos(spec.alpha), math.sin(spec.alpha)
    e = spec.extinction
    scale = 1.0 / math.sqrt(1.0 + e * e)
    return ((ca - e * sa) * scale, (sa + e * ca) * scale)


def polarizer_operator(spec: PolarizerSpec, l_cap: int = L_CAP) -> LocalOperator:
    th, tv = transmission_state(spec)
    comps = {POL_H: th, POL_V: tv}
    entries = {}
    for ell in range(-l_cap, l_cap + 1):
        for p_out in (POL_H, POL_V):
            for p_in in (POL_H, POL_V):
                amp = comps[p_out] * np.conj(comps[p_in])
                if abs(amp) > 0.0:
                    entries[((p_out, ell), (p_in, ell))] = complex(amp)
    return LocalOperator(entries, unitary=False)


def polarizer_apply(spec: PolarizerSpec, state: JointKet):
    """Project the arm's polarization through the polarizer.

    Returns ``(state, probability)``; total extinction of the state gives
    the null outcome ``(None, 0.0)``.
    """
    return postselect_local(polarizer_operator(spec), spec.arm, state)


def fiber_operator(spec: FiberSpec, l_cap: int = L_CAP) -> LocalOperator:
    entries = {}
    for pol in (POL_H, POL_V):
        key = (pol, spec.accepted_ell)
        entries[(key, key)] = 1.0
    return LocalOperator(entries, unitary=False)


def fiber_postselect(spec: FiberSpec, state: JointKet):
    """Keep only amplitudes whose OAM on the fiber's arm is the accepted one."""
    return postselect_local(fiber_operator(spec), spec.arm, state)


def sector_coefficients(ell: int, theta: float) -> dict:
    """OAM components of the sector state ``(|ell> + e^{2i theta}|-ell>)/sqrt2``."""
    root = 1.0 / math.sqrt(2.0)
    return {ell: root + 0.0j, -ell: root * complex(math.cos(2 * theta),
                                                   math.sin(2 * theta))}


def sector_projector(spec: HologramSpec, theta: float | None = None,
                     l_cap: int = L_CAP) -> LocalOperator:
    """Rank-1 projector (per polarization) onto the sector state.

    ``binary`` mode multiplies the projector by the matched first-order
    mask coupling, so probabilities scale by its square (about 0.405).
    """
    angle = spec.theta if theta is None else theta
    coeffs = sector_coefficients(spec.ell, angle)
    scale = binary_coupling(spec.ell) if spec.mode == "binary" else 1.0
    entries = {}
    for pol in (POL_H, POL_V):
        for ell_out, c_out in coeffs.items():
            for ell_in, c_in in coeffs.items():
                entries[((pol, ell_out), (pol, ell_in))] = \
                    scale * c_out * c_in.conjugate()
    return LocalOperator(entries, unitary=False)


def hologram_apply(spec: HologramSpec, state: JointKet,
                   theta: float | None = None):
    return postselect_local(sector_projector(spec, theta), spec.arm, state)


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


def apply_element(spec, state: JointKet, l_cap: int = L_CAP):
    """Apply any element spec; returns ``(state_or_None, probability)``."""
    if isinstance(spec, QPlateSpec):
        return apply_local(qplate_operator(spec, l_cap), spec.arm, state, l_cap), 1.0
    if isinstance(spec, WavePlateSpec):
        return apply_local(waveplate_operator(spec, l_cap), spec.arm, state, l_cap), 1.0
    if isinstance(spec, PolarizerSpec):
        return polarizer_apply(spec, state)
    if isinstance(spec, FiberSpec):
        return fiber_postselect(spec, state)
    if isinstance(spec, HologramSpec):
        return hologram_apply(spec, state)
    if isinstance(spec, DelaySpec):
        return state, 1.0
    raise TypeError(f"not an element spec: {spec!r}")
