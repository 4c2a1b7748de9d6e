"""Sparse two-photon states over the (polarization x OAM) space of two arms.

A joint state lives on arm A tensor arm B, where each arm carries a
polarization qubit and an unbounded (but finitely supported) orbital
angular momentum index.  :class:`JointKet` is the package's one state type:
a sparse complex amplitude map keyed by integer-coded labels.  Operations
are pure functions returning new values, so everything here is safe to
share across threads.

A single-arm operator is a tuple of terms, in the format :func:`apply_local`
documents; it emits one output label per term and output polarization.
:func:`postselect_local` applies a non-unitary one and renormalizes, which
is also how a Born-rule projection of one arm is taken.

Conventions, pinned once and regression-locked by the test suite:

    polarization basis   H = 0, V = 1
    diagonal             D = (H + V)/sqrt(2),  A = (H - V)/sqrt(2)
    circular             R = (H - iV)/sqrt(2), L = (H + iV)/sqrt(2)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

POL_H = 0
POL_V = 1
POL_NAMES = ("H", "V")

ARMS = ("A", "B")

#: Hard guard against runaway OAM shifts (e.g. a q-plate applied in a loop).
L_CAP = 32

#: Amplitudes below this magnitude are dropped after every public operation.
PRUNE_TOL = 1e-15

#: Projection probabilities below this count as a null outcome.
NULL_TOL = 1e-14


class OamOverflowError(ValueError):
    """An operation pushed an OAM index beyond the configured cap."""


def _check_finite(amplitudes: Mapping) -> None:
    for amp in amplitudes.values():
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError("non-finite amplitude")


def checked_probability(p):
    """Clip a probability (a number or an array) into [0, 1].

    Values within ``1e-12`` of the range are rounding error and are clipped;
    anything further out is a bug upstream and raises ``ValueError``.
    """
    is_array = isinstance(p, np.ndarray)
    lo, hi = (p.min(initial=0.0), p.max(initial=0.0)) if is_array else (p, p)
    if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):  # NaN fails both
        raise ValueError(f"probability {lo if lo < 0 else hi!r} outside [0, 1]")
    if lo >= 0.0 and hi <= 1.0:
        return p
    return np.clip(p, 0.0, 1.0) if is_array else min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# joint states


@dataclass(frozen=True)
class JointKet:
    """Two-photon state.

    ``amplitudes`` maps ``(pol_a, ell_a, pol_b, ell_b)`` to a complex
    amplitude.  A state carries nothing else: the success probability of a
    non-unitary step (polarizer, fiber, hologram) is returned by the step
    that takes it, and the amplitudes stay normalized.
    """

    amplitudes: Mapping

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))


def _prune(amps: dict) -> dict:
    return {k: a for k, a in amps.items() if abs(a) >= PRUNE_TOL}


def joint_ket(amplitudes: Mapping) -> JointKet:
    """Build a normalized joint state from an amplitude map."""
    amps = {tuple(k): complex(v) for k, v in amplitudes.items()}
    _check_finite(amps)
    for (_, ell_a, _, ell_b) in amps:
        if abs(ell_a) > L_CAP or abs(ell_b) > L_CAP:
            raise OamOverflowError("OAM support overflow")
    n = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if n < NULL_TOL:
        raise ValueError("cannot normalize a null state")
    amps = _prune({k: a / n for k, a in amps.items()})
    return JointKet(amps)


# ---------------------------------------------------------------------------
# single-arm operators


#: Polarization part of the elements that act on OAM alone.
POL_IDENTITY = ((1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j))


def apply_local(terms: tuple, arm: str, state: JointKet) -> JointKet:
    """Apply an operator's terms to one arm, leaving the other arm untouched.

    A term ``(pol, ell_in, shift)`` sends ``|p, ell>`` to
    ``sum_q pol[q][p] |q, ell + shift>``, for ``ell == ell_in`` only or,
    with ``ell_in = None``, for every ``ell``.  ``pol`` is a 2x2
    polarization matrix (rows index the output polarization) held as
    Python complex numbers, and ``shift`` is the OAM shift.  Labels that no
    term accepts are annihilated, which is how the post-selecting elements
    (fiber, hologram) act.

    Unitary operators preserve the norm; non-unitary ones generally do
    not, and callers that post-select should go through
    :func:`postselect_local` to renormalize and read the probability.
    Raises :class:`OamOverflowError` when a term shifts an OAM index
    beyond ``L_CAP``.
    """
    return JointKet(_prune(local_sums(terms, arm, state.amplitudes)))


def local_sums(terms: tuple, arm: str, amplitudes: Mapping) -> dict:
    """:func:`apply_local`'s output amplitudes, before pruning."""
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}")
    out: dict = {}
    for key, amp in amplitudes.items():
        pol, ell = (key[0], key[1]) if arm == "A" else (key[2], key[3])
        for mat, ell_in, shift in terms:
            if ell_in is not None and ell != ell_in:
                continue
            ell_out = ell + shift
            if abs(ell_out) > L_CAP:
                raise OamOverflowError("OAM support overflow")
            for pol_out in (POL_H, POL_V):
                m = mat[pol_out][pol]
                if not m:  # a zero entry adds no label, nor a place in the order
                    continue
                if arm == "A":
                    new_key = (pol_out, ell_out, key[2], key[3])
                else:
                    new_key = (key[0], key[1], pol_out, ell_out)
                out[new_key] = out.get(new_key, 0.0 + 0.0j) + m * amp
    return out


def postselect_local(terms: tuple, arm: str, state: JointKet):
    """Apply a non-unitary operator's terms and renormalize.

    Returns ``(state, probability)`` where the probability is the squared
    norm of the unnormalized result, checked into [0, 1] (rounding can
    carry it past 1); a probability below ``NULL_TOL`` yields ``(None,
    0.0)`` (the null outcome).  A caller that chains post-selections
    multiplies their probabilities itself.
    """
    raw = apply_local(terms, arm, state)
    p = sum(abs(a) ** 2 for a in raw.amplitudes.values())
    if p < NULL_TOL:
        return None, 0.0
    scale = 1.0 / math.sqrt(p)
    amps = _prune({k: a * scale for k, a in raw.amplitudes.items()})
    return JointKet(amps), checked_probability(p)


def format_state(state: JointKet) -> str:
    """Readable ket expansion, one term per line, largest first."""
    lines = []
    items = sorted(state.amplitudes.items(), key=lambda kv: -abs(kv[1]))
    for (pa, ea, pb, eb), amp in items:
        mag, ph = abs(amp), cmath.phase(amp)
        lines.append(
            f"  {mag:.4f} exp({ph:+.4f}i) "
            f"|{POL_NAMES[pa]},{ea:+d}>_A |{POL_NAMES[pb]},{eb:+d}>_B")
    return "\n".join(lines)
