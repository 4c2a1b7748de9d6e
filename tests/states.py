"""Single-arm states for the tests, built into the package's joint states.

The package has one state type, the joint two-photon ``JointKet``.  The
tests still need named single-arm states to write products, expected
post-states and projections by hand, so they get them here: a single-arm
state is a plain ``{(pol, ell): amplitude}`` dict, a product goes through
``joint_ket``, and a projection onto one arm goes through the package's
``postselect_local`` as a rank-1 operator.  Callers pass normalized
single-arm states; nothing here checks it.  :func:`analyzer_probabilities`
reads the package's analyzer on any joint state, not only a pipeline's.
"""

import math

from oam_eraser import experiment
from oam_eraser.hilbert import POL_H, POL_V, joint_ket, postselect_local

_S = 1 / math.sqrt(2)

#: The hilbert docstring's conventions, H = 0 and V = 1.
_POL_STATES = {
    "H": {POL_H: 1.0},
    "V": {POL_V: 1.0},
    "D": {POL_H: _S, POL_V: _S},
    "A": {POL_H: _S, POL_V: -_S},
    "R": {POL_H: _S, POL_V: -1j * _S},
    "L": {POL_H: _S, POL_V: 1j * _S},
}


def pol(name: str, ell: int = 0) -> dict:
    """One of H, V, D, A, R, L at a fixed OAM index."""
    return {(p, ell): complex(c) for p, c in _POL_STATES[name].items()}


def normalized(amplitudes: dict) -> dict:
    n = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
    return {k: complex(a) / n for k, a in amplitudes.items()}


def product(a: dict, b: dict):
    """The joint state ``|a>_A |b>_B``."""
    return joint_ket({(pa, ea, pb, eb): va * vb
                      for (pa, ea), va in a.items() for (pb, eb), vb in b.items()})


def overlap(a, b) -> complex:
    """Inner product <a|b> of two joint states; the tests take two states
    as equal up to one global phase when ``abs(overlap(a, b)) == 1``."""
    return sum((amp.conjugate() * b.amplitudes.get(k, 0j)
                for k, amp in a.amplitudes.items()), 0j)


def project(state, arm: str, target: dict):
    """Born-rule projection of one arm onto a single-arm state.

    The rank-1 projector ``|t><t|`` becomes one ``apply_local`` term per
    pair of OAM indices, from ``|p, b>`` to ``|q, a>`` with weight
    ``t(q, a) t(p, b)*``; returns ``postselect_local``'s
    ``(post_state, probability)``.
    """
    ells = sorted({ell for _, ell in target})
    terms = tuple(
        (tuple(tuple(target.get((q, a), 0j) * target.get((p, b), 0j).conjugate()
                     for p in (POL_H, POL_V)) for q in (POL_H, POL_V)), b, a - b)
        for a in ells for b in ells)
    return postselect_local(terms, arm, state)


def analyzer_probabilities(state, polarizer, hologram, alphas, thetas):
    """Joint and conditional analyzer probabilities of a raw state over an
    (alpha, theta) grid, from the package's fringe matrix and harmonic rows.

    Each joint probability is one harmonic ``o + Re(c e^{2i theta})`` read from
    the state's fringe matrix (``experiment._fringe_form``); the conditional
    divides out ``p_pol`` to within about 2e-16/p_pol, so 1e-12 holds for
    ``p_pol`` above 2e-4.  A joint probability below ``NULL_TOL * p_pol``, a
    conditional below ``NULL_TOL``, is set to exactly 0, and so is that
    conditional.  Returns ``(joint, conditional)`` of shape ``(len(alphas),
    len(thetas))``; ``polarizer=None`` analyzes the hologram arm alone, in one row.
    """
    fringe = experiment._moments(state, hologram.ell, hologram.arm)
    return experiment._analyzer_core(fringe, polarizer, hologram, alphas,
                                     experiment._harmonics(thetas))
