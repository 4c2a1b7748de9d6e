"""Walk the optical pipeline that entangles polarization with OAM.

A down-conversion source emits OAM-anticorrelated photon pairs, both
horizontally polarized.  A q-plate on arm A couples spin to orbital
angular momentum, a single-mode fiber keeps only the OAM-0 component of
arm A, and a quarter-wave plate turns the circular components into H/V.
What remains is a maximally entangled pair between the polarization of
photon A and the OAM of photon B.
"""

import math

import numpy as np

from oam_eraser.elements import FiberSpec, QPlateSpec, WavePlateSpec, apply_element
from oam_eraser.experiment import SourceSpec, build_source_state
from oam_eraser.hilbert import format_state


def purity(state, slot):
    """Purity of the reduced state of one label of ``(pol_a, l_a, pol_b, l_b)``.

    With the amplitudes laid out as a matrix, that label's values down the
    rows and the other three labels across, the reduced state is
    ``psi @ psi^dagger``, so its purity ``tr(rho^2)`` is the sum of the
    fourth powers of the singular values of ``psi``.
    """
    rows = sorted({key[slot] for key in state.amplitudes})
    cols = sorted({key[:slot] + key[slot + 1:] for key in state.amplitudes})
    psi = np.zeros((len(rows), len(cols)), dtype=complex)
    for key, amp in state.amplitudes.items():
        psi[rows.index(key[slot]), cols.index(key[:slot] + key[slot + 1:])] = amp
    return float(np.sum(np.linalg.svd(psi, compute_uv=False) ** 4))


source = SourceSpec(kind="spdc", l_max=1, spectrum="flat")
state = build_source_state(source)
print("source state (flat spectrum, |l| <= 1):")
print(format_state(state))

steps = [
    ("q-plate, q = 0.5", QPlateSpec(q=0.5, arm="A")),
    ("single-mode fiber on arm A", FiberSpec(arm="A", accepted_ell=0)),
    ("quarter-wave plate at pi/4", WavePlateSpec("quarter", math.pi / 4, arm="A")),
]

survival = 1.0
for label, element in steps:
    state, prob = apply_element(element, state)
    survival *= prob
    print(f"\nafter {label} (step probability {prob:.4f}):")
    print(format_state(state))

print(f"\ncumulative post-selection probability: {survival:.4f} (exact: 1/3)")

print(f"purity of photon A polarization: {purity(state, 0):.4f}")
print(f"purity of photon B OAM:          {purity(state, 3):.4f}")
print("both 0.5: each photon alone is maximally mixed, the pair is entangled")
