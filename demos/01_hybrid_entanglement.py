"""Walk the optical pipeline that entangles polarization with OAM.

A down-conversion source emits OAM-anticorrelated photon pairs, both
horizontally polarized.  A q-plate on arm A couples spin to orbital
angular momentum, a single-mode fiber keeps only the OAM-0 component of
arm A, and a quarter-wave plate turns the circular components into H/V.
What remains is a maximally entangled pair between the polarization of
photon A and the OAM of photon B.
"""

import math

from oam_eraser.elements import FiberSpec, QPlateSpec, WavePlateSpec, apply_element
from oam_eraser.experiment import SourceSpec, build_source_state
from oam_eraser.hilbert import format_state, reduced_density

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

rho_a = reduced_density(state, "A", "pol")
rho_b = reduced_density(state, "B", "oam")
print(f"purity of photon A polarization: {rho_a.purity():.4f}")
print(f"purity of photon B OAM:          {rho_b.purity():.4f}")
print("both 0.5: each photon alone is maximally mixed, the pair is entangled")
