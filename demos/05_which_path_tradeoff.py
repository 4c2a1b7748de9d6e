"""Fringe contrast against which-path knowledge.

For any pure state of the (polarization A) x (OAM B) pair, the fringe
visibility V of the arm-B sector scan and the which-path knowledge D
stored in arm A satisfy V^2 + D^2 = 1.  Partially rotating the marker
polarization moves smoothly between the wave-like and particle-like
extremes; the same trade-off shows up in the generic two-path picture.
"""

import math

import numpy as np

from oam_eraser.analysis import (
    TwoPathModel,
    complementarity_check,
    distinguishability,
    oam_fringe_visibility,
    two_path_pattern,
)
from oam_eraser.hilbert import POL_H, POL_V, joint_ket

print("marker rotated by chi away from the path-correlated basis:")
print("  chi/pi       V         D      V^2+D^2")
for chi in np.linspace(0.0, math.pi / 4, 6):
    # paths +-1 on photon B; markers H and (cos chi H + sin chi V) on A
    state = joint_ket({
        (POL_H, 0, POL_H, 1): 1 / math.sqrt(2),
        (POL_H, 0, POL_H, -1): math.sin(chi) / math.sqrt(2),
        (POL_V, 0, POL_H, -1): math.cos(chi) / math.sqrt(2),
    })
    vis = oam_fringe_visibility(state, ell=1)
    dist = distinguishability(state, ell=1)
    record = complementarity_check(vis, dist)
    print(f"  {chi / math.pi:6.3f}  {vis:8.4f}  {dist:8.4f}  {record.sum_of_squares:9.6f}")

print("\nrandom pure states stay on the unit circle:")
rng = np.random.default_rng(42)
worst = 0.0
for _ in range(200):
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    state = joint_ket({
        (POL_H, 0, POL_H, 1): raw[0], (POL_H, 0, POL_H, -1): raw[1],
        (POL_V, 0, POL_H, 1): raw[2], (POL_V, 0, POL_H, -1): raw[3],
    })
    total = complementarity_check(oam_fringe_visibility(state, ell=1),
                                  distinguishability(state, ell=1)).sum_of_squares
    worst = max(worst, abs(total - 1.0))
# the bound, not the rounding residue, so the line holds across summation orders
print(f"  largest |V^2 + D^2 - 1| over 200 draws: "
      f"{'below' if worst < 1e-12 else 'ABOVE'} 1e-12")

print("\ngeneric two-path picture with orthogonal markers:")
x = np.linspace(0.0, 4 * math.pi, 8, endpoint=False)
model = TwoPathModel(marker_overlap=0.0, relative_phase=0.0,
                     u1=np.exp(1j * x), u2=np.ones_like(x))
marked = two_path_pattern(model)
diag = two_path_pattern(model, projection="D")
anti = two_path_pattern(model, projection="A")
print("  x/pi     marked   D-projected  A-projected  D+A")
for xi, m, d, a in zip(x, marked, diag, anti):
    print(f"  {xi / math.pi:5.2f}  {m:9.4f}  {d:11.4f}  {a:11.4f}  {d + a:6.4f}")
print("  projections revive complementary fringes; their sum is fringe-free")
