"""Mark and erase the OAM path information with a polarizer.

Photon B is analyzed with a rotating sector hologram.  With the arm-A
polarizer at 0 the OAM path of photon B is known and the coincidence
trace is flat; at +-pi/4 the which-path information is erased and full
fringes appear.  The fringe contrast follows |sin(2 alpha)|.
"""

import math
import os

import numpy as np

from oam_eraser.analysis import fit_sinusoid, fit_visibility, theoretical_visibility
from oam_eraser.experiment import hybrid_eraser_config, theta_scan
from oam_eraser.output import line_plot_svg, write_outputs

OUT = os.path.join(os.path.dirname(__file__), "demo_output")

print("fringe scans at three polarizer angles")
print("theta/pi  alpha=0   alpha=pi/8  alpha=pi/4")
scans = {}
for alpha in (0.0, math.pi / 8, math.pi / 4):
    config = hybrid_eraser_config(alpha=alpha)
    scans[alpha] = theta_scan(config, points=24)
for i, theta in enumerate(scans[0.0].settings):
    row = "  ".join(f"{scans[a].probabilities[i]:9.4f}" for a in scans)
    print(f"{theta / math.pi:8.3f}  {row}")

print("\nvisibility versus polarizer angle:")
print("alpha/pi   fitted V   |sin 2a|")
for alpha in np.linspace(0.0, math.pi / 4, 9):
    config = hybrid_eraser_config(alpha=float(alpha))
    series = theta_scan(config)
    vis = fit_visibility(fit_sinusoid(series))
    print(f"{alpha / math.pi:8.3f}  {vis:9.6f}  {theoretical_visibility(alpha):9.6f}")

erased = theta_scan(hybrid_eraser_config(alpha=-math.pi / 4))
write_outputs(OUT, {
    "erased_fringes.svg": line_plot_svg(
        erased.settings, erased.probabilities,
        "erased path information: full-contrast fringes"),
})
print(f"\nwrote {OUT}/erased_fringes.svg")
