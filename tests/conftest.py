import cmath
import math

import pytest

from oam_eraser.hilbert import POL_H, POL_V, joint_ket
from oam_eraser.experiment import hybrid_eraser_config

ROOT2 = math.sqrt(2.0)


def bell_circular(ell: int = 1):
    """(|R>_A |ell>_B + |L>_A |-ell>_B)/sqrt(2), arm A at OAM 0, arm B in H."""
    r = 0.5  # components of R/L in the H/V basis, times the 1/sqrt2 weight
    return joint_ket({
        (POL_H, 0, POL_H, ell): r,
        (POL_V, 0, POL_H, ell): -0.5j,
        (POL_H, 0, POL_H, -ell): r,
        (POL_V, 0, POL_H, -ell): 0.5j,
    })


def marked_pair(ell: int, delta: float):
    """(|H>_A |ell>_B + e^{i delta} |V>_A |-ell>_B)/sqrt(2)."""
    phase = cmath.exp(1j * delta)
    return joint_ket({
        (POL_H, 0, POL_H, ell): 1.0 / ROOT2,
        (POL_V, 0, POL_H, -ell): phase / ROOT2,
    })


@pytest.fixture
def canonical_config():
    return hybrid_eraser_config(alpha=0.0)


def greedy_coincidences(times_a, times_b, gate):
    """Reference matcher: one click at a time, with a pointer per sorted
    stream.  Current clicks within the gate match and both pointers move on;
    otherwise the earlier click is dropped."""
    i = j = matched = 0
    while i < len(times_a) and j < len(times_b):
        dt = times_a[i] - times_b[j]
        if abs(dt) <= gate:
            matched += 1
            i += 1
            j += 1
        elif dt < 0:
            i += 1
        else:
            j += 1
    return matched
