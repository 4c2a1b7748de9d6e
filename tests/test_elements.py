import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oam_eraser.elements import (
    DelaySpec,
    FiberSpec,
    HologramSpec,
    PolarizerSpec,
    QPlateSpec,
    WavePlateSpec,
    apply_element,
    binary_coupling,
    binary_mask_overlap,
    qplate_operator,
    sector_coefficients,
    waveplate_jones,
    waveplate_operator,
)
from oam_eraser.hilbert import POL_H, POL_V, apply_local, joint_ket

from conftest import bell_circular, marked_pair
from states import overlap, pol, product

ROOT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# q-plate


def test_qplate_shifts_right_circular_up_and_flips():
    op = qplate_operator(QPlateSpec(q=0.5))
    state = product(pol("R", 0), pol("H", 0))
    out = apply_local(op, "A", state)
    expected = product(pol("L", 1), pol("H", 0))
    assert abs(overlap(expected, out)) == pytest.approx(1.0, abs=1e-12)


def test_qplate_on_horizontal_splits_both_ways():
    op = qplate_operator(QPlateSpec(q=0.5))
    state = product(pol("H", 0), pol("H", 0))
    out = apply_local(op, "A", state)
    expected = joint_ket({
        # (|1>|L> + |-1>|R>)/sqrt2 written in the H/V basis
        (POL_H, 1, POL_H, 0): 0.5,
        (POL_V, 1, POL_H, 0): 0.5j,
        (POL_H, -1, POL_H, 0): 0.5,
        (POL_V, -1, POL_H, 0): -0.5j,
    })
    assert abs(overlap(expected, out)) == pytest.approx(1.0, abs=1e-12)


def test_qplate_twice_returns_to_start():
    op = qplate_operator(QPlateSpec(q=0.5))
    state = product(pol("R", 0), pol("H", 0))
    out = apply_local(op, "A", apply_local(op, "A", state))
    assert abs(overlap(state, out)) == pytest.approx(1.0, abs=1e-12)


def test_qplate_flips_circular_handedness_for_random_oam():
    rng = np.random.default_rng(5)
    op = qplate_operator(QPlateSpec(q=1.0))
    for _ in range(10):
        ell = int(rng.integers(-10, 10))
        for name, flipped, shift in (("R", "L", 2), ("L", "R", -2)):
            state = product(pol(name, ell), pol("H", 0))
            out = apply_local(op, "A", state)
            expected = product(pol(flipped, ell + shift), pol("H", 0))
            assert abs(overlap(expected, out)) == pytest.approx(1.0, abs=1e-12)


def test_qplate_rejects_non_half_integer_charge():
    with pytest.raises(ValueError, match="unphysical q-plate charge"):
        QPlateSpec(q=0.3)


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_qplate_rejects_non_finite_charge(q):
    with pytest.raises(ValueError, match="unphysical q-plate charge"):
        QPlateSpec(q=q)


def test_zero_charge_qplate_is_a_half_wave_plate():
    # both shift blocks land on the input OAM: (U_up + U_down) = diag(1, -1)
    op = qplate_operator(QPlateSpec(q=0.0))
    state = product(pol("D", 3), pol("H", 0))
    out = apply_local(op, "A", state)
    expected = product(pol("A", 3), pol("H", 0))
    assert overlap(expected, out) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# wave plates


def test_quarter_wave_plate_matrix_is_frozen():
    got = waveplate_jones("quarter", math.pi / 4)
    want = np.array([[0.5 - 0.5j, 0.5 + 0.5j],
                     [0.5 + 0.5j, 0.5 - 0.5j]])
    assert np.allclose(got, want, atol=1e-15)
    assert np.allclose(waveplate_jones("half", 0.0), np.diag([1.0, -1.0]), atol=0)


def test_quarter_wave_plate_turns_bell_into_marked_pair():
    state = bell_circular(ell=1)
    op = waveplate_operator(WavePlateSpec("quarter", math.pi / 4, arm="A"))
    out = apply_local(op, "A", state)
    expected = marked_pair(ell=1, delta=math.pi / 2)
    assert abs(overlap(expected, out)) == pytest.approx(1.0, abs=1e-10)


def test_half_wave_plate_twice_is_identity():
    op = waveplate_operator(WavePlateSpec("half", 0.0, arm="B"))
    state = product(pol("L", 2), pol("D", -1))
    out = apply_local(op, "B", apply_local(op, "B", state))
    assert abs(overlap(state, out)) == pytest.approx(1.0, abs=1e-12)


def test_quarter_wave_plate_linearizes_circular_light():
    # oracle: multiply the frozen matrix by hand; R lands on H up to phase
    out_vec = waveplate_jones("quarter", math.pi / 4) @ np.array([1, -1j]) / ROOT2
    assert abs(out_vec[1]) == pytest.approx(0.0, abs=1e-15)
    assert abs(out_vec[0]) == pytest.approx(1.0, abs=1e-15)
    op = waveplate_operator(WavePlateSpec("quarter", math.pi / 4, arm="A"))
    out = apply_local(op, "A", product(pol("R"), pol("H", 0)))
    left = product(pol("L"), pol("H", 0))
    assert abs(overlap(left, out)) == pytest.approx(1 / ROOT2, abs=1e-12)


def test_waveplate_validation():
    with pytest.raises(ValueError, match="kind"):
        WavePlateSpec("third", 0.0)
    with pytest.raises(ValueError, match="fast axis"):
        WavePlateSpec("quarter", math.pi)


# ---------------------------------------------------------------------------
# polarizer


def test_ideal_polarizer_passes_aligned_light():
    state = product(pol("H"), pol("H", 0))
    out, prob = apply_element(PolarizerSpec(alpha=0.0), state)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert abs(overlap(state, out)) == pytest.approx(1.0, abs=1e-12)


def test_ideal_polarizer_blocks_crossed_light():
    state = product(pol("V"), pol("H", 0))
    out, prob = apply_element(PolarizerSpec(alpha=0.0), state)
    assert out is None
    assert prob == 0.0


def test_polarizer_at_45_degrees_halves_horizontal():
    state = product(pol("H"), pol("H", 0))
    out, prob = apply_element(PolarizerSpec(alpha=math.pi / 4), state)
    assert prob == pytest.approx(0.5, abs=1e-12)
    expected = product(pol("D"), pol("H", 0))
    assert abs(overlap(expected, out)) == pytest.approx(1.0, abs=1e-12)


def test_ideal_polarizer_is_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(10):
        alpha = float(rng.uniform(0, math.pi))
        spec = PolarizerSpec(alpha=alpha)
        state = product(pol("D", 1), pol("H", -1))
        once, p1 = apply_element(spec, state)
        if once is None:
            continue
        twice, p2 = apply_element(spec, once)
        assert p2 == pytest.approx(1.0, abs=1e-12)
        assert abs(overlap(once, twice)) == pytest.approx(1.0, abs=1e-12)


def test_polarizer_extinction_range_checked():
    with pytest.raises(ValueError, match="extinction"):
        PolarizerSpec(alpha=0.0, extinction=1.5)


# ---------------------------------------------------------------------------
# fiber post-selection


def test_fiber_reduces_spread_state_to_bell_pair():
    # flat three-term spectrum through the q=0.5 plate: only the l=-+1
    # source terms reach OAM 0 on arm A, so the success probability is 1/3
    amps = {}
    for ell in (-1, 0, 1):
        amps[(POL_H, ell, POL_H, -ell)] = 1 / math.sqrt(3)
    state = apply_local(qplate_operator(QPlateSpec(q=0.5)), "A", joint_ket(amps))
    out, prob = apply_element(FiberSpec(arm="A", accepted_ell=0), state)
    assert prob == pytest.approx(1 / 3, abs=1e-12)
    # post-selected state pairs L_A with ell=+1 and R_A with ell=-1
    expected = joint_ket({
        (POL_H, 0, POL_H, 1): 0.5,
        (POL_V, 0, POL_H, 1): 0.5j,
        (POL_H, 0, POL_H, -1): 0.5,
        (POL_V, 0, POL_H, -1): -0.5j,
    })
    assert abs(overlap(expected, out)) == pytest.approx(1.0, abs=1e-12)


def test_fiber_passes_matching_state_unchanged():
    state = product(pol("D", 0), pol("H", 2))
    out, prob = apply_element(FiberSpec(arm="A", accepted_ell=0), state)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert abs(overlap(state, out)) == pytest.approx(1.0, abs=1e-12)


def test_fiber_with_no_matching_component_is_null():
    state = product(pol("H", 3), pol("H", 0))
    out, prob = apply_element(FiberSpec(arm="A", accepted_ell=0), state)
    assert out is None and prob == 0.0


# ---------------------------------------------------------------------------
# holograms and binary masks


def test_sector_projection_of_single_mode_is_half():
    state = product(pol("H", 0), pol("H", 1))
    _, prob = apply_element(HologramSpec(ell=1, theta=0.0, arm="B"), state)
    assert prob == pytest.approx(0.5, abs=1e-12)


def test_sector_state_projects_onto_itself():
    theta = 0.7
    coeffs = sector_coefficients(theta)
    state = joint_ket({(POL_H, 0, POL_H, ell): c for ell, c in zip((1, -1), coeffs)})
    _, prob = apply_element(HologramSpec(ell=1, theta=theta, arm="B"), state)
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_binary_mode_scales_by_first_order_coupling():
    rng = np.random.default_rng(31)
    for _ in range(5):
        z1 = complex(*rng.normal(size=2))
        z2 = complex(*rng.normal(size=2))
        state = joint_ket({(POL_H, 0, POL_H, 1): z1, (POL_H, 0, POL_H, -1): z2})
        theta = float(rng.uniform(0, 2 * math.pi))
        _, p_ideal = apply_element(HologramSpec(ell=1, theta=theta, arm="B"), state)
        _, p_binary = apply_element(
            HologramSpec(ell=1, theta=theta, mode="binary", arm="B"), state)
        assert p_binary == pytest.approx(p_ideal * (2 / math.pi) ** 2, abs=1e-6)


def test_matched_first_order_coupling_is_two_over_pi():
    # closed-form Fourier series of the two-level mask: |c| = 2/(pi j) on
    # odd harmonics j of the fundamental, zero elsewhere
    for delta_ell in (1, 2, 3):
        c = binary_mask_overlap(2 * delta_ell, 0.0, delta_ell, 0)
        assert abs(c) == pytest.approx(2 / math.pi, abs=1e-9)
    third = binary_mask_overlap(2, 0.0, 3, 0)
    assert abs(third) == pytest.approx(2 / (3 * math.pi), abs=1e-9)


def test_mismatched_harmonics_vanish():
    assert abs(binary_mask_overlap(2, 0.0, 2, 0)) < 1e-9
    assert abs(binary_mask_overlap(4, 0.0, 1, 0)) < 1e-9
    assert abs(binary_mask_overlap(4, 0.0, 3, 0)) < 1e-9
    assert abs(binary_mask_overlap(4, 0.3, 0, 0)) < 1e-9


def test_mask_rotation_applies_phase_shift():
    base = binary_mask_overlap(4, 0.0, 2, 0)
    rotated = binary_mask_overlap(4, math.pi / 4, 2, 0)
    ratio = rotated / base
    assert ratio == pytest.approx(cmath.exp(1j * math.pi / 2), abs=1e-9)


def test_binary_coupling_cache_matches_quadrature():
    assert binary_coupling(1) == pytest.approx(2 / math.pi, abs=1e-9)
    assert binary_coupling(-3) == pytest.approx(2 / math.pi, abs=1e-9)


def test_hologram_validation():
    with pytest.raises(ValueError, match="nonzero"):
        HologramSpec(ell=0)
    with pytest.raises(ValueError, match="mode"):
        HologramSpec(ell=1, mode="greyscale")
    with pytest.raises(ValueError, match="sector count"):
        binary_mask_overlap(3, 0.0, 1, 0)


# ---------------------------------------------------------------------------
# delay


def test_delay_is_timing_metadata_only():
    spec = DelaySpec(extra_path=2.3, arm="A")
    assert spec.delay_seconds == pytest.approx(2.3 / 299792458.0, rel=0)
    assert abs(spec.delay_seconds - 7.66e-9) < 0.02e-9
    state = bell_circular()
    from oam_eraser.elements import apply_element
    out, prob = apply_element(spec, state)
    assert out is state and prob == 1.0


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency: the speed of light and the mask
    # integrals are closed forms
    code = ("import sys; sys.modules['scipy'] = None; import oam_eraser; "
            "print(repr(oam_eraser.elements.binary_coupling(1)))")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(2 / math.pi, abs=1e-15)


def test_delay_rejects_negative_path():
    with pytest.raises(ValueError, match="non-negative"):
        DelaySpec(extra_path=-1.0)


@pytest.mark.parametrize("path", [math.nan, math.inf, -math.inf, -0.5])
def test_delay_rejects_a_non_finite_or_negative_path(path):
    with pytest.raises(ValueError, match="finite and non-negative"):
        DelaySpec(extra_path=path)
