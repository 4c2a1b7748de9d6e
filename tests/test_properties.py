"""Property-based checks of the element operators on random states."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from oam_eraser.elements import (
    PolarizerSpec,
    QPlateSpec,
    WavePlateSpec,
    apply_element,
    polarizer_apply,
)
from oam_eraser.hilbert import (
    ARMS,
    L_CAP,
    POL_H,
    POL_V,
    OamOverflowError,
    basis_ket,
    joint_ket,
    tensor,
)

pols = st.sampled_from((POL_H, POL_V))
labels = st.tuples(pols, st.integers(-4, 4), pols, st.integers(-4, 4))
amplitudes = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0)
states = st.dictionaries(labels, amplitudes, min_size=1, max_size=8).map(joint_ket)
arms = st.sampled_from(ARMS)
charges = st.sampled_from((0.0, 0.5, 1.0, 1.5, -0.5, -1.0, -1.5))

# no per-example deadline: timing depends on the host, the properties do not
no_deadline = settings(deadline=None)


@no_deadline
@given(states, charges, arms)
def test_qplate_preserves_norm(state, q, arm):
    out, prob = apply_element(QPlateSpec(q=q, arm=arm), state)
    assert prob == 1.0
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


@no_deadline
@given(states, st.sampled_from(("quarter", "half")),
       st.floats(0.0, math.pi, exclude_max=True), arms)
def test_waveplate_preserves_norm(state, kind, fast_axis, arm):
    out, prob = apply_element(WavePlateSpec(kind, fast_axis, arm=arm), state)
    assert prob == 1.0
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


@no_deadline
@given(states, st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0), arms)
def test_orthogonal_polarizers_are_born_complete(state, alpha, extinction, arm):
    _, p = polarizer_apply(PolarizerSpec(alpha, extinction, arm), state)
    _, p_perp = polarizer_apply(
        PolarizerSpec(alpha + math.pi / 2, extinction, arm), state)
    assert p + p_perp == pytest.approx(1.0, abs=1e-12)


near_cap = st.integers(L_CAP - 4, L_CAP) | st.integers(-L_CAP, 4 - L_CAP)


@no_deadline
@given(pols, near_cap, charges)
def test_qplate_overflows_exactly_past_the_cap(pol, ell, q):
    state = tensor(basis_ket(pol, ell), basis_ket(POL_H, 0))
    spec = QPlateSpec(q=q)
    if abs(ell) + abs(round(2 * q)) > L_CAP:
        with pytest.raises(OamOverflowError):
            apply_element(spec, state)
    else:
        out, _ = apply_element(spec, state)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
