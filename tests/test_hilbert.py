import inspect
import math

import numpy as np
import pytest

import oam_eraser

from oam_eraser.hilbert import (
    L_CAP,
    POL_H,
    POL_V,
    POL_IDENTITY,
    JointKet,
    OamOverflowError,
    apply_local,
    checked_probability,
    format_state,
    joint_ket,
    postselect_local,
)

from conftest import bell_circular, marked_pair
from density_oracle import density_matrix, reduced_density, trace_distance
from states import normalized, overlap, pol, product, project

ROOT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# product states through joint_ket


def test_tensor_of_basis_states_is_single_entry():
    state = product(pol("H", 0), pol("H", 0))
    assert set(state.amplitudes) == {(POL_H, 0, POL_H, 0)}
    assert state.amplitudes[(POL_H, 0, POL_H, 0)] == pytest.approx(1.0)


def test_tensor_diagonal_splits_evenly():
    state = product(pol("D"), pol("H"))
    assert state.amplitudes[(POL_H, 0, POL_H, 0)] == pytest.approx(1 / ROOT2)
    assert state.amplitudes[(POL_V, 0, POL_H, 0)] == pytest.approx(1 / ROOT2)


def test_tensor_of_unit_kets_has_unit_norm():
    # joint_ket keeps the product amplitudes of normalized factors as they are
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = normalized({(p, ell): complex(*rng.normal(size=2))
                        for p in (POL_H, POL_V) for ell in (-1, 0, 2)})
        b = normalized({(p, ell): complex(*rng.normal(size=2))
                        for p in (POL_H, POL_V) for ell in (0, 1)})
        state = product(a, b)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        for (pa, ea, pb, eb), amp in state.amplitudes.items():
            assert amp == pytest.approx(a[(pa, ea)] * b[(pb, eb)], abs=1e-12)


def test_the_joint_state_is_the_only_state_type():
    # single-arm states, products and projections live in tests/states.py
    for name in ("LocalKet", "local_ket", "basis_ket", "polarization_ket",
                 "tensor", "state_overlap", "project"):
        assert not hasattr(oam_eraser, name)
        assert not hasattr(oam_eraser.hilbert, name)
    assert list(inspect.signature(joint_ket).parameters) == ["amplitudes"]


# ---------------------------------------------------------------------------
# operators


def _random_unitary_operator(rng, ells):
    # one term per matrix entry: |p, ell> -> q[p' ell', p ell] |p', ell'>
    labels = [(p, ell) for p in (POL_H, POL_V) for ell in ells]
    dim = len(labels)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(mat)
    terms = []
    for i, (p_out, ell_out) in enumerate(labels):
        for j, (p_in, ell_in) in enumerate(labels):
            pol = [[0j, 0j], [0j, 0j]]
            pol[p_out][p_in] = complex(q[i, j])
            terms.append((tuple(map(tuple, pol)), ell_in, ell_out - ell_in))
    return tuple(terms)


def test_identity_operator_leaves_state_unchanged():
    state = product(pol("R", 1), pol("D", -2))
    out = apply_local(((POL_IDENTITY, None, 0),), "A", state)
    assert abs(overlap(state, out)) == pytest.approx(1.0, abs=1e-12)


def test_unitary_sequences_preserve_norm():
    rng = np.random.default_rng(17)
    state = product(pol("D", 0), pol("R", 1))
    for _ in range(30):
        op = _random_unitary_operator(rng, (-1, 0, 1))
        arm = "A" if rng.random() < 0.5 else "B"
        state = apply_local(op, arm, state)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_output_labels_follow_input_then_term_then_polarization():
    # format_state breaks magnitude ties by this order, so a printed ket is
    # stable; a zero matrix entry adds no label
    hadamard = ((1 / ROOT2 + 0j, 1 / ROOT2 + 0j), (1 / ROOT2 + 0j, -1 / ROOT2 + 0j))
    state = joint_ket({(POL_H, 0, POL_H, 1): 1.0, (POL_V, 1, POL_H, 0): 1.0})
    out = apply_local(((hadamard, None, 0), (POL_IDENTITY, None, 2)), "A", state)
    assert list(out.amplitudes) == [
        (POL_H, 0, POL_H, 1), (POL_V, 0, POL_H, 1), (POL_H, 2, POL_H, 1),
        (POL_H, 1, POL_H, 0), (POL_V, 1, POL_H, 0), (POL_V, 3, POL_H, 0)]
    assert format_state(out).splitlines() == [
        "  0.7071 exp(+0.0000i) |H,+2>_A |H,+1>_B",
        "  0.7071 exp(+0.0000i) |V,+3>_A |H,+0>_B",
        "  0.5000 exp(+0.0000i) |H,+0>_A |H,+1>_B",
        "  0.5000 exp(+0.0000i) |V,+0>_A |H,+1>_B",
        "  0.5000 exp(+0.0000i) |H,+1>_A |H,+0>_B",
        "  0.5000 exp(+3.1416i) |V,+1>_A |H,+0>_B"]


def test_oam_overflow_guard():
    only_h = ((1.0 + 0.0j, 0.0j), (0.0j, 0.0j))
    shift = ((only_h, L_CAP, 1),)
    state = product(pol("H", L_CAP), pol("H", 0))
    with pytest.raises(OamOverflowError, match="OAM support overflow"):
        apply_local(shift, "A", state)
    with pytest.raises(OamOverflowError):
        joint_ket({(POL_H, L_CAP + 1, POL_H, 0): 1.0})


# ---------------------------------------------------------------------------
# projection


def test_project_bell_onto_right_circular_collapses_partner():
    state = bell_circular(ell=1)
    post, prob = project(state, "A", pol("R"))
    assert prob == pytest.approx(0.5, abs=1e-12)
    expected = product(pol("R", 0), pol("H", 1))
    assert abs(overlap(expected, post)) == pytest.approx(1.0, abs=1e-12)


def test_project_orthogonal_is_null_outcome():
    state = product(pol("H"), pol("H"))
    post, prob = project(state, "A", pol("V"))
    assert post is None
    assert prob == 0.0


def test_project_marked_pair_onto_antidiagonal():
    # hand expansion: (<H|-<V|)/sqrt2 applied to the delta=pi/2 pair leaves
    # photon B in (|ell> - i|-ell>)/sqrt2 with probability 1/2
    state = marked_pair(ell=1, delta=math.pi / 2)
    post, prob = project(state, "A", pol("A"))
    assert prob == pytest.approx(0.5, abs=1e-12)
    expected = joint_ket({
        (POL_H, 0, POL_H, 1): 0.5,
        (POL_V, 0, POL_H, 1): -0.5,
        (POL_H, 0, POL_H, -1): -0.5j,
        (POL_V, 0, POL_H, -1): 0.5j,
    })
    assert abs(overlap(expected, post)) == pytest.approx(1.0, abs=1e-12)


def test_born_completeness_over_local_basis():
    rng = np.random.default_rng(23)
    for _ in range(10):
        amps = {
            (pa, ea, pb, eb): complex(*rng.normal(size=2))
            for pa in (POL_H, POL_V) for ea in (-1, 0)
            for pb in (POL_H, POL_V) for eb in (0, 1)
        }
        state = joint_ket(amps)
        total = 0.0
        for name in "HV":
            for ell in (-1, 0):
                _, p = project(state, "A", pol(name, ell))
                total += p
        assert total == pytest.approx(1.0, abs=1e-12)


def test_probabilities_are_checked_not_clamped():
    assert checked_probability(1.0 + 1e-15) == 1.0
    assert checked_probability(-1e-15) == 0.0
    clipped = checked_probability(np.array([1.0 + 1e-15, 0.5, -1e-15]))
    assert clipped.tolist() == [1.0, 0.5, 0.0]
    for bad in (1.0 + 1e-9, -1e-9, np.array([0.5, 1.0 + 1e-9]), math.nan):
        with pytest.raises(ValueError, match="outside"):
            checked_probability(bad)
    # a post-selection's probability is checked: here its square rounds past 1
    _, p = postselect_local(((POL_IDENTITY, None, 0),), "A",
                            JointKet({(POL_H, 0, POL_H, 0): complex(1.0 + 2 ** -52)}))
    assert p == 1.0


# ---------------------------------------------------------------------------
# density matrices


def test_reduced_state_of_bell_is_maximally_mixed():
    state = bell_circular()
    for arm, dof in (("A", "pol"), ("B", "oam")):
        rho = reduced_density(state, arm, dof)
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_reduced_state_of_product_is_pure():
    state = product(pol("D", 1), pol("R", -1))
    rho = reduced_density(state, "A", "both")
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_rejects_an_unknown_selector():
    with pytest.raises(ValueError, match="degree-of-freedom selector 'spin'"):
        reduced_density(bell_circular(), "A", "spin")


def test_reduced_purity_of_marked_pair_is_half():
    # local unitaries preserve entanglement; hand partial trace gives I/2
    rho = reduced_density(marked_pair(1, math.pi / 2), "A", "pol")
    assert rho.purity() == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_examples():
    pol_basis = ((POL_H,), (POL_V,))

    def pol_density(name):
        return reduced_density(product(pol(name), pol("H", 0)),
                               "A", "pol", basis=pol_basis)

    h, v, d = pol_density("H"), pol_density("V"), pol_density("D")
    assert trace_distance(h, h) == 0.0
    assert trace_distance(h, v) == pytest.approx(1.0, abs=1e-12)
    # 2x2 closed form: sqrt(1 - |<H|D>|^2) = 1/sqrt(2)
    assert trace_distance(h, d) == pytest.approx(1 / ROOT2, abs=1e-12)


def test_trace_distance_requires_matching_basis():
    h = reduced_density(product(pol("H"), pol("H", 0)), "A", "pol")
    big = density_matrix(((POL_H,), (POL_V,), ("x",)), np.eye(3) / 3)
    with pytest.raises(ValueError, match="different bases"):
        trace_distance(h, big)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        density_matrix(((0,), (1,)), np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        density_matrix(((0,), (1,)), np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        density_matrix(((0,), (1,)), np.diag([1.5, -0.5]))


def test_pruning_changes_no_probability():
    base = {
        (POL_H, 0, POL_H, 1): 1 / ROOT2,
        (POL_V, 0, POL_H, -1): 1 / ROOT2,
        (POL_V, 0, POL_H, 3): 1e-16,  # below the pruning threshold
    }
    state = joint_ket(base)
    assert (POL_V, 0, POL_H, 3) not in state.amplitudes
    _, p = project(state, "A", pol("H"))
    assert p == pytest.approx(0.5, abs=1e-12)


def test_global_phase_is_unphysical():
    a = marked_pair(1, math.pi / 2)
    rotated = joint_ket({k: v * np.exp(1j * 0.83) for k, v in a.amplitudes.items()})
    assert abs(overlap(a, rotated)) == pytest.approx(1.0, abs=1e-12)
