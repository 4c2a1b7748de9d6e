"""Property-based checks of the element operators and the analyzers on
random states, of the config emitter and parser on random runs, and of the
coincidence matcher on random click streams."""

import cmath
import math
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oam_eraser.configio import RunSpec, ScanSpec, emit_config, parse_config
from oam_eraser.elements import (
    DelaySpec,
    FiberSpec,
    HologramSpec,
    PolarizerSpec,
    QPlateSpec,
    WavePlateSpec,
    apply_element,
)
from oam_eraser import experiment
from oam_eraser.analysis import exact_fringes
from oam_eraser.experiment import (
    CountingModel,
    ExperimentConfig,
    NullOutcomeError,
    SourceSpec,
    _count_coincidences,
    analyzer_probabilities,
    causal_order_probability,
)
from oam_eraser.hilbert import (
    ARMS,
    L_CAP,
    NULL_TOL,
    POL_H,
    POL_V,
    OamOverflowError,
    joint_ket,
)

from conftest import greedy_coincidences
from states import normalized, pol, product, project

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
    _, p = apply_element(PolarizerSpec(alpha, extinction, arm), state)
    _, p_perp = apply_element(
        PolarizerSpec(alpha + math.pi / 2, extinction, arm), state)
    assert p + p_perp == pytest.approx(1.0, abs=1e-12)


near_cap = st.integers(L_CAP - 4, L_CAP) | st.integers(-L_CAP, 4 - L_CAP)


@no_deadline
@given(st.sampled_from("HV"), near_cap, charges)
def test_qplate_overflows_exactly_past_the_cap(name, ell, q):
    state = product(pol(name, ell), pol("H", 0))
    spec = QPlateSpec(q=q)
    if abs(ell) + abs(round(2 * q)) > L_CAP:
        with pytest.raises(OamOverflowError):
            apply_element(spec, state)
    else:
        out, _ = apply_element(spec, state)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# projection against a dense contraction

small_ells = st.integers(-3, 3)
small_states = st.dictionaries(st.tuples(pols, small_ells, pols, small_ells),
                               amplitudes, min_size=1, max_size=12).map(joint_ket)
targets = st.dictionaries(st.tuples(pols, small_ells), amplitudes,
                          min_size=1, max_size=6).map(normalized)


def dense(amplitudes, shape):
    """Dense array of a sparse amplitude map; OAM indices are offset by 3."""
    out = np.zeros(shape, dtype=complex)
    for key, amp in amplitudes.items():
        out[tuple(k + 3 if i % 2 else k for i, k in enumerate(key))] = amp
    return out


@no_deadline
@given(small_states, targets, arms)
def test_project_matches_a_dense_contraction(state, target, arm):
    # psi and the expected post-state carry the projected arm first
    psi = dense(state.amplitudes, (2, 7, 2, 7))
    if arm == "B":
        psi = psi.transpose(2, 3, 0, 1)
    t = dense(target, (2, 7))
    rest = np.einsum("pl,plqm->qm", t.conj(), psi)
    prob = float(np.sum(np.abs(rest) ** 2))
    post, p = project(state, arm, target)
    if post is None:
        assert p == 0.0 and prob < 2 * NULL_TOL
        return
    assert p == pytest.approx(prob, abs=1e-12)
    assert post.norm_tracked == pytest.approx(prob, abs=1e-12)
    want = np.multiply.outer(t, rest)
    if arm == "B":
        want = want.transpose(2, 3, 0, 1)
    got = dense(post.amplitudes, (2, 7, 2, 7)) * math.sqrt(p)
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# config documents

reals = st.floats(-1e3, 1e3, allow_nan=False)
non_negative = st.floats(0.0, 1e6, allow_nan=False)
unit = st.floats(0.0, 1.0)
ells = st.integers(-L_CAP, L_CAP).filter(bool)
modes = st.sampled_from(("ideal", "binary"))


def element_specs(arm):
    return st.one_of(
        st.builds(QPlateSpec, q=charges, arm=st.just(arm)),
        st.builds(WavePlateSpec, kind=st.sampled_from(("quarter", "half")),
                  fast_axis=st.floats(0.0, math.pi, exclude_max=True),
                  arm=st.just(arm)),
        st.builds(PolarizerSpec, alpha=reals, extinction=unit, arm=st.just(arm)),
        st.builds(FiberSpec, arm=st.just(arm),
                  accepted_ell=st.integers(-L_CAP, L_CAP)),
        st.builds(HologramSpec, ell=ells, theta=reals, mode=modes,
                  arm=st.just(arm)),
        st.builds(DelaySpec, extra_path=non_negative, arm=st.just(arm)),
    )


def element_lists(arm):
    return st.lists(element_specs(arm), max_size=5).filter(
        lambda specs: sum(isinstance(s, DelaySpec) for s in specs) <= 1)


sources = st.one_of(
    st.builds(SourceSpec, kind=st.sampled_from(("spdc", "generic_two_path")),
              l_max=st.integers(0, L_CAP), spectrum=st.just("flat"),
              sigma_ell=st.none() | st.floats(1e-3, 1e3)),
    st.builds(SourceSpec, l_max=st.integers(0, L_CAP),
              spectrum=st.just("gaussian"), sigma_ell=st.floats(1e-3, 1e3)),
)
configs = st.builds(
    ExperimentConfig, source=sources,
    elements_a=element_lists("A").map(tuple),
    elements_b=element_lists("B").map(tuple),
    analyzer_a=st.builds(PolarizerSpec, alpha=reals, extinction=unit,
                         arm=st.just("A")),
    analyzer_b=st.builds(HologramSpec, ell=ells, theta=reals, mode=modes,
                         arm=st.just("B")),
    counting=st.builds(CountingModel, pair_rate=non_negative,
                       integration_time=non_negative,
                       gate=st.floats(1e-12, 1.0), singles_a=non_negative,
                       singles_b=non_negative, seed=st.integers(0, 2**32)))
scans = st.builds(ScanSpec, theta_start=reals, theta_stop=reals,
                  theta_points=st.integers(1, 500), alpha_start=reals,
                  alpha_stop=reals, alpha_points=st.integers(1, 500))


@no_deadline
@given(st.builds(RunSpec, config=configs, scan=scans))
def test_emit_parse_emit_is_a_fixed_point(run):
    text = emit_config(run)
    parsed = parse_config(text)
    assert emit_config(parsed) == text
    # an arm-A delay is written as [counting] delay_m, so it comes back last
    # on arm A, and not at all for a zero path
    specs = run.config.elements_a
    delays = [s for s in specs if isinstance(s, DelaySpec) and s.extra_path > 0]
    moved = [s for s in specs if not isinstance(s, DelaySpec)] + delays
    assert parsed.config == replace(run.config, elements_a=tuple(moved))
    assert parsed.scan == run.scan


@no_deadline
@given(configs)
# 59 flat source terms: their squares sum to 1 + 2.4e-15, past the bound
# unless the element's probability is checked before it is tracked
@example(ExperimentConfig(source=SourceSpec(l_max=29),
                          elements_b=(PolarizerSpec(0.0, arm="B"),)))
def test_pipeline_probability_is_the_product_of_the_element_probabilities(config):
    try:
        _, probability = experiment.run_pipeline(config)
    except (NullOutcomeError, OamOverflowError):
        assume(False)
    state, product = experiment.build_source_state(config.source), 1.0
    for spec in config.elements_a + config.elements_b:
        state, prob = apply_element(spec, state)
        product *= prob
    assert abs(probability - product) <= 1e-15


# ---------------------------------------------------------------------------
# coincidence matching

# times on a grid of 1/8, so differences are exact: ties at the gate, equal
# times on both arms and bursts inside one gate are frequent
clicks = st.lists(st.integers(0, 96), max_size=60).map(
    lambda ticks: np.sort(np.array(ticks, dtype=float)) / 8.0)


@no_deadline
@given(clicks, clicks, st.sampled_from((0.125, 0.25, 0.375, 1.0, 4.0)))
def test_matcher_agrees_with_walk_on_dyadic_streams(times_a, times_b, gate):
    assert _count_coincidences(times_a, times_b, gate) == \
        greedy_coincidences(times_a, times_b, gate)


# ---------------------------------------------------------------------------
# projection order


@no_deadline
@given(states, st.floats(0.0, 2 * math.pi), unit,
       st.integers(1, 4), st.floats(0.0, 2 * math.pi), modes)
def test_projection_order_does_not_change_the_conditional(
        state, alpha, extinction, ell, theta, mode):
    """Polarizer first, hologram first and the grid kernel give one
    conditional probability for any pipeline state."""
    config = ExperimentConfig(
        source=SourceSpec(),
        analyzer_a=PolarizerSpec(alpha, extinction, arm="A"),
        analyzer_b=HologramSpec(ell=ell, mode=mode, arm="B"))
    with mock.patch.object(experiment, "run_pipeline",
                           lambda _: (state, 1.0)):
        try:
            a_first = causal_order_probability(config, alpha, theta, "A_first")
        except NullOutcomeError:
            assume(False)  # the polarizer blocks this state
        b_first = causal_order_probability(config, alpha, theta, "B_first")
    _, kernel = analyzer_probabilities(state, config.analyzer_a,
                                       config.analyzer_b, [alpha], [theta])
    assert a_first == pytest.approx(kernel[0, 0], abs=1e-9)
    assert b_first == pytest.approx(kernel[0, 0], abs=1e-9)


# ---------------------------------------------------------------------------
# analyzer identities: they hold for every state, so they need no oracle;
# the exact fringe is checked against a least-squares fit of the kernel

angles = st.floats(0.0, 2 * math.pi)


@st.composite
def analyzed(draw):
    """A ``states`` draw and a hologram that sees a fringe in it.

    Labels get partners mirrored in the hologram arm's OAM (``ell -> -ell``)
    and the hologram's ``ell`` is one the state carries on that arm, since a
    state without both of ``+ell`` and ``-ell`` scans flat, and a flat scan
    meets the sector identities whatever the kernel does.
    """
    state, arm = draw(states), draw(arms)
    at = 1 if arm == "A" else 3
    amps = dict(state.amplitudes)
    for key, amp in state.amplitudes.items():
        if draw(st.booleans()):
            amps.setdefault(key[:at] + (-key[at],) + key[at + 1:], amp * draw(amplitudes))
    carried = sorted({abs(key[at]) for key in amps} - {0})
    ell = draw(st.sampled_from(carried) if carried else st.integers(1, 4))
    return joint_ket(amps), HologramSpec(ell=ell, mode=draw(modes), arm=arm)


@contextmanager
def skip_blocked(checked: list):
    """Skip a setting where the polarizer blocks the state; append to
    ``checked`` for each example that gets past it."""
    try:
        yield
    except NullOutcomeError:
        assume(False)
    checked.append(None)


def polarizer_for(hologram, alpha, extinction):
    return PolarizerSpec(alpha, extinction, "A" if hologram.arm == "B" else "B")


@no_deadline
@given(analyzed(), angles, unit, angles)
def polarizer_completeness(checked, setting, alpha, extinction, theta):
    state, hologram = setting
    polarizer = polarizer_for(hologram, alpha, extinction)
    with skip_blocked(checked):
        joint, _ = analyzer_probabilities(state, polarizer, hologram,
                                          [alpha, alpha + math.pi / 2], [theta])
    alone, _ = analyzer_probabilities(state, None, hologram, [0.0], [theta])
    assert abs(joint.sum() - alone[0, 0]) <= 1e-12


@no_deadline
@given(analyzed(), angles, unit, angles, angles)
def sector_completeness(checked, setting, alpha, extinction, theta, other):
    state, hologram = setting
    polarizer = polarizer_for(hologram, alpha, extinction)
    thetas = [theta, theta + math.pi / 2, other, other + math.pi / 2]
    with skip_blocked(checked):
        _, cond = analyzer_probabilities(state, polarizer, hologram, [alpha], thetas)
    assert abs(cond[0, 0] + cond[0, 1] - cond[0, 2] - cond[0, 3]) <= 1e-12


@no_deadline
@given(analyzed(), angles, unit, angles)
def sector_period(checked, setting, alpha, extinction, theta):
    state, hologram = setting
    polarizer = polarizer_for(hologram, alpha, extinction)
    with skip_blocked(checked):
        joint, cond = analyzer_probabilities(state, polarizer, hologram,
                                             [alpha], [theta, theta + math.pi])
    assert abs(joint[0, 0] - joint[0, 1]) <= 1e-12
    assert abs(cond[0, 0] - cond[0, 1]) <= 1e-12


@no_deadline
@given(analyzed(), angles, unit, st.lists(angles, min_size=1, max_size=4))
def leak_is_a_tilt(checked, setting, alpha, extinction, thetas):
    state, hologram = setting
    leaky = polarizer_for(hologram, alpha, extinction)
    tilted = polarizer_for(hologram, alpha + math.atan(extinction), 0.0)
    with skip_blocked(checked):
        grids = [analyzer_probabilities(state, polarizer, hologram, [polarizer.alpha], thetas)
                 for polarizer in (leaky, tilted)]
    for leaky_grid, tilted_grid in zip(*grids):
        assert np.max(np.abs(leaky_grid - tilted_grid)) <= 1e-12


@no_deadline
@given(analyzed(), angles, unit, angles)
def joint_within_polarizer(checked, setting, alpha, extinction, theta):
    state, hologram = setting
    polarizer = polarizer_for(hologram, alpha, extinction)
    with skip_blocked(checked):
        joint, _ = analyzer_probabilities(state, polarizer, hologram, [alpha], [theta])
    _, p_pol = apply_element(polarizer, state)
    assert joint[0, 0] <= p_pol + 1e-12


@no_deadline
@given(analyzed(), angles, unit)
def exact_fringe_is_the_dense_fit(checked, setting, alpha, extinction):
    # the sector scan is one harmonic, so a least-squares fit over 16 angles
    # recovers what exact_fringes reads from three
    state, hologram = setting
    polarizer = polarizer_for(hologram, alpha, extinction)
    thetas = np.linspace(0.0, math.pi, 16, endpoint=False)
    with skip_blocked(checked):
        _, cond = analyzer_probabilities(state, polarizer, hologram, [alpha], thetas)
        fit, = exact_fringes(state, polarizer, hologram, [alpha])
    design = np.column_stack([np.ones(16), np.cos(2 * thetas), np.sin(2 * thetas)])
    (offset, c, s), *_ = np.linalg.lstsq(design, cond[0], rcond=None)
    assert abs(fit.offset - offset) <= 1e-12
    assert abs(fit.amplitude * cmath.exp(1j * fit.phase) - complex(c, -s)) <= 1e-12


@pytest.mark.parametrize("identity", [
    polarizer_completeness, sector_completeness, sector_period, leak_is_a_tilt,
    joint_within_polarizer, exact_fringe_is_the_dense_fit],
    ids=lambda identity: identity.__name__)
def test_analyzer_identity(identity):
    checked = []
    identity(checked)
    # hypothesis ends a run early, without failing, once it has thrown away
    # too many examples; the blocked settings must not cost a full run
    assert len(checked) >= settings().max_examples
