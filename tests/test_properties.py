"""Property-based checks of the element operators and the analyzers on
random states, of the config emitter and parser on random runs, of the CLI
on random configs, and of the coincidence matcher on random click streams."""

import cmath
import math
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oam_eraser import cli
from oam_eraser.configio import RunSpec, ScanSpec, emit_config, parse_config
from oam_eraser.elements import (
    DelaySpec,
    FiberSpec,
    HologramSpec,
    PolarizerSpec,
    QPlateSpec,
    WavePlateSpec,
    apply_element,
    element_name,
    element_operator,
)
from oam_eraser import experiment
from oam_eraser.analysis import exact_fringes
from oam_eraser.experiment import (
    CountingModel,
    ExperimentConfig,
    NullOutcomeError,
    SourceSpec,
    _count_coincidences,
    causal_order_probability,
)
from oam_eraser.hilbert import (
    ARMS,
    L_CAP,
    NULL_TOL,
    POL_H,
    POL_V,
    PRUNE_TOL,
    OamOverflowError,
    checked_probability,
    joint_ket,
    local_sums,
)

import parent_kernel
from conftest import greedy_coincidences
from states import analyzer_probabilities, normalized, pol, product, project

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


def scan_specs(most: int):
    return st.builds(ScanSpec, theta_start=reals, theta_stop=reals,
                     theta_points=st.integers(1, most), alpha_start=reals,
                     alpha_stop=reals, alpha_points=st.integers(1, most))


scans = scan_specs(500)


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
# 59 flat source terms: their squares sum to 1 + 2.4e-15, which each build
# checks to 1
@example(ExperimentConfig(source=SourceSpec(l_max=29),
                          elements_b=(PolarizerSpec(0.0, arm="B"),)))
# one post-selection on each arm
@example(ExperimentConfig(source=SourceSpec(l_max=2), elements_a=(PolarizerSpec(0.3),),
                          elements_b=(PolarizerSpec(0.9, arm="B"),)))
# 102 and then 204 squares past the two leaky polarizers: the builds differ by
# 1.44e-15, past an absolute 1e-15
@example(ExperimentConfig(
    source=SourceSpec(l_max=25),
    elements_a=(PolarizerSpec(-999.9999999999999, 0.4711473983130311),),
    elements_b=(PolarizerSpec(-999.9999999999999, 0.4711473983130311, arm="B"),)))
# the wave plate turns 1e-15 of each term to V, which the walk prunes and the
# pass keeps, and the polarizer mixes it back: 1.83e-15 apart
@example(ExperimentConfig(
    source=SourceSpec(kind="generic_two_path"), elements_a=(QPlateSpec(q=0.5),),
    elements_b=(WavePlateSpec("half", 1e-15, arm="B"), PolarizerSpec(1.0, arm="B"))))
def test_pipeline_probability_is_the_product_of_the_element_probabilities(config):
    """The pipeline's probability is the product of the element walk's step
    probabilities, to within what two roundings and two prunings of one
    product allow.

    In the pass's frame the state is not renormalized: it starts at unit norm,
    and its squared norm after a post-selection is the product ``P`` of the
    probabilities so far.  Every element is unitary or a projection, so none
    grows a perturbation in this frame.

    - Sums.  Each build reads post-selection ``k``'s probability ``p_k`` as a
      sum of ``m_k`` squares, which errs by at most about ``m_k u p_k``
      (recursive summation, Higham 2002, section 4.2; ``u`` the unit
      roundoff).  The amplitudes it squares carry the rounding of the ``e_k``
      elements applied so far, about ``e_k u`` of the unit state's norm, and
      ``p_k`` is the square of their norm ``sqrt(p_k)``, which adds ``2 e_k u
      sqrt(p_k)``: the larger term where a post-selection passes little of
      what reaches it, by cancellation.
    - Pruning.  Each build drops amplitudes below ``PRUNE_TOL`` at its own
      scale, which in this frame is at most ``PRUNE_TOL`` for both: the
      walk's shrinks by ``sqrt(P)``, the pass's by the source amplitude.  So
      what either drops at an element lies among the amplitudes the walk
      emits there below ``2 PRUNE_TOL`` in this frame (twice, for what the
      builds already differ by), and where source terms meet, the pass drops
      a piece per term from any label.  A dropped norm ``d`` moves ``P`` by at
      most ``2 d sqrt(P)``.

    So each build's product is within ``P`` times the sum over post-selections
    of ``(m_k + 2 e_k / sqrt(p_k)) u``, plus ``2 d sqrt(P)``, of the exact one,
    and the two builds are within twice that of each other."""
    try:
        _, probability = experiment.run_pipeline(config)
    except (NullOutcomeError, OamOverflowError):
        assume(False)
    state, product = experiment.build_source_state(config.source), 1.0
    pieces = len(state.amplitudes) if source_terms_meet(config) else 1
    summed = dropped = 0.0
    elements = 0
    for spec in config.elements_a + config.elements_b:
        terms, post_selects = element_operator(spec)
        if terms is None:
            continue
        emitted = [abs(a) * math.sqrt(product)
                   for a in local_sums(terms, spec.arm, state.amplitudes).values()]
        state, prob = apply_element(spec, state)
        product *= prob
        elements += 1
        small = sum(a < 2 * PRUNE_TOL for a in emitted) if pieces == 1 else len(emitted) * pieces
        dropped += math.sqrt(small) * PRUNE_TOL
        if post_selects:
            summed += (len(state.amplitudes) + 2 * elements / math.sqrt(prob)) * UNIT_ROUNDOFF
    bound = 2 * product * (summed + 2 * dropped / math.sqrt(product))
    assert abs(probability - product) <= bound


def element_walk(config):
    """``(state, probability)`` of the pipeline from the full source, element by
    element, raising what ``run_pipeline`` raises; the probability is the
    product of the steps', checked at each step."""
    state, tracked = experiment.build_source_state(config.source), 1.0
    for arm, specs in (("A", config.elements_a), ("B", config.elements_b)):
        for i, spec in enumerate(specs):
            state, p = apply_element(spec, state)
            if state is None:
                raise NullOutcomeError(f"{element_name(spec)}[{arm}:{i}]")
            tracked = checked_probability(tracked * p)
    return state, tracked


def build_outcome(build, config):
    """The amplitudes in key order and the probability, or the error."""
    try:
        state, probability = build(config)
    except (NullOutcomeError, OamOverflowError) as exc:
        return type(exc), str(exc)
    return list(state.amplitudes.items()), probability


def rounding_bounds(config, probability):
    """How far two builds of one pipeline state, rounding apart, can put each
    amplitude and the probability (the derivation is in CHANGES.md).

    An element of ``t`` operator terms sends a label to at most ``2 t`` labels,
    so each source term reaches an output label along at most ``K`` paths, ``K``
    the product of ``2 t`` over the elements.  Every factor on a path (the
    source amplitude, the operator entries) has modulus at most 1 and the source
    amplitudes' squares sum to 1, so the moduli of the paths into one label, or
    into all of them, sum to at most ``sqrt(S) K`` for ``S`` source terms.
    Every sum either build makes has at most ``n = S K + d + 4`` terms and
    factors (``d`` elements), so it errs by at most ``gamma_n`` times its sum of
    moduli (Higham 2002, section 3.1).  That puts each build within ``3 gamma_n
    S K^2`` of the exact probability ``p`` and, after the normalization by
    ``1/sqrt(p)``, within ``3 gamma_n S K^2 / p`` of an exact amplitude; the
    bounds are twice those."""
    specs = [s for s in config.elements_a + config.elements_b
             if not isinstance(s, DelaySpec)]
    paths = math.prod(2 * len(element_operator(s)[0]) for s in specs)
    sources = 2 if config.source.kind == "generic_two_path" else 2 * config.source.l_max + 1
    n = sources * paths + len(specs) + 4
    if n * UNIT_ROUNDOFF >= 0.5:
        return math.inf, math.inf
    growth = n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF) * sources * paths ** 2
    return 6 * growth / probability, 6 * growth


#: half the gap between 1.0 and the next double
UNIT_ROUNDOFF = 2.0 ** -53

canonical_arm_a = experiment.hybrid_eraser_config().elements_a


def source_terms_meet(config):
    """Whether two source terms, each walked alone from unit amplitude, emit onto
    one label at one element: only there can the walk, which sums the terms in
    the order it meets them, put a key elsewhere in the order than a build that
    sums each term's image."""
    seen = set()
    for label in experiment.build_source_state(config.source).amplitudes:
        amps, emitted = {label: 1.0 + 0.0j}, set()
        for i, spec in enumerate(config.elements_a + config.elements_b):
            terms, _ = element_operator(spec)
            if terms is not None:
                out = local_sums(terms, spec.arm, amps)
                emitted.update((i, key) for key in out)
                amps = {k: a for k, a in out.items() if abs(a) >= PRUNE_TOL}
        if not seen.isdisjoint(emitted):
            return True
        seen |= emitted
    return False


@no_deadline
@given(configs)
@example(ExperimentConfig(source=SourceSpec(l_max=6), elements_a=canonical_arm_a))
# a fiber off l = 0: the terms l = 0 and 2 reach it, l = -2 does not
@example(ExperimentConfig(source=SourceSpec(l_max=3), elements_a=(
    QPlateSpec(q=0.5), WavePlateSpec("half", 0.3), FiberSpec(accepted_ell=1))))
# no term reaches the fiber
@example(ExperimentConfig(source=SourceSpec(l_max=2), elements_a=(
    QPlateSpec(q=1.5), FiberSpec(accepted_ell=0))))
# the l = +-30 terms cannot reach the fiber, but shift past L_CAP on the way
@example(ExperimentConfig(source=SourceSpec(l_max=30), elements_a=(
    QPlateSpec(q=1.5), FiberSpec(accepted_ell=0))))
# the l = +-3 terms are about 1.5e-15: past the polarizer the walk prunes part
# of them at its scale, and the build prunes at its final scale
@example(ExperimentConfig(source=SourceSpec(l_max=3, spectrum="gaussian", sigma_ell=0.3631),
                          elements_a=(PolarizerSpec(1.0),)))
# arm A sends the terms l = -2 and 2 to one label, and on arm B the term l = -2
# leaves a rounding residue on the label the term l = 2 fills: the walk sums
# them there, so the residue's term sets the label's place in the order
@example(ExperimentConfig(
    source=SourceSpec(l_max=2, spectrum="gaussian", sigma_ell=1000.0),
    elements_a=(QPlateSpec(q=1.0),) * 3,
    elements_b=(WavePlateSpec("half", 2.5896291937959592, arm="B"),
                QPlateSpec(q=1.0, arm="B"), QPlateSpec(q=1.0, arm="B"))))
# the polarizer passes 1% of the amplitude and the half-wave plate turns it to
# within 1e-14 of H: the walk, renormalized, keeps a V amplitude of 1e-14 that
# the map, unnormalized, prunes at 1e-16
@example(ExperimentConfig(source=SourceSpec(l_max=0), elements_a=(
    PolarizerSpec(math.pi / 2 - 0.01), WavePlateSpec("half", 0.7803981633974533))))
# a q-plate on arm B after the canonical arm A
@example(ExperimentConfig(source=SourceSpec(l_max=2), elements_a=canonical_arm_a,
                          elements_b=(QPlateSpec(q=0.5, arm="B"),)))
# a polarizer on each arm, behind holograms that send the terms l = 1 and -1
# to shared labels on both arms: the second polarizer's probability is that of
# the terms' sums
@example(ExperimentConfig(
    source=SourceSpec(l_max=1),
    elements_a=(HologramSpec(ell=1, arm="A"), PolarizerSpec(0.3)),
    elements_b=(HologramSpec(ell=1, theta=0.4, arm="B"), PolarizerSpec(0.9, arm="B"))))
def test_pipeline_build_is_the_element_walk(config):
    """The pipeline build raises what the element walk raises, with its message.
    Otherwise its probability and the amplitudes both builds hold are
    the walk's to within rounding, every amplitude is pruned, and a key one
    build holds alone is small: the walk prunes at its renormalized scale after
    every element, so what it drops reaches the end at most ``PRUNE_TOL /
    sqrt(p)`` large.  Unless two source terms meet on one label, the keys both
    builds hold come in one order."""
    got = build_outcome(experiment.run_pipeline, config)
    want = build_outcome(element_walk, config)
    if isinstance(got[0], type) or isinstance(want[0], type):
        assert got == want
        return
    (got_amps, got_p), (want_amps, want_p) = got, want
    amp_bound, p_bound = rounding_bounds(config, want_p)
    assert abs(got_p - want_p) <= p_bound
    assert all(abs(a) >= PRUNE_TOL for _, a in got_amps)
    got_amps, want_amps = dict(got_amps), dict(want_amps)
    for key in got_amps.keys() | want_amps.keys():
        if key in got_amps and key in want_amps:
            assert abs(got_amps[key] - want_amps[key]) <= amp_bound
        else:
            alone = got_amps.get(key, want_amps.get(key))
            assert abs(alone) < PRUNE_TOL / math.sqrt(want_p) + amp_bound
    if not source_terms_meet(config):
        assert ([k for k in got_amps if k in want_amps]
                == [k for k in want_amps if k in got_amps])


#: every subcommand on a config file; ``fit`` reads the scan-theta CSV
command_forms = st.sampled_from((
    ("scan-theta",), ("scan-theta", "--counts", "--svg"), ("scan-alpha",),
    ("scan-alpha", "--counts", "--svg"), ("scan-grid",),
    ("timeline", "--duration-s", "1e-4"), ("render-pattern", "--grid-n", "16"),
    ("fit",)))


@settings(deadline=None, max_examples=100)
@given(st.builds(RunSpec, config=configs, scan=scan_specs(8)), command_forms)
def test_cli_never_ends_in_a_traceback(run, form):
    """Every config the parser accepts ends in exit 0, 2 (config error) or
    3 (null pipeline), whatever the command: no exception escapes main."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(emit_config(run), encoding="utf-8")
        if form == ("fit",):
            code = cli.main(["scan-theta", str(path), "--counts", "--out-dir", tmp])
            if code == 0:
                code = cli.main(["fit", str(Path(tmp) / "scan_theta.csv"),
                                 "--out-dir", tmp])
        else:
            code = cli.main([form[0], str(path), *form[1:], "--out-dir", tmp])
    assert code in (0, 2, 3)


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
# the polarizer passes p_pol = 2**-46, just above NULL_TOL, and half of that
# reaches the hologram
@example(joint_ket({(POL_V, 0, POL_H, 1): 1}), 2**-24, 2**-24, 1, 0.0, "ideal")
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


@st.composite
def coherent(draw):
    """An ``analyzed()`` draw in which labels also get partners of the other
    polarization on the polarizer's arm, so that both hologram sectors carry
    an H-V coherence of their own (the ``HV+VH`` row of the fringe matrix)."""
    state, hologram = draw(analyzed())
    at = 0 if hologram.arm == "B" else 2
    amps = dict(state.amplitudes)
    for key, amp in state.amplitudes.items():
        if draw(st.booleans()):
            amps.setdefault(key[:at] + (1 - key[at],) + key[at + 1:], amp * draw(amplitudes))
    return joint_ket(amps), hologram


@no_deadline
@given(coherent(), angles, unit, angles)
def test_joint_is_the_polarizer_then_the_hologram(setting, alpha, extinction, theta):
    """The kernel's joint probability is the product of two sparse
    post-selections, the polarizer's and then the hologram's."""
    state, hologram = setting
    polarizer = polarizer_for(hologram, alpha, extinction)
    passed, p_pol = apply_element(polarizer, state)
    assume(passed is not None and p_pol > 1e-12)  # clear of a null outcome
    _, p_hologram = apply_element(replace(hologram, theta=theta), passed)
    joint, _ = analyzer_probabilities(state, polarizer, hologram, [alpha], [theta])
    assert abs(joint[0, 0] - p_pol * p_hologram) <= 1e-12


@no_deadline
@given(analyzed(), st.none() | angles, unit, st.lists(angles, min_size=1, max_size=4))
def test_form_matches_the_dense_psi_oracle(setting, alpha, extinction, thetas):
    """The quadratic form against the dense-psi contraction it replaced, on
    either hologram arm, in both modes, with and without a polarizer."""
    state, hologram = setting
    polarizer = None if alpha is None else polarizer_for(hologram, alpha, extinction)
    args = (state, polarizer, hologram, () if alpha is None else [alpha], thetas)
    try:
        want = parent_kernel.analyzer_probabilities(*args)
    except NullOutcomeError:
        with pytest.raises(NullOutcomeError):
            analyzer_probabilities(*args)
        return
    for got, oracle in zip(analyzer_probabilities(*args), want, strict=True):
        assert got.shape == oracle.shape
        assert np.max(np.abs(got - oracle)) <= 1e-12


def one_and_two_angle_reads(state, polarizer, hologram, alphas, thetas):
    """The grids and exact fringes of one call, or None where it raises
    ``NullOutcomeError``."""
    try:
        return (analyzer_probabilities(state, polarizer, hologram, alphas, thetas),
                exact_fringes(state, polarizer, hologram, alphas))
    except NullOutcomeError:
        return None


@no_deadline
@given(analyzed(), angles, angles, unit, st.lists(angles, min_size=1, max_size=4))
def test_a_one_angle_read_is_its_row_of_a_two_angle_read(
        setting, alpha, other, extinction, thetas):
    """The one-angle reader and the many-angle product give each angle the
    same row, and block the same settings.  Rounding bounds the joint by
    1e-15 and the conditional and the fit by 1e-15/p_pol: the harmonic sum
    can cancel, so a bound relative to the row would fail on either path."""
    state, hologram = setting
    polarizer = polarizer_for(hologram, alpha, extinction)
    both = one_and_two_angle_reads(state, polarizer, hologram, [alpha, other], thetas)
    ones = [one_and_two_angle_reads(state, polarizer, hologram, [angle], thetas)
            for angle in (alpha, other)]
    assert (both is None) == (None in ones)
    if both is None:
        return
    (joint, cond), fits = both
    for row, angle in enumerate((alpha, other)):
        (one_joint, one_cond), (fit,) = ones[row]
        _, p_pol = apply_element(polarizer_for(hologram, angle, extinction), state)
        assert one_joint.shape == one_cond.shape == (1, len(thetas))
        assert np.max(np.abs(one_joint[0] - joint[row])) <= 1e-15
        assert np.max(np.abs(one_cond[0] - cond[row])) <= 1e-15 / p_pol
        want = fits[row]
        assert abs(fit.offset - want.offset) <= 1e-15 / p_pol
        assert abs(fit.amplitude * cmath.exp(1j * fit.phase)
                   - want.amplitude * cmath.exp(1j * want.phase)) <= 1e-15 / p_pol


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
