import gc
import math
import random
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oam_eraser import elements as el
from oam_eraser.elements import DelaySpec, FiberSpec, PolarizerSpec, QPlateSpec
from oam_eraser.experiment import (
    CountingModel,
    EventRecord,
    EventTable,
    ExperimentConfig,
    NullOutcomeError,
    ScanSeries,
    SourceSpec,
    _count_coincidences,
    _pipeline,
    build_source_state,
    causal_order_probability,
    coincidence_probability,
    conditional_grid,
    hybrid_eraser_config,
    point_stream,
    run_pipeline,
    simulate_counts,
    simulate_timeline,
    theta_scan,
)
from oam_eraser import experiment, output
from oam_eraser.analysis import exact_fringes, fit_sinusoid
from oam_eraser.configio import RunSpec, ScanSpec
from oam_eraser.hilbert import POL_H, POL_V, joint_ket
from oam_eraser.output import events_csv, fmt

import parent_kernel
from conftest import greedy_coincidences, marked_pair
from states import analyzer_probabilities, overlap

ROOT2 = math.sqrt(2.0)


def law(alpha, theta):
    return 0.5 * (1.0 + math.sin(2 * alpha) * math.cos(2 * theta + math.pi / 2))


# ---------------------------------------------------------------------------
# source


def test_flat_spdc_state_is_even_three_term_superposition():
    state = build_source_state(SourceSpec(l_max=1))
    assert len(state.amplitudes) == 3
    for ell in (-1, 0, 1):
        amp = state.amplitudes[(POL_H, ell, POL_H, -ell)]
        assert amp == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_spdc_oam_is_anticorrelated():
    state = build_source_state(SourceSpec(l_max=4, spectrum="gaussian", sigma_ell=2.0))
    for (_, ell_a, _, ell_b) in state.amplitudes:
        assert ell_a == -ell_b


def test_gaussian_spectrum_ratio():
    # documented spectrum c_|l| ~ exp(-l^2 / (2 sigma^2)): the 2:0 weight
    # ratio is exp(-4/sigma^2) after normalization cancels
    state = build_source_state(SourceSpec(l_max=2, spectrum="gaussian", sigma_ell=1.0))
    c0 = state.amplitudes[(POL_H, 0, POL_H, 0)]
    c2 = state.amplitudes[(POL_H, 2, POL_H, -2)]
    assert abs(c2 / c0) ** 2 == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_source_validation():
    with pytest.raises(ValueError, match="sigma_ell"):
        SourceSpec(spectrum="gaussian")
    with pytest.raises(ValueError, match="l_max"):
        SourceSpec(l_max=64)


def test_generic_two_path_source_is_fully_marked():
    state = build_source_state(SourceSpec(kind="generic_two_path"))
    assert state.amplitudes[(POL_H, 0, POL_H, 1)] == pytest.approx(1 / ROOT2)
    assert state.amplitudes[(POL_V, 0, POL_H, -1)] == pytest.approx(1 / ROOT2)


# ---------------------------------------------------------------------------
# pipeline


def test_canonical_pipeline_reaches_marked_pair(canonical_config):
    state, cumulative = run_pipeline(canonical_config)
    expected = marked_pair(ell=-1, delta=math.pi / 2)
    assert abs(overlap(expected, state)) == pytest.approx(1.0, abs=1e-10)
    assert cumulative == pytest.approx(1 / 3, abs=1e-12)
    assert state.norm_tracked == pytest.approx(1 / 3, abs=1e-12)


def test_empty_pipeline_returns_source():
    config = ExperimentConfig(source=SourceSpec(l_max=1))
    state, cumulative = run_pipeline(config)
    assert cumulative == 1.0
    assert abs(overlap(build_source_state(config.source), state)) == \
        pytest.approx(1.0, abs=1e-12)


def test_pipeline_cache_is_shared_by_analyzer_and_counting_variants():
    source = dict(l_max=7, spectrum="gaussian", sigma_ell=1.37)
    base = hybrid_eraser_config(alpha=0.1, **source)
    other = hybrid_eraser_config(alpha=1.2, extinction=0.05, hologram_mode="binary",
                                 counting=CountingModel(seed=9), **source)
    # from empty: a cache filled to its maxsize by earlier tests would evict
    _pipeline.cache_clear()
    entries = _pipeline.cache_info().currsize
    assert run_pipeline(base)[0] is run_pipeline(other)[0]
    assert _pipeline.cache_info().currsize == entries + 1


def test_cached_pipeline_state_is_read_only(canonical_config):
    state, _ = run_pipeline(canonical_config)
    key = next(iter(state.amplitudes))
    with pytest.raises(TypeError):
        state.amplitudes[key] = 0.0
    with pytest.raises(TypeError):
        state.amplitudes[(POL_H, 5, POL_H, 5)] = 1.0
    assert run_pipeline(canonical_config)[0].amplitudes == state.amplitudes


def test_configs_that_differ_in_source_or_delay_share_one_arm_map():
    experiment._elements_map.cache_clear()
    _pipeline.cache_clear()
    for l_max in (1, 4):
        for delay_m in (0.0, 2.5):
            run_pipeline(hybrid_eraser_config(l_max=l_max, delay_m=delay_m))
    # one map for arm A's q-plate, fiber and wave plate
    info = experiment._elements_map.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)


def test_cached_arm_map_is_read_only(canonical_config):
    image, _ = experiment._elements_map(canonical_config.elements_a)
    label = (POL_H, 1, POL_H, -1)
    entry = image(label)
    with pytest.raises(TypeError):
        entry[0] = ()
    with pytest.raises(TypeError):
        entry[-1][0] = ((POL_V, 0, POL_H, -1), 1.0)
    # one walk per label, shared by every later lookup and every config
    assert image(label) is entry
    assert experiment._elements_map(canonical_config.elements_a)[0](label) is entry


def test_gaussian_width_whose_square_underflows_is_not_built_flat():
    """``2 sigma_ell^2`` is 0.0 below about 1.5e-162: such a width is rejected
    where the spec is made, rather than giving a flat state."""
    with pytest.raises(ValueError, match="sigma_ell"):
        SourceSpec(l_max=1, spectrum="gaussian", sigma_ell=1e-170)


@pytest.mark.parametrize("config, element", [
    pytest.param(ExperimentConfig(source=SourceSpec(l_max=1), elements_a=(
        QPlateSpec(q=0.5, arm="A"), FiberSpec(arm="A", accepted_ell=9))),
        "fiber[A:1]", id="arm-a-fiber"),
    pytest.param(ExperimentConfig(source=SourceSpec(l_max=1), elements_b=(
        QPlateSpec(q=0.5, arm="B"), FiberSpec(arm="B", accepted_ell=9))),
        "fiber[B:1]", id="arm-b-fiber"),
    # the index counts the delay, which the map leaves out
    pytest.param(ExperimentConfig(source=SourceSpec(l_max=1), elements_a=(
        DelaySpec(extra_path=1.0), FiberSpec(arm="A", accepted_ell=9))),
        "fiber[A:1]", id="after-a-delay"),
    # the fiber keeps only the l = -16 term, whose probability is about 1e-28,
    # so the fiber is named, not the hologram that empties that term
    pytest.param(ExperimentConfig(
        source=SourceSpec(l_max=16, spectrum="gaussian", sigma_ell=2.0),
        elements_a=(FiberSpec(arm="A", accepted_ell=-16),),
        elements_b=(el.HologramSpec(ell=1, arm="B"),)),
        "fiber[A:0]", id="gaussian-tail"),
    # each polarizer passes 1e-8 of what reaches it, above NULL_TOL, though
    # together they pass 1e-16, below it
    pytest.param(ExperimentConfig(
        source=SourceSpec(l_max=0), elements_a=(PolarizerSpec(math.pi / 2 - 1e-4),),
        elements_b=(PolarizerSpec(math.pi / 2 - 1e-4, arm="B"),)),
        None, id="each-passes-its-share"),
])
def test_null_pipeline_names_the_element(config, element):
    """A post-selection whose conditional probability is below ``NULL_TOL``
    empties the state, and the error names it as ``name[arm:index]``, delays
    counted; ``None`` marks a state that is built."""
    if element is None:
        assert run_pipeline(config)[1] == pytest.approx(9.99999993e-17, rel=1e-9)
        return
    with pytest.raises(NullOutcomeError) as err:
        run_pipeline(config)
    assert err.value.element == element


# ---------------------------------------------------------------------------
# coincidence law


def test_marked_setting_gives_flat_conditional(canonical_config):
    for theta in np.linspace(0, 2 * math.pi, 17):
        _, cond = coincidence_probability(canonical_config, 0.0, float(theta))
        assert cond == pytest.approx(0.5, abs=1e-12)


def test_bright_fringe_reaches_unity(canonical_config):
    _, cond = coincidence_probability(canonical_config, math.pi / 4, 3 * math.pi / 4)
    assert cond == pytest.approx(1.0, abs=1e-12)


def test_intermediate_point_matches_hand_value(canonical_config):
    # (1 + sqrt(2)/2)/2 at alpha=pi/8, theta=-pi/4
    _, cond = coincidence_probability(canonical_config, math.pi / 8, -math.pi / 4)
    assert cond == pytest.approx((1 + ROOT2 / 2) / 2, abs=1e-12)


def test_conditional_grid_matches_closed_form(canonical_config):
    alphas = np.linspace(0, math.pi, 16)
    thetas = np.linspace(0, 2 * math.pi, 16)
    _, cond = conditional_grid(canonical_config, alphas, thetas)
    for i, a in enumerate(alphas):
        for j, t in enumerate(thetas):
            assert cond[i, j] == pytest.approx(law(a, t), abs=1e-10)


def test_joint_is_half_the_conditional(canonical_config):
    # the polarizer passes the maximally entangled pair with probability 1/2
    joint, cond = coincidence_probability(canonical_config, 0.3, 1.1)
    assert joint == pytest.approx(0.5 * cond, abs=1e-12)


def test_marginal_consistency(canonical_config):
    # orthogonal analyzer pair {theta, theta+pi/2} resolves the arm-B qubit
    for alpha, theta in ((0.2, 0.5), (1.0, 2.2)):
        j1, _ = coincidence_probability(canonical_config, alpha, theta)
        j2, _ = coincidence_probability(canonical_config, alpha, theta + math.pi / 2)
        pol = replace(canonical_config.analyzer_a, alpha=alpha)
        state, _ = run_pipeline(canonical_config)
        _, p_a = el.apply_element(pol, state)
        assert j1 + j2 == pytest.approx(p_a, abs=1e-12)


def test_theta_scan_series_shape(canonical_config):
    series = theta_scan(canonical_config, points=36)
    assert len(series.settings) == 36
    assert all(p == pytest.approx(0.5, abs=1e-12) for p in series.probabilities)


# ---------------------------------------------------------------------------
# analyzer kernel against the sparse element operators


def _sparse_grid(config, alphas, thetas):
    """Independent route: the sparse polarizer, then hologram, point by point."""
    state, _ = run_pipeline(config)
    joint = np.empty((len(alphas), len(thetas)))
    cond = np.empty_like(joint)
    for i, alpha in enumerate(alphas):
        pol = replace(config.analyzer_a, alpha=float(alpha))
        state_a, p_a = el.apply_element(pol, state)
        if state_a is None:
            raise NullOutcomeError("polarizer[analyzer_a]")
        for j, theta in enumerate(thetas):
            holo = replace(config.analyzer_b, theta=float(theta))
            _, p_b = el.apply_element(holo, state_a)
            joint[i, j], cond[i, j] = p_a * p_b, p_b
    return joint, cond


def _eraser_config(rng):
    gaussian = bool(rng.random() < 0.5)
    return hybrid_eraser_config(
        l_max=int(rng.integers(1, 11)),
        spectrum="gaussian" if gaussian else "flat",
        sigma_ell=float(rng.uniform(0.5, 3.0)) if gaussian else None,
        extinction=float(rng.uniform(0.0, 0.2)),
        hologram_mode=str(rng.choice(["ideal", "binary"])),
        delay_m=float(rng.uniform(0.0, 10.0)) if rng.random() < 0.5 else 0.0)


def _wide_config(rng):
    """Element chains without a fiber: the analyzed state spans many OAM
    indices on both arms, and the hologram subspace may be empty."""
    arm_a = [QPlateSpec(q=float(rng.choice([-1.0, -0.5, 0.5, 1.0])), arm="A")]
    if rng.random() < 0.5:
        arm_a.append(el.WavePlateSpec(kind=str(rng.choice(["quarter", "half"])),
                                      fast_axis=float(rng.uniform(0.0, 3.0)), arm="A"))
    arm_b = []
    if rng.random() < 0.5:
        arm_b.append(QPlateSpec(q=float(rng.choice([-0.5, 0.5])), arm="B"))
    return ExperimentConfig(
        source=SourceSpec(l_max=int(rng.integers(1, 6))),
        elements_a=tuple(arm_a), elements_b=tuple(arm_b),
        analyzer_a=PolarizerSpec(alpha=0.0, extinction=float(rng.uniform(0.0, 0.2))),
        analyzer_b=el.HologramSpec(ell=int(rng.integers(1, 4)),
                                   mode=str(rng.choice(["ideal", "binary"]))))


@pytest.mark.parametrize("make_config", [_eraser_config, _wide_config])
def test_kernel_matches_sparse_projections(make_config):
    worst = 0.0
    for seed in range(40):
        rng = np.random.default_rng(700 + seed)
        config = make_config(rng)
        alphas = rng.uniform(0.0, math.pi, 7)
        thetas = rng.uniform(0.0, 2 * math.pi, 9)
        got = conditional_grid(config, alphas, thetas)
        want = _sparse_grid(config, alphas, thetas)
        for g, w in zip(got, want):
            assert g.shape == (7, 9)
            worst = max(worst, float(np.max(np.abs(g - w))))
        assert worst <= 1e-13, f"seed {seed}: deviation {worst:.3g}"


def test_kernel_raises_when_the_polarizer_blocks_everything():
    state = build_source_state(SourceSpec(l_max=1))  # all H on arm A
    pol = PolarizerSpec(alpha=math.pi / 2)
    with pytest.raises(NullOutcomeError, match="analyzer_a"):
        analyzer_probabilities(state, pol, el.HologramSpec(ell=1), [0.0, math.pi / 2],
                               [0.0])


def test_dark_fringes_are_exact_zeros():
    # (1 - sin 2theta)/2 at alpha = pi/4 vanishes at theta = pi/4 + k*pi
    thetas = [math.pi / 4 + k * math.pi for k in range(-2, 4)]
    alphas = [math.pi / 4, 5 * math.pi / 4]
    for mode in ("ideal", "binary"):
        config = hybrid_eraser_config(hologram_mode=mode)
        joint, cond = conditional_grid(config, alphas, thetas)
        assert np.all(joint == 0.0) and np.all(cond == 0.0)


# ---------------------------------------------------------------------------
# the quadratic-form kernel against the dense-psi contraction it replaced
# (tests/parent_kernel.py): the same errors, and grids within 1e-12


def kernel_outcome(kernel, *args):
    """The grids, or the error the kernel raised."""
    try:
        return kernel(*args)
    except (NullOutcomeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """One error, or grids of one shape within 1e-12."""
    if isinstance(want[0], type):
        assert isinstance(got[0], type) and got == want
        return
    assert not isinstance(got[0], type), got
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w), initial=0.0) <= 1e-12


# multiples of pi/4 put alpha and theta on dark fringes
angles = st.one_of(st.floats(0.0, 2 * math.pi),
                   st.integers(-8, 8).map(lambda k: k * math.pi / 4))
angle_sets = st.lists(angles, min_size=1, max_size=8).map(np.array)
eraser_configs = st.builds(
    lambda l_max, sigma, mode, leak: hybrid_eraser_config(
        extinction=leak, hologram_mode=mode, l_max=l_max,
        spectrum="flat" if sigma is None else "gaussian", sigma_ell=sigma),
    st.integers(0, 10), st.none() | st.floats(0.3, 3.0),
    st.sampled_from(("ideal", "binary")), st.floats(0.0, 0.3))
raw_states = st.dictionaries(
    st.tuples(st.sampled_from((POL_H, POL_V)), st.integers(-4, 4),
              st.sampled_from((POL_H, POL_V)), st.integers(-4, 4)),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0),
    min_size=1, max_size=8).map(joint_ket)


@settings(deadline=None, max_examples=150)
@given(config=eraser_configs, alphas=angle_sets, thetas=angle_sets)
def test_kernel_grids_match_the_dense_psi_oracle(config, alphas, thetas):
    # l_max = 0 empties the pipeline, and both raise the same error then
    assert_same_outcome(kernel_outcome(conditional_grid, config, alphas, thetas),
                        kernel_outcome(parent_kernel.conditional_grid, config,
                                       alphas, thetas))


@settings(deadline=None, max_examples=150)
@given(state=raw_states, ell=st.integers(1, 4),
       mode=st.sampled_from(("ideal", "binary")),
       hologram_arm=st.sampled_from(("A", "B")),
       leak=st.none() | st.floats(0.0, 0.3), alphas=angle_sets,
       thetas=angle_sets)
# p_pol = 2**-46 lies just above NULL_TOL; the joint, half of it, lies below
@example(state=joint_ket({(POL_H, 2, POL_H, 0): 1}), ell=2, mode="ideal",
         hologram_arm="A", leak=2**-23, alphas=np.array([math.pi / 2]),
         thetas=np.array([0.0]))
def test_kernel_on_raw_states_matches_the_dense_psi_oracle(
        state, ell, mode, hologram_arm, leak, alphas, thetas):
    # a raw state on either arm, analyzed without a polarizer (leak None)
    # or with one on the other arm
    hologram = el.HologramSpec(ell=ell, mode=mode, arm=hologram_arm)
    polarizer = None if leak is None else PolarizerSpec(
        alpha=0.0, extinction=leak, arm="B" if hologram_arm == "A" else "A")
    args = (state, polarizer, hologram, alphas if polarizer else (), thetas)
    assert_same_outcome(kernel_outcome(analyzer_probabilities, *args),
                        kernel_outcome(parent_kernel.analyzer_probabilities, *args))


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 3e-3, 1e-3])
def test_nearly_blocked_state_matches_the_dense_psi_oracle(eps):
    # D (x) |+1> + eps A (x) |-1> at alpha = -pi/4: the polarizer passes only
    # the A part, p_pol = eps^2/(1 + eps^2), from 1e-2 down to 1e-6
    r = 1.0 / ROOT2
    state = joint_ket({(POL_H, 0, POL_H, 1): r, (POL_V, 0, POL_H, 1): r,
                       (POL_H, 0, POL_H, -1): eps * r, (POL_V, 0, POL_H, -1): -eps * r})
    thetas = np.linspace(0.0, math.pi, 7)
    for mode in ("ideal", "binary"):
        args = (state, PolarizerSpec(alpha=-math.pi / 4), el.HologramSpec(ell=1, mode=mode),
                [-math.pi / 4], thetas)
        assert_same_outcome(analyzer_probabilities(*args),
                            parent_kernel.analyzer_probabilities(*args))


def assert_same_scans(got, want):
    """Equal settings, and probabilities within 1e-12, all Python floats."""
    assert len(got) == len(want)
    for series, oracle in zip(got, want):
        assert series.settings == oracle.settings
        for name in ("settings", "probabilities", "joint_probabilities"):
            values, expected = getattr(series, name), getattr(oracle, name)
            assert all(type(v) is float for v in values)
            assert np.max(np.abs(np.subtract(values, expected))) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(config=eraser_configs.filter(lambda c: c.source.l_max > 0),
       alphas=angle_sets, thetas=st.none() | angle_sets.map(list),
       points=st.integers(1, 80))
def test_theta_scans_match_the_dense_psi_scans(config, alphas, thetas, points):
    assert_same_scans(experiment.theta_scans(config, alphas, thetas, points),
                      parent_kernel.theta_scans(config, alphas, thetas, points))


# ---------------------------------------------------------------------------
# cached state


def test_cached_moments_sectors_and_seed_keys_reject_writes():
    fringe = experiment._config_moments(
        hybrid_eraser_config(extinction=0.1, hologram_mode="binary", l_max=2))
    assert fringe is experiment._config_moments(hybrid_eraser_config(l_max=2))
    assert fringe.shape == (3, 4) and fringe.dtype == float
    basis = experiment._full_turn(36)[0]
    assert basis.shape == (3, 36)
    cached = [fringe, experiment._stream_key(17, 3), basis, *basis]
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0


def test_spec_config_and_count_records_carry_no_dict():
    # slotted: a config kept per op costs its fields, not a dict
    config = hybrid_eraser_config(delay_m=1.0)
    records = [*config.elements_a, config.analyzer_a, config.analyzer_b,
               config.source, config.counting, config,
               ScanSeries((0.0,), (0.5,)), ScanSpec(), RunSpec(config, ScanSpec())]
    assert {type(r).__name__ for r in records} >= {
        "QPlateSpec", "WavePlateSpec", "PolarizerSpec", "FiberSpec", "HologramSpec",
        "DelaySpec", "SourceSpec", "CountingModel", "ExperimentConfig"}
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_eraser_configs_share_their_arm_a_and_hologram_specs():
    for mode in ("ideal", "binary"):
        first, second = (hybrid_eraser_config(alpha=alpha, hologram_mode=mode,
                                              extinction=0.1 * alpha, l_max=3)
                         for alpha in (0.2, 0.7))
        assert first.elements_a is second.elements_a
        assert first.analyzer_b is second.analyzer_b
        assert first.analyzer_b == el.HologramSpec(ell=1, mode=mode, arm="B")
    with pytest.raises(ValueError, match="hologram mode"):
        hybrid_eraser_config(hologram_mode="ternary")


def test_the_moment_cache_stays_within_its_bound_past_128_pipelines():
    # each spectrum width is its own pipeline state, so every pass misses
    info = experiment._pipeline_moments.cache_info()
    assert info.maxsize == _pipeline.cache_info().maxsize == 128
    alphas, thetas = np.array([math.pi / 4, 1.0]), np.array([0.0, 0.9, math.pi / 4])
    for i in range(info.maxsize + 8):
        config = hybrid_eraser_config(hologram_mode="binary", l_max=3,
                                      spectrum="gaussian", sigma_ell=0.5 + i / 64)
        _, cond = conditional_grid(config, alphas, thetas)
        want = 0.5 * el.binary_coupling(1) ** 2 * (
            1.0 + np.sin(2 * alphas[:, None]) * np.cos(2 * thetas + math.pi / 2))
        assert np.max(np.abs(cond - want)) <= 1e-12
        assert experiment._pipeline_moments.cache_info().currsize <= info.maxsize


def test_mutating_inputs_and_outputs_leaves_later_results_unchanged():
    config = hybrid_eraser_config(extinction=0.1, hologram_mode="binary", l_max=3)
    alphas, thetas = np.array([0.3, 1.1]), np.array([0.0, 0.7, math.pi / 4])
    first = [grid.copy() for grid in conditional_grid(config, alphas, thetas)]
    for grid in conditional_grid(config, alphas, thetas):
        grid[...] = 7.0
    kept = thetas.copy()
    thetas[...] = 2.0  # nothing computed from the old angles is kept
    again = conditional_grid(config, alphas, kept)
    assert [g.tobytes() for g in again] == [g.tobytes() for g in first]


@pytest.mark.parametrize("alpha", [0.3, np.float64(0.3), np.array(0.3)],
                         ids=["float", "float64", "0-d array"])
def test_a_zero_dimensional_angle_reads_as_a_one_element_list(alpha):
    config = hybrid_eraser_config(extinction=0.1, hologram_mode="binary", l_max=2)
    state, _ = run_pipeline(config)
    polarizer, hologram = config.analyzer_a, config.analyzer_b
    for got, want in zip(conditional_grid(config, alpha, np.array(0.5)),
                         conditional_grid(config, [0.3], [0.5]), strict=True):
        assert got.shape == (1, 1) and got.tobytes() == want.tobytes()
    assert experiment.theta_scans(config, alpha) == experiment.theta_scans(config, [0.3])
    for got, want in zip(analyzer_probabilities(state, polarizer, hologram, alpha, [0.0, 1.0]),
                         analyzer_probabilities(state, polarizer, hologram, [0.3], [0.0, 1.0]),
                         strict=True):
        assert got.shape == (1, 2) and got.tobytes() == want.tobytes()
    assert exact_fringes(state, polarizer, hologram, alpha) == \
        exact_fringes(state, polarizer, hologram, [0.3])


def test_counts_on_a_warm_key_cache_equal_one_stream_per_point():
    joint = [JOINT_CLASSES[i % len(JOINT_CLASSES)] for i in range(20)]
    for repetition in (0, 1, 0, 1):  # the second pass finds the key cached
        counts, oracle = counts_and_oracle(31, repetition, joint)
        assert list(counts) == oracle


def test_full_turn_scans_past_the_grid_cache_equal_the_frozen_scans():
    config = hybrid_eraser_config(extinction=0.1, hologram_mode="binary", l_max=2)
    alphas = [0.2, 1.3]
    more = range(1, experiment._full_turn.cache_info().maxsize + 5)
    for points in [*more, *reversed(more)]:  # the way back starts on warm entries
        assert_same_scans(experiment.theta_scans(config, alphas, points=points),
                          parent_kernel.theta_scans(config, alphas, None, points))
        info = experiment._full_turn.cache_info()
        assert info.currsize <= info.maxsize
    assert experiment._full_turn.cache_info().hits > 0


def test_simulate_counts_reads_no_os_entropy(monkeypatch):
    joint = [JOINT_CLASSES[i % len(JOINT_CLASSES)] for i in range(12)]
    seeds = range(500, 500 + experiment._seeding.cache_info().maxsize + 8)
    oracles = {seed: counts_and_oracle(seed, 2, joint)[1] for seed in seeds}
    experiment._seeding.cache_clear()

    def no_entropy(size):
        raise AssertionError("OS entropy read")

    monkeypatch.setattr(random, "_urandom", no_entropy)
    with pytest.raises(AssertionError, match="OS entropy"):
        np.random.SeedSequence()  # the patch reaches numpy's entropy source
    for seed in seeds:
        for _ in ("cold", "warm"):
            cm = CountingModel(pair_rate=1e7, integration_time=1.0, seed=seed)
            series = ScanSeries(tuple(range(len(joint))), tuple(joint),
                                joint_probabilities=tuple(joint))
            counts = simulate_counts(hybrid_eraser_config(counting=cm), series, 2)
            assert list(counts.counts) == oracles[seed]


# ---------------------------------------------------------------------------
# projection order


def test_projection_orders_agree(canonical_config):
    a = causal_order_probability(canonical_config, math.pi / 4, 0.0, "A_first")
    b = causal_order_probability(canonical_config, math.pi / 4, 0.0, "B_first")
    assert a == pytest.approx(b, abs=1e-12)


def test_projection_orders_agree_on_grid(canonical_config):
    for alpha in np.linspace(0.05, math.pi - 0.05, 8):
        for theta in np.linspace(0, 2 * math.pi, 8):
            a = causal_order_probability(canonical_config, float(alpha),
                                         float(theta), "A_first")
            b = causal_order_probability(canonical_config, float(alpha),
                                         float(theta), "B_first")
            assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("delay_m", [-2.0, -1e-30, math.nan, math.inf])
def test_a_negative_or_non_finite_delay_is_rejected(delay_m):
    with pytest.raises(ValueError, match="finite and non-negative"):
        hybrid_eraser_config(delay_m=delay_m)


def test_a_zero_delay_adds_no_element():
    assert hybrid_eraser_config(delay_m=0.0).elements_a == hybrid_eraser_config().elements_a
    assert hybrid_eraser_config(delay_m=-0.0).elements_a == hybrid_eraser_config().elements_a


def test_delay_leaves_probabilities_unchanged(canonical_config):
    delayed = hybrid_eraser_config(alpha=0.3, delay_m=2.3)
    base = hybrid_eraser_config(alpha=0.3)
    for theta in (0.0, 0.9, 2.4):
        assert coincidence_probability(delayed, 0.3, theta) == \
            coincidence_probability(base, 0.3, theta)


# ---------------------------------------------------------------------------
# counted data


def test_zero_probability_gives_zero_counts():
    config = hybrid_eraser_config(counting=CountingModel(pair_rate=5000.0, seed=3))
    series = ScanSeries((0.0, 1.0), (0.0, 0.0),
                        joint_probabilities=(0.0, 0.0))
    out = simulate_counts(config, series)
    assert out.counts == (0, 0)


def test_poisson_mean_matches_rate_times_probability():
    config = hybrid_eraser_config(
        counting=CountingModel(pair_rate=1000.0, integration_time=5.0, seed=42))
    series = ScanSeries((0.0,), (0.5,), joint_probabilities=(0.25,))
    draws = [simulate_counts(config, series, repetition=r).counts[0]
             for r in range(200)]
    mean = 1000.0 * 5.0 * 0.25
    tol = 3.0 * math.sqrt(mean) / math.sqrt(200)
    assert abs(np.mean(draws) - mean) < tol


def test_counts_are_order_independent():
    config = hybrid_eraser_config(counting=CountingModel(seed=7))
    series = theta_scan(config, points=24)
    forward = simulate_counts(config, series).counts
    # evaluating a permuted series point-by-point gives the same stream
    perm = np.random.default_rng(1).permutation(24)
    shuffled = ScanSeries(
        tuple(series.settings[i] for i in perm),
        tuple(series.probabilities[i] for i in perm),
        joint_probabilities=tuple(series.joint_probabilities[i] for i in perm),
    )
    # same (seed, repetition, index) stream must not depend on the values
    # at other indices, so a point keeps its counts when others change
    single = simulate_counts(config, shuffled)
    for pos in range(24):
        if series.joint_probabilities[pos] == shuffled.joint_probabilities[pos]:
            assert single.counts[pos] == forward[pos]
    again = simulate_counts(config, series)
    assert again.counts == forward


def test_counts_wait_for_their_seed_lock():
    """Calls on one seed share its Philox, so each holds the seed's lock
    while it sets and draws; a call started while the lock is held waits."""
    joint = [JOINT_CLASSES[i % len(JOINT_CLASSES)] for i in range(18)]
    seed, repetition = 4321, 5
    cm = CountingModel(pair_rate=1e7, integration_time=1.0, seed=seed)
    series = ScanSeries(tuple(range(len(joint))), tuple(joint),
                        joint_probabilities=tuple(joint))
    oracle = [int(point_stream(seed, repetition, i).poisson(1e7 * p))
              for i, p in enumerate(joint)]
    results = []
    worker = threading.Thread(target=lambda: results.append(
        simulate_counts(hybrid_eraser_config(counting=cm), series, repetition)))
    lock = experiment._seeding(seed).lock
    with lock:
        worker.start()
        worker.join(0.05)
        assert worker.is_alive() and not results
    worker.join(10.0)
    assert not worker.is_alive()
    assert list(results[0].counts) == oracle


def counts_and_oracle(seed, repetition, joint, pair_rate=1e7, singles=0.0):
    """Counts of a series with these joint probabilities, and the counts of
    one ``point_stream`` per point."""
    cm = CountingModel(pair_rate=pair_rate, integration_time=1.0,
                       singles_a=singles, singles_b=singles, seed=seed)
    config = hybrid_eraser_config(counting=cm)
    series = ScanSeries(tuple(range(len(joint))), tuple(joint),
                        joint_probabilities=tuple(joint))
    oracle = [int(point_stream(seed, repetition, i).poisson(
                  cm.pair_rate * cm.integration_time * p + cm.accidentals()))
              for i, p in enumerate(joint)]
    return simulate_counts(config, series, repetition).counts, oracle


# at pair_rate 1e7 these are means 0, 3, 9.9 (below numpy's Poisson switch
# at 10), 10, 500 and 1e7
JOINT_CLASSES = (0.0, 3e-7, 9.9e-7, 1e-6, 5e-5, 1.0)


@pytest.mark.parametrize("seed, repetition, n", [
    (0, 0, 0),  # empty series
    (0, 0, 24),
    (1, 2 ** 32, 30),  # two-word repetition
    (2 ** 32 + 3, 7, 31),  # two-word seed
    (2 ** 31 - 1, 2 ** 33 + 1, 17),
    (2 ** 64 + 5, 3, 40),  # three-word seed
    (2 ** 128 + 9, 1, 12),  # more seed words than the pool holds
    (5, 2 ** 64 - 1, 9),  # the largest repetition
])
def test_counts_equal_one_stream_per_point(seed, repetition, n):
    joint = [JOINT_CLASSES[i % len(JOINT_CLASSES)] for i in range(n)]
    counts, oracle = counts_and_oracle(seed, repetition, joint)
    assert list(counts) == oracle
    assert all(type(c) is int for c in counts)


def test_counts_with_accidentals_equal_one_stream_per_point():
    joint = np.random.default_rng(4).uniform(0.0, 1.0, 50).tolist()
    counts, oracle = counts_and_oracle(97, 2, joint, pair_rate=40.0,
                                       singles=3e3)
    assert list(counts) == oracle


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 70), repetition=st.integers(0, 2 ** 40),
       joint=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
       data=st.data())
def test_count_depends_only_on_its_key_and_mean(seed, repetition, joint, data):
    counts, oracle = counts_and_oracle(seed, repetition, joint, pair_rate=500.0)
    assert list(counts) == oracle
    # another point's mean, or a shorter series, leaves a count unchanged
    j = data.draw(st.integers(0, len(joint) - 1))
    changed = joint[:j] + [data.draw(st.floats(0.0, 1.0))] + joint[j + 1:]
    after, _ = counts_and_oracle(seed, repetition, changed, pair_rate=500.0)
    assert after[:j] == counts[:j] and after[j + 1:] == counts[j + 1:]
    shorter, _ = counts_and_oracle(seed, repetition, joint[:j], pair_rate=500.0)
    assert shorter == counts[:j]


@pytest.mark.parametrize("seed, repetition, index", [
    (0, 0, 0), (7, 3, 41), (2 ** 70 + 1, 2 ** 64 - 1, 2 ** 64 - 2)])
def test_neighbouring_point_streams_share_no_raw_output(seed, repetition, index):
    first, second = (
        set(point_stream(seed, repetition, i).bit_generator.random_raw(64).tolist())
        for i in (index, index + 1))
    assert first.isdisjoint(second)


def test_negative_seed_is_rejected_by_name():
    with pytest.raises(ValueError, match=re.escape(
            "seed must be a non-negative integer, got -5")):
        CountingModel(seed=-5)


@pytest.mark.parametrize("repetition", [2 ** 64, -1])
def test_repetition_outside_a_counter_word_is_named(repetition):
    config = hybrid_eraser_config(counting=CountingModel(seed=3))
    series = ScanSeries((0.0,), (0.5,), joint_probabilities=(0.25,))
    with pytest.raises(ValueError, match=f"repetition {repetition}"):
        simulate_counts(config, series, repetition)
    with pytest.raises(ValueError, match=f"repetition {repetition}"):
        point_stream(3, repetition, 0)


@pytest.mark.parametrize("index", [2 ** 64, -1])
def test_index_outside_a_counter_word_is_named(index):
    with pytest.raises(ValueError,
                       match=re.escape(f"index {index} outside [0, 2**64)")):
        point_stream(3, 0, index)


# ---------------------------------------------------------------------------
# timeline


def timeline_config(seed, pair_rate=2000.0, singles=0.0, delay_m=0.0):
    return hybrid_eraser_config(
        alpha=math.pi / 4,
        delay_m=delay_m,
        counting=CountingModel(pair_rate=pair_rate, singles_a=singles,
                               singles_b=singles, seed=seed),
    )


def test_small_delay_keeps_coincidences():
    base = timeline_config(seed=11)
    delayed = timeline_config(seed=11, delay_m=2.3)
    _, n_base = simulate_timeline(base, math.pi / 4, 3 * math.pi / 4, 0.5)
    _, n_delayed = simulate_timeline(delayed, math.pi / 4, 3 * math.pi / 4, 0.5)
    assert n_delayed == n_base  # 7.67 ns shift is far inside the 25 ns gate


def test_large_delay_kills_true_coincidences():
    config = timeline_config(seed=13, delay_m=30.0)
    _, n = simulate_timeline(config, math.pi / 4, 3 * math.pi / 4, 0.5)
    assert n == 0  # ~100 ns delay exceeds the gate and no accidentals are on


class _FixedDraws:
    """Stands in for every stream's generator: each Poisson draw is
    ``len(times)`` and each uniform draw returns ``times``."""

    def __init__(self, times):
        self.times = times

    def poisson(self, lam):
        return len(self.times)

    def uniform(self, low, high, size):
        assert size == len(self.times)
        return self.times.copy()


def test_a_true_pair_click_comes_first_on_equal_times(monkeypatch):
    # 64 pairs and 64 arm-A singles at the same 64 times: an unstable merge
    # reorders the ties (numpy's quicksort does, at this size)
    times = np.arange(64) * 1e-3
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws(times))
    config = hybrid_eraser_config(
        alpha=math.pi / 4,
        counting=CountingModel(pair_rate=1000.0, singles_a=1000.0, seed=1))
    events, coincidences = simulate_timeline(config, math.pi / 4, 0.0, 0.1)
    assert events.times_a.tolist() == np.repeat(times, 2).tolist()
    assert events.true_pair_a.tolist() == [True, False] * 64
    assert events.times_b.tolist() == times.tolist()
    assert events.true_pair_b.all()
    assert coincidences == 64


def test_events_are_time_ordered_and_tagged():
    config = timeline_config(seed=17, singles=2000.0)
    events, _ = simulate_timeline(config, math.pi / 4, 0.0, 0.2)
    for arm in "AB":
        times = [e.timestamp for e in events if e.arm == arm]
        assert times == sorted(times)
    assert {e.tag for e in events} <= {"true_pair", "accidental"}


def test_event_table_columns_and_records_agree():
    config = timeline_config(seed=19, singles=3000.0, delay_m=4.5)
    events, _ = simulate_timeline(config, math.pi / 4, 0.0, 0.2)
    records = list(events)
    assert len(records) == len(events) > 0
    assert all(type(r) is EventRecord and type(r.timestamp) is float
               for r in records)
    from_columns = [(arm, t, "true_pair" if p else "accidental")
                    for arm, times, pairs in events.arms()
                    for t, p in zip(times.tolist(), pairs.tolist())]
    assert [tuple(r) for r in records] == from_columns
    assert [r.arm for r in records] == sorted(r.arm for r in records)
    assert int(events.true_pair_a.sum()) == int(events.true_pair_b.sum()) > 0
    assert list(events) == records  # the second pass reads the same records
    for arm, times, pairs in events.arms():
        for column in (times, pairs):
            with pytest.raises(ValueError):
                column[0] = column[-1]


def test_events_csv_prints_times_as_fmt():
    times_a = np.array([0.0, 5e-324, 1e-300, 1 / 3, 0.1 + 0.2, 2.5e-08,
                        123456789012.5, 1e300])
    times_b = np.array([-0.0, 7.0, 1e16 + 2.0])
    events = EventTable(times_a, np.arange(8) % 3 == 0, times_b,
                        np.array([False, True, False]))
    want = ["arm,timestamp_s,tag"]
    want += [f"{r.arm},{fmt(r.timestamp)},{r.tag}" for r in events]
    assert events_csv(events) == "\n".join(want) + "\n"
    empty = EventTable(np.empty(0), np.empty(0, bool), np.empty(0),
                       np.empty(0, bool))
    assert len(empty) == 0 and list(empty) == []
    assert events_csv(empty) == "arm,timestamp_s,tag\n"


def _percent_csv(events):
    """The events CSV by one Python ``%`` over a ``%.12g`` row template."""
    rows, times = ["arm,timestamp_s,tag"], []
    for arm, arm_times, true_pair in events.arms():
        templates = tuple(f"{arm},%.12g,{tag}" for tag in experiment.TAGS)
        rows += map(templates.__getitem__, true_pair.tolist())
        times += arm_times.tolist()
    return "\n".join(rows) % tuple(times) + "\n"


def _assert_matches_percent(events):
    got, want = events_csv(events), _percent_csv(events)
    if got != want:  # name the rows; a diff of the whole text takes minutes
        rows = zip(got.split("\n"), want.split("\n"))
        pytest.fail(f"rows differ: {[r for r in rows if r[0] != r[1]][:5]}")


def _table(times_a, times_b, rng):
    return EventTable(np.asarray(times_a, float), rng.random(len(times_a)) < 0.5,
                      np.asarray(times_b, float), rng.random(len(times_b)) < 0.5)


SPECIAL_TIMES = [1e-4, np.nextafter(1e-4, 0.0), 1e12, np.nextafter(1e12, 0.0),
                 5e-324, 0.0, -0.0, -2.5, -1e-6, math.inf, -math.inf, math.nan]


def test_events_csv_matches_percent_oracle():
    rng = np.random.default_rng(15)
    scales = [float(f"{k}e{p}") for k in ("1", "5", "9.99999999999",
                                          "9.999999999995", "1.000000000005")
              for p in range(-12, 16)]
    times = np.concatenate([
        10.0 ** rng.uniform(-8.0, 14.0, 500_000),  # e-forms included
        np.sort(rng.uniform(0.0, 2.0, 200_000)),  # sorted, as timelines are
        [float(f"{x:.12e}") for x in 10.0 ** rng.uniform(-5.0, 13.0, 100_000)],
        [float(f"{d}5e{p}") for d, p in zip(  # 13 digits ending in 5: ties
            rng.integers(10 ** 11, 10 ** 12, 100_000).tolist(),
            rng.integers(-17, 0, 100_000).tolist())],
        rng.integers(0, 10 ** 6, 100_000) / 10.0 ** rng.integers(0, 12, 100_000),
        scales, np.nextafter(scales, 0.0), np.nextafter(scales, math.inf),
        SPECIAL_TIMES])
    assert len(times) >= 1_000_000
    half = len(times) // 2
    _assert_matches_percent(_table(rng.permutation(times[:half]), times[half:], rng))
    fallback_only = [0.0, -1.0, 1e-300, 1e300, math.nan, -math.inf, 0.9999999999995]
    for table in (_table([], SPECIAL_TIMES, rng), _table(SPECIAL_TIMES, [], rng),
                  _table(fallback_only, [0.25, 1e-5], rng), _table([], [], rng)):
        _assert_matches_percent(table)


def test_events_csv_digit_groups_match_percent_oracle():
    # 12-digit mantissas that end in one, two or three zero groups of four
    # digits, or have a zero middle group, at exponents -6..13, on both
    # arms and across a block edge
    rng = np.random.default_rng(18)
    mantissas = ["100000000000", "123400000000", "123456780000",
                 "100000001234", "100000000001"]
    cases = [float(f"{d}e{p - 11}") for d in mantissas for p in range(-6, 14)]
    fill = np.sort(rng.uniform(0.0, 2.0, output._CHUNK - len(cases) // 2))
    _assert_matches_percent(_table(np.concatenate([fill, cases]),
                                   np.concatenate([fill, cases[::-1]]), rng))


def test_digit_group_table_matches_fstrings():
    quads = [f"{i:04d}" for i in range(10_000)]
    want = "".join(quads + [q.rstrip("0").ljust(4, "\0") for q in quads])
    assert np.array_equal(output._QUADS, np.frombuffer(want.encode(), "<u4"))


def test_events_csv_chunk_boundaries():
    rng = np.random.default_rng(16)
    n = 2 * output._CHUNK + 37
    times = np.sort(rng.uniform(1e-4, 3.0, n))
    # rows that go through Python's %: zero, e-form and near ties, on the
    # first and the last row of blocks
    fallbacks = [0.0, 0.9999999999995, 0.5000000000005, 1e-5, 2.000000000005]
    for k in (1, 2):
        times[k * output._CHUNK - 1] = fallbacks[k]
        times[k * output._CHUNK] = fallbacks[k + 2]
    times[0], times[-1] = fallbacks[0], 12.34567890125
    table = _table(times, times[::-1].copy(), rng)
    assert table.true_pair_a.any() and not table.true_pair_a.all()
    _assert_matches_percent(table)


def test_events_csv_memory_stays_within_the_text():
    rng = np.random.default_rng(17)
    table = _table(np.sort(rng.uniform(0.0, 1.5, 150_000)),
                   np.sort(rng.uniform(0.0, 1.5, 150_000)), rng)
    tracemalloc.start()
    try:
        text = events_csv(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


@pytest.mark.parametrize("enabled", [True, False])
def test_event_records_leave_gc_as_found(enabled):
    config = timeline_config(seed=19, singles=3000.0)
    events, _ = simulate_timeline(config, math.pi / 4, 0.0, 0.2)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(list(events)) == len(events) > 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _random_streams(rng, lone_pairs=False):
    """Two sorted click streams: correlated pairs under jitter and a delay,
    plus singles, at a random density of clicks per gate.  With
    ``lone_pairs`` the clicks are a thousand times sparser, the singles a
    tenth as many, and delay plus jitter stay inside the gate, so most
    clusters are one click on each arm."""
    gate = 10 ** rng.uniform(-3.0, 0.0)
    per_gate = 10 ** rng.uniform(-2.0, 1.0)
    n_pairs, n_a, n_b = rng.integers(0, 120, 3)
    reach = 2.0  # the largest delay, in gates
    if lone_pairs:
        per_gate, n_a, n_b, reach = per_gate / 1000.0, n_a // 10, n_b // 10, 0.5
    span = max(n_pairs + max(n_a, n_b), 1) * gate / per_gate
    pairs = rng.uniform(0.0, span, n_pairs)
    shift = rng.choice([0.0, rng.uniform(-reach, reach) * gate])
    jitter = rng.uniform(0.0, 0.75 * reach) * gate
    times_a = np.sort(np.concatenate([pairs, rng.uniform(0.0, span, n_a)]))
    times_b = np.sort(np.concatenate([
        pairs + shift + rng.uniform(-jitter, jitter, n_pairs),
        rng.uniform(0.0, span, n_b)]))
    return times_a, times_b, gate


def test_matcher_agrees_with_walk_on_random_streams():
    rng = np.random.default_rng(20240611)
    for _ in range(600):
        times_a, times_b, gate = _random_streams(rng)
        assert _count_coincidences(times_a, times_b, gate) == \
            greedy_coincidences(times_a, times_b, gate)


def test_matcher_agrees_with_walk_on_lone_pairs():
    rng = np.random.default_rng(20261019)
    sizes = []
    for _ in range(300):
        times_a, times_b, gate = _random_streams(rng, lone_pairs=True)
        assert _count_coincidences(times_a, times_b, gate) == \
            greedy_coincidences(times_a, times_b, gate)
        merged = np.sort(np.concatenate([times_a, times_b]))
        cuts = np.flatnonzero(np.diff(merged) > gate) + 1
        sizes += np.diff(np.concatenate([[0], cuts, [len(merged)]])).tolist()
    sizes = np.array(sizes)
    assert np.count_nonzero(sizes == 2) > len(sizes) / 2
    assert np.count_nonzero(sizes > 2) > 0  # the walk still runs sometimes


#: (clicks on A, clicks on B, gate, coincidences); dyadic times, so every
#: difference below is exact and ties at the gate are real ties
MATCHER_CASES = {
    "several clicks in one gate": ([0.0, 0.125, 0.25, 0.375], [0.0625, 0.3125],
                                   0.5, 2),
    "burst on one arm": ([1.0] * 3 + [1.25, 1.5], [1.5, 1.75], 0.25, 2),
    "tie at +gate": ([0.5, 1.5, 2.5], [0.25, 1.25, 2.25], 0.25, 3),
    "tie at -gate": ([0.25, 1.25], [0.5, 1.5], 0.25, 2),
    "tie at the gate in a three-click cluster": ([0.0], [0.25, 0.375], 0.25, 1),
    "just outside the gate": ([0.0, 4.0], [0.25 + 2.0 ** -50, 3.75 - 2.0 ** -50],
                              0.25, 0),
    "equal times on both arms": ([1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0],
                                 0.125, 3),
    "arm A empty": ([], [1.0, 2.0], 1.0, 0),
    "arm B empty": ([1.0], [], 1.0, 0),
    "both arms empty": ([], [], 1.0, 0),
    "two clicks on one arm within the gate": ([1.0, 1.125], [3.0, 3.0625],
                                              0.25, 0),
    "lone pair exactly a gate apart": ([0.0, 2.25], [0.25, 2.0], 0.25, 2),
    "lone pair a gate and an ulp apart": ([0.0], [np.nextafter(0.25, 1.0)],
                                          0.25, 0),
    "lone pair a gap away from three clicks": ([1.0, 1.5, 1.625],
                                               [1.125, 1.5625], 0.25, 2),
    "only lone pairs": (list(np.arange(8.0)),
                        list(np.arange(8.0) + np.resize([0.125, -0.25], 8)),
                        0.25, 8),
    "one cluster across the stream": (list(np.arange(96) * 0.375),
                                      list(np.arange(80) * 0.5 + 0.0625),
                                      0.5, None),
}


@pytest.mark.parametrize("times_a, times_b, gate, want",
                         MATCHER_CASES.values(), ids=MATCHER_CASES.keys())
def test_matcher_agrees_with_walk_on_adversarial_streams(times_a, times_b,
                                                          gate, want):
    times_a, times_b = np.array(times_a, float), np.array(times_b, float)
    got = _count_coincidences(times_a, times_b, gate)
    assert got == greedy_coincidences(times_a, times_b, gate)
    if want is not None:
        assert got == want


def test_matcher_on_one_long_cluster():
    rng = np.random.default_rng(5)
    gate = 1e-6  # mean spacing a tenth of the gate: one cluster
    times_a = np.sort(rng.uniform(0.0, 3e-4, 3000))
    times_b = np.sort(rng.uniform(0.0, 3e-4, 2000))
    assert np.diff(np.sort(np.concatenate([times_a, times_b]))).max() <= gate
    assert _count_coincidences(times_a, times_b, gate) == \
        greedy_coincidences(times_a, times_b, gate)


def test_timeline_is_deterministic_per_seed():
    config = timeline_config(seed=23, singles=1000.0)
    first = simulate_timeline(config, 0.5, 0.3, 0.3)
    second = simulate_timeline(config, 0.5, 0.3, 0.3)
    assert first[1] == second[1]
    assert [(e.arm, e.timestamp, e.tag) for e in first[0]] == \
        [(e.arm, e.timestamp, e.tag) for e in second[0]]


def test_timeline_frequency_converges_to_probability():
    # coincidence frequency vs the exact joint probability: the count is
    # Poisson with variance n * joint, so 3 standard errors are
    # 3 * sqrt(joint / n)
    alpha, theta = math.pi / 8, 0.4
    config = timeline_config(seed=37, pair_rate=4000.0)
    joint, _ = coincidence_probability(config, alpha, theta)
    duration = 2.0
    _, coincidences = simulate_timeline(config, alpha, theta, duration)
    n = config.counting.pair_rate * duration
    frequency = coincidences / n
    assert abs(frequency - joint) < 3.0 * math.sqrt(joint / n)


def test_true_pair_clicks_are_poisson_at_the_detected_pair_rate():
    """Detected pairs form a Poisson process at ``pair_rate * joint``, with
    singles and an arm delay on.  Over 300 seeds the true-pair click count
    per run has mean and variance ``mu = pair_rate * joint * T`` (43.5
    here): the sample mean within 4 standard errors, ``sqrt(mu / n)``, and
    the sample variance within 4 of its standard errors,
    ``sqrt(mu4 / n - mu**2 * (n - 3) / (n * (n - 1)))`` with the Poisson
    fourth central moment ``mu4 = mu * (1 + 3 * mu)``."""
    alpha, theta, duration = math.pi / 4, 0.3, 0.1
    config = timeline_config(seed=0, pair_rate=4000.0, singles=3000.0,
                             delay_m=4.5)
    joint, _ = coincidence_probability(config, alpha, theta)
    pairs = []
    for seed in range(300):
        seeded = replace(config, counting=replace(config.counting, seed=seed))
        events, _ = simulate_timeline(seeded, alpha, theta, duration)
        on_a, on_b = int(events.true_pair_a.sum()), int(events.true_pair_b.sum())
        assert on_a == on_b
        pairs.append(on_a)
    n, mu = len(pairs), config.counting.pair_rate * joint * duration
    assert 40.0 < mu < 50.0
    mu4 = mu * (1.0 + 3.0 * mu)
    assert abs(np.mean(pairs) - mu) <= 4.0 * math.sqrt(mu / n)
    assert abs(np.var(pairs, ddof=1) - mu) <= \
        4.0 * math.sqrt(mu4 / n - mu ** 2 * (n - 3) / (n * (n - 1)))


def test_scan_counts_and_timeline_agree_on_accidentals():
    """Singles only (no pairs), at most 1e-3 singles per gate, so greedy
    matching loses a negligible share of accidental pairs.  Both counts are
    Poisson with mean ``accidentals()`` (50 here), so the two sample means
    differ by less than 4 standard errors of their difference."""
    counting = CountingModel(pair_rate=0.0, integration_time=1.0, gate=25e-9,
                             singles_a=4e4, singles_b=2.5e4)
    assert max(counting.singles_a, counting.singles_b) * counting.gate <= 1e-3
    config = hybrid_eraser_config(alpha=math.pi / 4, counting=counting)
    series = theta_scan(config, points=24)
    counted, timed = [], []
    for seed in range(40):
        seeded = replace(config, counting=replace(counting, seed=seed))
        counted += simulate_counts(seeded, series).counts
        timed.append(simulate_timeline(seeded, math.pi / 4, 0.3,
                                       counting.integration_time)[1])
    mean = counting.accidentals()
    bound = 4.0 * math.sqrt(mean / len(counted) + mean / len(timed))
    assert abs(np.mean(counted) - np.mean(timed)) <= bound


def test_coincidence_with_extinguished_analyzer_errors():
    config = ExperimentConfig(
        source=SourceSpec(l_max=1),
        elements_a=(PolarizerSpec(alpha=0.0, arm="A"),),
    )
    with pytest.raises(NullOutcomeError):
        coincidence_probability(config, math.pi / 2, 0.0)


def test_timeline_rejects_bad_duration():
    with pytest.raises(ValueError, match="duration"):
        simulate_timeline(timeline_config(seed=1), 0.0, 0.0, 0.0)


@pytest.mark.parametrize("duration, message", [
    (math.nan, "duration must be positive and finite, got nan s"),
    (math.inf, "duration must be positive and finite, got inf s"),
    (-math.inf, "duration must be positive and finite, got -inf s"),
    (1e30, "duration 1e+30 s is too long"),
])
def test_timeline_names_an_unusable_duration(duration, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_timeline(timeline_config(seed=1), 0.0, 0.0, duration)


def test_timeline_seed_error_is_not_read_as_a_long_duration():
    # the draws turn a ValueError into "too long"; seeding happens before them
    with pytest.raises(ValueError, match="non-negative") as raised:
        simulate_timeline(timeline_config(seed=-1), 0.0, 0.0, 1.0)
    assert "too long" not in str(raised.value)


def test_config_rejects_two_delays_per_arm():
    with pytest.raises(ValueError, match="delay"):
        ExperimentConfig(
            source=SourceSpec(),
            elements_a=(DelaySpec(1.0, "A"), DelaySpec(2.0, "A")),
        )


def test_config_rejects_misplaced_elements():
    with pytest.raises(ValueError, match="arm"):
        ExperimentConfig(source=SourceSpec(),
                         elements_a=(PolarizerSpec(alpha=0.0, arm="B"),))


_FOUR_SETTINGS = ScanSeries(settings=(0.0, 0.5, 1.0, 1.5), probabilities=(0.5,) * 4)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ExperimentConfig(source=SourceSpec(), elements_a=("qplate",)),
                 TypeError, "not an element spec: 'qplate'", id="config-non-spec"),
    pytest.param(lambda: ExperimentConfig(source=SourceSpec(),
                                          analyzer_a=PolarizerSpec(0.0, arm="B")),
                 ValueError, re.escape("analyzers must sit on arms A (polarizer) and B (hologram)"),
                 id="config-analyzer-arm"),
    pytest.param(lambda: CountingModel(singles_b=-1.0),
                 ValueError, "rates must be non-negative", id="counting-negative-rate"),
    pytest.param(lambda: CountingModel(integration_time=-1.0),
                 ValueError, "integration time must be non-negative", id="counting-negative-time"),
    pytest.param(lambda: ScanSeries(settings=(0.0, 1.0), probabilities=(0.5,)),
                 ValueError, "probabilities length does not match settings", id="series-length"),
    pytest.param(lambda: ScanSeries(settings=(0.0,), probabilities=(1.1,)),
                 ValueError, re.escape("probabilities must lie in [0, 1]"), id="series-range"),
    pytest.param(lambda: fit_sinusoid(_FOUR_SETTINGS, on="visibility"),
                 ValueError, "unknown fit target 'visibility'", id="fit-unknown-target"),
    pytest.param(lambda: fit_sinusoid(_FOUR_SETTINGS, on="counts"),
                 ValueError, "series carries no counts", id="fit-missing-counts"),
    pytest.param(lambda: causal_order_probability(hybrid_eraser_config(), 0.0, 0.0, "together"),
                 ValueError, "unknown projection order 'together'", id="causal-unknown-order"),
    pytest.param(lambda: exact_fringes(run_pipeline(hybrid_eraser_config())[0],
                                       PolarizerSpec(0.0, arm="B"), el.HologramSpec(ell=1), [0.0]),
                 ValueError, "polarizer and hologram must sit on different arms",
                 id="fringes-one-arm"),
])
def test_public_guards_name_what_they_reject(call, error, message):
    with pytest.raises(error, match=message):
        call()
