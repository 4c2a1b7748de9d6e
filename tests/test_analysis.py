import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oam_eraser import analysis
from oam_eraser.analysis import (
    TwoPathModel,
    calibrate_extinction,
    complementarity_check,
    count_azimuthal_lobes,
    distinguishability,
    exact_fringes,
    fit_sinusoid,
    fit_visibility,
    fitted_visibility,
    oam_fringe_visibility,
    render_azimuthal_pattern,
    theoretical_visibility,
    two_path_pattern,
    visibility_curve,
)
from oam_eraser.elements import HologramSpec, apply_element
from oam_eraser.experiment import (CountingModel, ScanSeries, hybrid_eraser_config,
                                   run_pipeline)
from oam_eraser.hilbert import NULL_TOL, POL_H, POL_V, joint_ket

from conftest import marked_pair
from density_oracle import reduced_density
from states import analyzer_probabilities

ROOT2 = math.sqrt(2.0)


def series_of(settings, values):
    return ScanSeries(tuple(float(s) for s in settings),
                      tuple(float(v) for v in values))


# ---------------------------------------------------------------------------
# visibility


def fitted_contrast(thetas, values):
    return fit_visibility(fit_sinusoid(series_of(thetas, values)))


def test_constant_series_has_zero_visibility():
    thetas = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    assert fitted_contrast(thetas, np.full(24, 0.5)) == pytest.approx(0.0, abs=1e-12)


def test_unit_contrast_sinusoid():
    thetas = np.linspace(0, 2 * math.pi, 100, endpoint=False)
    values = (1 + np.cos(2 * thetas)) / 2
    assert fitted_contrast(thetas, values) == pytest.approx(1.0, abs=1e-9)


def test_all_zero_series_raises():
    thetas = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    with pytest.raises(ValueError, match="no signal"):
        fitted_contrast(thetas, np.zeros(12))


def test_erased_setting_reaches_full_contrast():
    config = hybrid_eraser_config(alpha=-math.pi / 4)
    vis, _ = fitted_visibility(config)
    assert vis == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# sinusoid fit


def test_fit_recovers_exact_parameters():
    thetas = np.linspace(0, 2 * math.pi, 36, endpoint=False)
    values = 0.4 + 0.3 * np.cos(2 * thetas + 1.1)
    fit = fit_sinusoid(series_of(thetas, values))
    assert fit.offset == pytest.approx(0.4, abs=1e-10)
    assert fit.amplitude == pytest.approx(0.3, abs=1e-10)
    assert fit.phase == pytest.approx(1.1, abs=1e-10)
    assert fit.residual_rms < 1e-10


def test_fit_residual_is_the_rms_of_what_the_model_misses():
    # on a uniform full-period grid a cos(6x) term is orthogonal to the
    # model, so the fit leaves all of it: an rms of 0.05/sqrt(2)
    thetas = np.linspace(0, 2 * math.pi, 36, endpoint=False)
    values = 0.4 + 0.3 * np.cos(2 * thetas + 1.1) + 0.05 * np.cos(6 * thetas)
    fit = fit_sinusoid(series_of(thetas, values))
    assert fit.offset == pytest.approx(0.4, abs=1e-12)
    assert fit.amplitude == pytest.approx(0.3, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.05 / math.sqrt(2), abs=1e-12)


def test_fit_phase_of_erased_scan():
    config = hybrid_eraser_config(alpha=math.pi / 4)
    _, fit = fitted_visibility(config)
    assert fit.phase == pytest.approx(math.pi / 2, abs=1e-9)


def test_fit_on_noisy_counts_recovers_amplitude():
    thetas = np.linspace(0, 2 * math.pi, 36, endpoint=False)
    truth = 1000.0 + 300.0 * np.cos(2 * thetas + 0.7)
    rng = np.random.default_rng(123)
    amplitudes = []
    for _ in range(50):
        counts = rng.poisson(truth)
        series = ScanSeries(tuple(thetas),
                            tuple(np.clip(truth / truth.max(), 0, 1)),
                            counts=tuple(int(c) for c in counts))
        amplitudes.append(fit_sinusoid(series, on="counts").amplitude)
    stderr = np.std(amplitudes, ddof=1) / math.sqrt(len(amplitudes))
    assert abs(np.mean(amplitudes) - 300.0) < 3.0 * stderr


def test_fit_needs_four_distinct_settings():
    with pytest.raises(ValueError, match="4 distinct"):
        fit_sinusoid(series_of([0.0, 0.1, 0.2], [0.1, 0.2, 0.3]))


def test_degenerate_design_is_rejected():
    thetas = [0.0, math.pi, 0.0, math.pi]
    with pytest.raises(ValueError, match="4 distinct|degenerate"):
        fit_sinusoid(series_of(thetas, [0.5, 0.5, 0.5, 0.5]))
    # four distinct settings that alias the frequency-2 model: sin column 0
    aliased = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    with pytest.raises(ValueError, match="degenerate"):
        fit_sinusoid(series_of(aliased, [1.0, 0.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# visibility versus polarizer angle


def test_visibility_follows_sine_of_twice_alpha():
    config = hybrid_eraser_config()
    alphas = np.linspace(0, math.pi / 4, 9)
    for point in visibility_curve(config, alphas):
        assert point.visibility == pytest.approx(
            theoretical_visibility(point.alpha), abs=1e-9)


def test_theoretical_visibility_values():
    assert theoretical_visibility(0.0) == 0.0
    assert theoretical_visibility(math.pi / 4) == pytest.approx(1.0)
    assert theoretical_visibility(math.pi / 8) == pytest.approx(ROOT2 / 2)


@pytest.mark.parametrize("alpha,target", [
    (math.pi / 4, 0.92),   # erased-fringe contrast, conventional run
    (math.pi / 4, 0.96),   # erased-fringe contrast, delayed run
    (0.0, 0.04),           # marked-case residual, conventional run
    (0.0, 0.008),          # marked-case residual, delayed run
])
def test_leak_calibration_spans_reference_visibilities(alpha, target):
    leak = calibrate_extinction(
        lambda e: hybrid_eraser_config(alpha=alpha, extinction=e),
        target_visibility=target)
    got, _ = fitted_visibility(hybrid_eraser_config(alpha=alpha, extinction=leak))
    assert got == pytest.approx(target, abs=1e-4)


def test_calibration_brackets_target():
    vis = fitted_visibility(
        hybrid_eraser_config(alpha=math.pi / 4, extinction=0.3))[0]
    assert vis < 1.0
    leak = calibrate_extinction(
        lambda e: hybrid_eraser_config(alpha=math.pi / 4, extinction=e),
        target_visibility=0.95)
    got = fitted_visibility(hybrid_eraser_config(alpha=math.pi / 4,
                                                 extinction=leak))[0]
    assert got == pytest.approx(0.95, abs=1e-4)


# ---------------------------------------------------------------------------
# the leak solver on arbitrary monotone functions

#: evaluations the solver may spend on ``bracket=(0, 0.8)``, ``tol=1e-7``:
#: two endpoints, then at most one step more than bisection's
SOLVER_STEP_BOUND = 2 + math.ceil(math.log2(0.8 / 1e-7)) + 1


@pytest.fixture
def solve(monkeypatch):
    """``calibrate_extinction`` with the builder's value as the visibility,
    so ``f`` is solved for ``f(e) = target``; returns ``(e, evaluations)``."""
    monkeypatch.setattr(analysis, "fitted_visibility",
                        lambda value: (value, None))

    def run(f, target, calls=None):
        calls = [] if calls is None else calls

        def counted(e):
            calls.append(e)
            return f(e)

        return calibrate_extinction(counted, target), len(calls)

    return run


def step_at(root, low, high):
    return lambda e: low if e < root else high


# the root of each case is where f - target changes sign; both slopes
CASES = {
    # regula falsi alone crawls along a lopsided step
    "step": [(step_at(root, 0.0, 1.0), 0.01, root)
             for root in (0.3, 0.123456789, 0.79)],
    "falling-step": [(step_at(0.5, 1.0, 0.0), 0.02, 0.5),
                     (step_at(0.0217, 0.9, -0.1), 0.85, 0.0217)],
    # flat on one side of the root, steep on the other
    "ninth-power": [(lambda e: (e / 0.8) ** 9, (0.3 / 0.8) ** 9, 0.3),
                    (lambda e: -(e / 0.8) ** 9, -(0.61 / 0.8) ** 9, 0.61)],
    # flat at the root itself
    "flat-at-root": [(lambda e, r=r: (e - r) ** 9, 0.0, r) for r in (0.07, 0.4, 0.77)],
    "near-endpoint": [(lambda e: e, r, r) for r in (3e-8, 1.2e-7, 0.8 - 3e-8)]
    + [(lambda e: -e, -r, r) for r in (2e-8, 0.8 - 1e-8)]
    + [(step_at(0.8 - 4e-8, 0.0, 1.0), 0.5, 0.8 - 4e-8)],
}


@pytest.mark.parametrize("f, target, root", [
    pytest.param(*case, id=f"{name}-{i}")
    for name, cases in CASES.items() for i, case in enumerate(cases)])
def test_solver_brackets_the_sign_change_within_the_step_bound(
        solve, f, target, root):
    leak, evaluations = solve(f, target)
    assert abs(leak - root) <= 0.5e-7
    assert evaluations <= SOLVER_STEP_BOUND


@pytest.mark.parametrize("f, target", [
    pytest.param(*case[:2], id=f"{name}-{i}")
    for name, cases in {**CASES, "erased-misfit": [
        (lambda e: (1 - e * e) / (1 + e * e), v, None) for v in (0.6, 0.99)],
    }.items() for i, case in enumerate(cases)])
def test_every_step_lies_between_interpolation_and_midpoint(solve, f, target):
    """Truncation moves the regula falsi point toward the midpoint and
    projection moves it further, never past: replay the bracket and check."""
    calls = []
    solve(f, target, calls)
    (lo, hi), steps = calls[:2], calls[2:]
    f_lo, f_hi = f(lo) - target, f(hi) - target
    for x in steps:
        mid = 0.5 * (lo + hi)
        interpolated = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        assert min(mid, interpolated) - 1e-15 <= x <= max(mid, interpolated) + 1e-15
        f_x = f(x) - target
        if f_lo * f_x < 0.0:
            hi, f_hi = x, f_x
        else:
            lo, f_lo = x, f_x


def test_solver_keeps_the_exact_zero_returns_and_the_bracket_check(solve):
    assert solve(lambda e: e, 0.0) == (0.0, 2)
    assert solve(lambda e: e, 0.8) == (0.8, 2)
    # a line through the midpoint: interpolation finds it, nothing moves it
    assert solve(lambda e: 1.0 - e, 0.6) == (0.4, 3)
    with pytest.raises(ValueError, match="not bracketed"):
        solve(lambda e: e, 0.9)


@settings(deadline=None, max_examples=60)
@given(l_max=st.integers(1, 10), sigma_ell=st.none() | st.floats(0.5, 3.0),
       mode=st.sampled_from(("ideal", "binary")), erased=st.booleans(),
       share=st.floats(0.0, 1.0))
def test_calibrated_leak_is_the_closed_form(l_max, sigma_ell, mode, erased,
                                            share):
    """At alpha = pi/4 the fitted visibility is ``(1 - e^2)/(1 + e^2)``, at
    alpha = 0 it is ``2e/(1 + e^2)``; targets span what the leak range
    reaches, up to the benchmark's 0.98 for the erased fringes.  (Closer to
    1 the erased misfit is flat at e = 0, ``1 - 2e^2``, and a calibration
    takes up to 16 evaluations: still within the step bound, see below.)"""
    params = dict(l_max=l_max, hologram_mode=mode,
                  spectrum="flat" if sigma_ell is None else "gaussian",
                  sigma_ell=sigma_ell)
    if erased:
        alpha, target = math.pi / 4, 0.23 + 0.75 * share
        want = math.tan(math.acos(target) / 2.0)
    else:
        alpha, target = 0.0, 0.001 + 0.969 * share
        want = math.tan(math.asin(target) / 2.0)
    calls = []

    def builder(e):
        calls.append(e)
        return hybrid_eraser_config(alpha=alpha, extinction=e, **params)

    leak = calibrate_extinction(builder, target)
    assert abs(leak - want) <= 1e-7
    assert len(calls) <= 12


@pytest.mark.parametrize("target", [0.985, 0.99, 0.999, 0.99999])
def test_nearly_erased_calibration_stays_within_the_step_bound(target):
    calls = []

    def builder(e):
        calls.append(e)
        return hybrid_eraser_config(alpha=math.pi / 4, extinction=e)

    leak = calibrate_extinction(builder, target)
    assert abs(leak - math.tan(math.acos(target) / 2.0)) <= 1e-7
    assert len(calls) <= SOLVER_STEP_BOUND


# ---------------------------------------------------------------------------
# calibration in angle space: a builder that varies only the leak is called
# at the two ends of the bracket; every other builder at every step


@contextmanager
def counted_evaluations():
    """Lists the fringes whose visibility is read inside: one per calibration
    step, on either path."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "fit_visibility",
                      lambda fit: seen.append(fit) or fit_visibility(fit))
        yield seen


def calibration_builders(alpha, **params):
    """A leak-only builder and one that also varies ``counting.seed`` with
    the leak, each with the list of leaks it was called with."""
    calls = {"leak": [], "seeded": []}

    def leak_only(e):
        calls["leak"].append(e)
        return hybrid_eraser_config(alpha=alpha, extinction=e, **params)

    def seeded(e):
        calls["seeded"].append(e)
        return hybrid_eraser_config(alpha=alpha, extinction=e,
                                    counting=CountingModel(seed=int(e * 1e9)), **params)

    return leak_only, seeded, calls


@settings(deadline=None, max_examples=60)
@given(l_max=st.integers(1, 10), sigma_ell=st.none() | st.floats(0.5, 3.0),
       mode=st.sampled_from(("ideal", "binary")), erased=st.booleans(),
       share=st.floats(0.0, 1.0))
def test_a_leak_only_builder_is_called_twice_for_the_per_step_leak(
        l_max, sigma_ell, mode, erased, share):
    """Over the closed-form test's parameters: the leak-only calibration
    returns, bit for bit, the leak of a builder that takes the per-step path
    (its seed varies with the leak, its fringe matrix does not)."""
    params = dict(l_max=l_max, hologram_mode=mode,
                  spectrum="flat" if sigma_ell is None else "gaussian",
                  sigma_ell=sigma_ell)
    alpha, target = ((math.pi / 4, 0.23 + 0.75 * share) if erased
                     else (0.0, 0.001 + 0.969 * share))
    leak_only, seeded, calls = calibration_builders(alpha, **params)
    with counted_evaluations() as leak_steps:
        leak = calibrate_extinction(leak_only, target)
    with counted_evaluations() as steps:
        per_step = calibrate_extinction(seeded, target)
    assert calls["leak"] == [0.0, 0.8]
    assert leak.hex() == per_step.hex()
    assert len(calls["seeded"]) == len(steps) == len(leak_steps) >= 3


@pytest.mark.parametrize("varied", ["source", "elements", "hologram", "alpha"])
def test_a_builder_that_varies_more_than_the_leak_is_called_per_step(varied):
    def builder(e):
        calls.append(e)
        big = e > 0.4
        return hybrid_eraser_config(
            alpha=math.pi / 4 + (1e-9 * e if varied == "alpha" else 0.0),
            extinction=e, l_max=3,
            sigma_ell=1.0 + e if varied == "source" else None,
            spectrum="gaussian" if varied == "source" else "flat",
            delay_m=float(big) if varied == "elements" else 0.0,
            hologram_mode="binary" if varied == "hologram" and big else "ideal")

    calls = []
    with counted_evaluations() as evaluations:
        leak = calibrate_extinction(builder, 0.9)
    assert len(calls) == len(evaluations) >= 3
    assert abs(leak - math.tan(math.acos(0.9) / 2.0)) <= 1e-7


@pytest.mark.parametrize("mode", ["ideal", "binary"])
@pytest.mark.parametrize("target", [0.3, 0.6, 0.95])
def test_calibration_off_the_analyzer_axes_is_the_closed_form(mode, target):
    # at alpha = 0.1 the tilt alpha + atan(e) stays below pi/4 over the
    # bracket, so V = sin(2 (alpha + atan e)) rises with the leak; at
    # alpha = 0 and pi/4 a tilt of either sign gives the same visibility
    alpha = 0.1
    leak_only, _, calls = calibration_builders(alpha, hologram_mode=mode, l_max=2)
    leak = calibrate_extinction(leak_only, target)
    assert abs(leak - math.tan(math.asin(target) / 2.0 - alpha)) <= 1e-7
    assert calls["leak"] == [0.0, 0.8]


# ---------------------------------------------------------------------------
# which-path knowledge


def test_marked_pair_is_fully_distinguishable():
    assert distinguishability(marked_pair(1, math.pi / 2), ell=1) == \
        pytest.approx(1.0, abs=1e-12)


def test_path_independent_marker_is_indistinguishable():
    state = joint_ket({(POL_H, 0, POL_H, 1): 1 / ROOT2,
                       (POL_H, 0, POL_H, -1): 1 / ROOT2})
    assert distinguishability(state, ell=1) == pytest.approx(0.0, abs=1e-12)


def test_partially_marked_state():
    # markers H and D at equal path weights: trace distance 1/sqrt(2)
    beta = math.pi / 4
    state = joint_ket({
        (POL_H, 0, POL_H, 1): math.cos(beta),
        (POL_H, 0, POL_H, -1): math.sin(beta) / ROOT2,
        (POL_V, 0, POL_H, -1): math.sin(beta) / ROOT2,
    })
    assert distinguishability(state, ell=1) == pytest.approx(1 / ROOT2, abs=1e-12)


def test_single_path_is_distinguishable_by_absence():
    state = joint_ket({(POL_H, 0, POL_H, 1): 1.0})
    assert distinguishability(state, ell=1) == 1.0


def test_distinguishability_rejects_stray_oam():
    state = joint_ket({(POL_H, 0, POL_H, 2): 1.0})
    with pytest.raises(ValueError, match="subspace"):
        distinguishability(state, ell=1)


def test_complementarity_records():
    assert complementarity_check(1.0, 0.0).sum_of_squares == pytest.approx(1.0)
    assert not complementarity_check(0.0, 1.0).violated
    rec = complementarity_check(0.6, 0.6)
    assert rec.sum_of_squares == pytest.approx(0.72)
    assert not rec.violated
    assert complementarity_check(0.9, 0.9).violated
    with pytest.raises(ValueError, match="outside"):
        complementarity_check(1.4, 0.0)


def test_pure_states_saturate_the_complementarity_bound():
    rng = np.random.default_rng(77)
    for _ in range(50):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        state = joint_ket({
            (POL_H, 0, POL_H, 1): raw[0],
            (POL_H, 0, POL_H, -1): raw[1],
            (POL_V, 0, POL_H, 1): raw[2],
            (POL_V, 0, POL_H, -1): raw[3],
        })
        vis = oam_fringe_visibility(state, ell=1)
        dist = distinguishability(state, ell=1)
        record = complementarity_check(vis, dist)
        assert not record.violated
        assert record.sum_of_squares == pytest.approx(1.0, abs=1e-9)


def test_fringe_visibility_of_collapsed_state():
    assert oam_fringe_visibility(marked_pair(1, math.pi / 2), ell=1) == \
        pytest.approx(0.0, abs=1e-12)
    erased = joint_ket({(POL_H, 0, POL_H, 1): 1 / ROOT2,
                        (POL_H, 0, POL_H, -1): -1j / ROOT2})
    assert oam_fringe_visibility(erased, ell=1) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("arm", ["A", "B"])
def test_fringe_visibility_matches_sparse_projection(arm):
    # random states with the +-ell paths on ``arm``, the marker on the other
    # arm and a stray OAM component the hologram must annihilate
    rng = np.random.default_rng(41)
    thetas = np.linspace(0.0, 2 * math.pi, 72, endpoint=False)
    for ell in (1, 2, 3):
        spec = HologramSpec(ell=ell, arm=arm)
        for _ in range(5):
            raw = rng.normal(size=6) + 1j * rng.normal(size=6)
            paths = (ell, -ell, ell, -ell, ell + 1, -ell - 1)
            markers = (POL_H, POL_H, POL_V, POL_V, POL_H, POL_V)
            keys = [(POL_H, e, m, 0) if arm == "A" else (m, 0, POL_H, e)
                    for e, m in zip(paths, markers)]
            state = joint_ket(dict(zip(keys, raw)))
            probs = tuple(apply_element(replace(spec, theta=float(t)), state)[1]
                          for t in thetas)
            series = ScanSeries(tuple(float(t) for t in thetas), probs)
            want = fit_visibility(fit_sinusoid(series, on="probabilities"))
            got = oam_fringe_visibility(state, ell, arm=arm)
            assert got == pytest.approx(want, abs=1e-12)


#: the oracle's grid: 72 hologram angles over a full turn
ORACLE_THETAS = np.linspace(0.0, 2 * math.pi, 72, endpoint=False)


def lstsq_fringes(state, polarizer, hologram, alphas):
    """``(offset, amplitude, phase)`` per row of the kernel's 72-angle scan,
    each from a least-squares fit of ``c0 + c1 cos 2t + c2 sin 2t``."""
    _, probs = analyzer_probabilities(state, polarizer, hologram, alphas,
                                      ORACLE_THETAS)
    design = np.column_stack([np.ones_like(ORACLE_THETAS),
                              np.cos(2 * ORACLE_THETAS), np.sin(2 * ORACLE_THETAS)])
    coeffs, *_ = np.linalg.lstsq(design, probs.T, rcond=None)
    return [(c0, math.hypot(c1, c2), math.atan2(-c2, c1))
            for c0, c1, c2 in coeffs.T]


def clamped_ratio(amplitude, offset):
    return min(max(amplitude / offset, 0.0), 1.0)


def assert_fringes_match_oracle(fits, oracle):
    assert len(fits) == len(oracle)
    for fit, (offset, amplitude, phase) in zip(fits, oracle):
        assert fit.residual_rms == 0.0
        assert abs(fit.offset - offset) <= 1e-12
        assert abs(fit.amplitude - amplitude) <= 1e-12
        assert abs(clamped_ratio(fit.amplitude, fit.offset)
                   - clamped_ratio(amplitude, offset)) <= 1e-12
        if amplitude > 1e-9:
            # the phase moves the curve by at most amplitude * |dphase|
            dphase = math.remainder(fit.phase - phase, 2 * math.pi)
            assert amplitude * abs(dphase) <= 1e-12


@settings(deadline=None, max_examples=80)
@given(alphas=st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1,
                      max_size=4),
       leak=st.floats(0.0, 0.2), mode=st.sampled_from(["ideal", "binary"]),
       l_max=st.integers(1, 10),
       sigma_ell=st.one_of(st.none(), st.floats(0.5, 3.0)))
def test_exact_fringes_match_a_least_squares_oracle(alphas, leak, mode, l_max,
                                                    sigma_ell):
    params = dict(extinction=leak, hologram_mode=mode, l_max=l_max,
                  sigma_ell=sigma_ell,
                  spectrum="flat" if sigma_ell is None else "gaussian")
    config = hybrid_eraser_config(**params)
    state, _ = run_pipeline(config)
    args = (state, config.analyzer_a, config.analyzer_b, alphas)
    oracle = lstsq_fringes(*args)
    assert_fringes_match_oracle(exact_fringes(*args), oracle)
    for alpha, (offset, amplitude, _) in zip(alphas, oracle):
        vis, _ = fitted_visibility(hybrid_eraser_config(alpha=alpha, **params))
        assert abs(vis - clamped_ratio(amplitude, offset)) <= 1e-12


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), ell=st.integers(1, 3),
       path_arm=st.sampled_from(["A", "B"]))
def test_raw_state_fringes_match_a_least_squares_oracle(seed, ell, path_arm):
    state = random_marked_state(np.random.default_rng(seed), ell, path_arm)
    hologram = HologramSpec(ell=ell, arm=path_arm)
    oracle = lstsq_fringes(state, None, hologram, ())
    assert_fringes_match_oracle(exact_fringes(state, None, hologram, ()), oracle)
    (offset, amplitude, _), = oracle
    assert abs(oam_fringe_visibility(state, ell, arm=path_arm)
               - clamped_ratio(amplitude, offset)) <= 1e-12


#: marker labels ``(polarization, OAM)`` the random marked states draw from
MARKER_LABELS = tuple((pol, ell) for pol in (POL_H, POL_V) for ell in range(-2, 3))


def random_marked_state(rng, ell, path_arm, path_pols=(POL_H, POL_V)):
    """A random ket with the ``+-ell`` paths on ``path_arm`` and 1-5 marker
    labels on the other arm; now and then one path is left empty."""
    picks = rng.choice(len(MARKER_LABELS), size=int(rng.integers(1, 6)),
                       replace=False)
    signs = (1, -1) if rng.random() < 0.8 else (int(rng.choice([1, -1])),)
    amps = {}
    for marker in (MARKER_LABELS[i] for i in picks):
        for path in ((pol, sign * ell) for sign in signs for pol in path_pols):
            key = marker + path if path_arm == "B" else path + marker
            amps[key] = complex(rng.normal(), rng.normal())
    return joint_ket(amps)


def marker_basis(states, path_arm):
    return sorted({(k[0], k[1]) if path_arm == "B" else (k[2], k[3])
                   for state in states for k in state.amplitudes})


def marker_difference(state, ell, path_arm, basis):
    """Path weights ``(p+, p-)`` and ``p+ rho+ - p- rho-`` over the marker
    arm's ``basis``, each ``rho`` the reduced density of one path's branch."""
    marker_arm = "A" if path_arm == "B" else "B"
    slot = 3 if path_arm == "B" else 1
    weights, diff = [], np.zeros((len(basis), len(basis)), dtype=complex)
    for sign in (1, -1):
        branch = {k: a for k, a in state.amplitudes.items()
                  if k[slot] == sign * ell}
        weights.append(sum(abs(a) ** 2 for a in branch.values()))
        if branch:
            rho = reduced_density(joint_ket(branch), marker_arm, basis=basis)
            diff += sign * weights[-1] * rho.matrix
    return weights, diff


def trace_norm(matrix):
    return float(np.sum(np.abs(np.linalg.eigvalsh(matrix))))


def test_distinguishability_matches_reduced_density_oracle():
    rng = np.random.default_rng(2154)
    for _ in range(1000):
        ell, path_arm = int(rng.integers(1, 4)), str(rng.choice(["A", "B"]))
        state = random_marked_state(rng, ell, path_arm)
        weights, diff = marker_difference(state, ell, path_arm,
                                          marker_basis([state], path_arm))
        want = 1.0 if min(weights) < NULL_TOL else trace_norm(diff)
        got = distinguishability(state, ell, path_arm=path_arm)
        assert got == pytest.approx(want, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), path_arm=st.sampled_from(["A", "B"]),
       weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
def test_mixed_markers_stay_inside_the_complementarity_bound(seed, path_arm,
                                                             weights):
    # Englert, PRL 77, 2154 (1996): V^2 + D^2 <= 1 for a mixture of kets,
    # with equality for one ket.  The kernel is linear in rho, so the
    # weight-summed scans are the mixture's scan; D is the trace norm of
    # the weight-summed p+ rho+ - p- rho-.
    rng = np.random.default_rng(seed)
    kets = [random_marked_state(rng, 1, path_arm, path_pols=(POL_H,))
            for _ in weights]
    weights = np.asarray(weights) / sum(weights)
    thetas = np.linspace(0.0, 2 * math.pi, 72, endpoint=False)
    hologram = HologramSpec(ell=1, arm=path_arm)
    probs = sum(w * analyzer_probabilities(ket, None, hologram, (), thetas)[1][0]
                for w, ket in zip(weights, kets))
    vis = fit_visibility(fit_sinusoid(series_of(thetas, probs), on="probabilities"))
    basis = marker_basis(kets, path_arm)
    dist = trace_norm(sum(w * marker_difference(ket, 1, path_arm, basis)[1]
                          for w, ket in zip(weights, kets)))
    total = vis ** 2 + dist ** 2
    assert total <= 1.0 + 1e-9
    if len(kets) == 1:
        assert abs(total - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# spatial patterns


@pytest.mark.parametrize("ell", [1, 2, 5, 8])
def test_azimuthal_lobe_count(ell):
    pattern = render_azimuthal_pattern(ell, 0.37, 512)
    assert count_azimuthal_lobes(pattern) == 2 * ell


def test_single_mode_ring_is_flat():
    pattern = render_azimuthal_pattern(3, 0.0, 64, weights=(1.0, 0.0))
    assert np.allclose(pattern, 1.0, atol=1e-12)
    assert count_azimuthal_lobes(np.ones(64)) == 0  # an exactly flat ring has no maxima


def test_azimuthal_pattern_matches_cosine():
    pattern = render_azimuthal_pattern(2, 0.5, 128)
    phi = 2 * math.pi * np.arange(128) / 128
    assert np.allclose(pattern, 1 + np.cos(4 * phi - 0.5), atol=1e-12)


def test_undersampled_grid_is_rejected():
    with pytest.raises(ValueError, match="undersampled"):
        render_azimuthal_pattern(5, 0.0, 20)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_is_rejected_by_name(phase):
    with pytest.raises(ValueError, match=f"non-finite intermodal phase {phase!r}"):
        render_azimuthal_pattern(2, phase, 64)


def test_two_path_full_contrast_fringes():
    x = np.linspace(0, 4 * math.pi, 256, endpoint=False)
    model = TwoPathModel(1.0, 0.0, np.exp(1j * x), np.ones_like(x))
    intensity = two_path_pattern(model)
    vis = (intensity.max() - intensity.min()) / (intensity.max() + intensity.min())
    assert vis == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_markers_wash_out_fringes():
    x = np.linspace(0, 4 * math.pi, 256, endpoint=False)
    model = TwoPathModel(0.0, 0.3, np.exp(1j * x), np.ones_like(x))
    intensity = two_path_pattern(model)
    assert np.allclose(intensity, 2.0, atol=1e-12)


def test_projected_patterns_sum_to_marked_intensity():
    x = np.linspace(0, 4 * math.pi, 256, endpoint=False)
    model = TwoPathModel(0.0, 0.3, np.exp(1j * x), np.ones_like(x))
    diag = two_path_pattern(model, projection="D")
    anti = two_path_pattern(model, projection="A")
    assert np.allclose(diag + anti, two_path_pattern(model), atol=1e-12)
    # complementary fringes: one pattern is the other shifted by pi
    assert np.allclose(diag, 1 + np.cos(x - 0.3), atol=1e-12)
    assert np.allclose(anti, 1 + np.cos(x - 0.3 + math.pi), atol=1e-12)
