"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from oam_eraser import analysis, elements as el
from oam_eraser.cli import main
from oam_eraser.experiment import (
    CountingModel,
    ExperimentConfig,
    NullOutcomeError,
    ScanSeries,
    SourceSpec,
    build_source_state,
    causal_order_probability,
    conditional_grid,
    hybrid_eraser_config,
    point_stream,
    run_pipeline,
    simulate_counts,
    simulate_timeline,
    theta_scan,
)
from oam_eraser.hilbert import POL_H, POL_V, joint_ket

TWO_PI = 2.0 * math.pi


def law(alpha, theta):
    return 0.5 * (1.0 + math.sin(2 * alpha) * math.cos(2 * theta + math.pi / 2))


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, text, timer):
    print(f"ACCEPTANCE {number} PASS ({timer.elapsed:.2f} s): {text}")


# ---------------------------------------------------------------------------
# 1. coincidence law on the full grid


def test_criterion_1_coincidence_law():
    config = hybrid_eraser_config()
    alphas = np.linspace(0.0, math.pi, 64)
    thetas = np.linspace(0.0, TWO_PI, 64)
    with Timer() as t:
        _, cond = conditional_grid(config, alphas, thetas)
        expected = np.array([[law(a, th) for th in thetas] for a in alphas])
        worst = float(np.max(np.abs(cond - expected)))
    assert worst <= 1e-10
    assert t.elapsed < 5.0
    report(1, f"64x64 conditional matches the closed form, "
              f"max deviation {worst:.2e}", t)


# ---------------------------------------------------------------------------
# 2. visibility curve


def test_criterion_2_visibility_curve():
    config = hybrid_eraser_config()
    alphas = np.linspace(0.0, math.pi / 4, 9)
    with Timer() as t:
        worst = 0.0
        for point in analysis.visibility_curve(config, alphas, theta_points=72):
            worst = max(worst, abs(point.visibility
                                   - analysis.theoretical_visibility(point.alpha)))
    assert worst <= 1e-9
    assert t.elapsed < 5.0
    report(2, f"fitted V tracks |sin 2a| at 9 angles, "
              f"max deviation {worst:.2e}", t)


# ---------------------------------------------------------------------------
# 3. marked/erased extremes and the calibrated leak


def test_criterion_3_marked_and_erased_extremes():
    with Timer() as t:
        v_marked, _ = analysis.fitted_visibility(hybrid_eraser_config(alpha=0.0))
        v_erased, _ = analysis.fitted_visibility(
            hybrid_eraser_config(alpha=math.pi / 4))
        assert v_marked <= 1e-10
        assert v_erased >= 1.0 - 1e-10

        leak_erased = analysis.calibrate_extinction(
            lambda e: hybrid_eraser_config(alpha=math.pi / 4, extinction=e),
            target_visibility=0.92)
        got_erased, _ = analysis.fitted_visibility(
            hybrid_eraser_config(alpha=math.pi / 4, extinction=leak_erased))
        assert abs(got_erased - 0.92) <= 0.005

        leak_marked = analysis.calibrate_extinction(
            lambda e: hybrid_eraser_config(alpha=0.0, extinction=e),
            target_visibility=0.04)
        got_marked, _ = analysis.fitted_visibility(
            hybrid_eraser_config(alpha=0.0, extinction=leak_marked))
        assert abs(got_marked - 0.04) <= 0.005
    assert t.elapsed < 10.0
    report(3, f"ideal extremes exact; leak {leak_erased:.4f} gives "
              f"V={got_erased:.4f} erased, leak {leak_marked:.4f} gives "
              f"V={got_marked:.4f} marked residual", t)


# ---------------------------------------------------------------------------
# 4. delayed-choice equivalence


def test_criterion_4_delayed_choice():
    with Timer() as t:
        config = hybrid_eraser_config()
        worst = 0.0
        for alpha in np.linspace(0.0, math.pi, 16):
            for theta in np.linspace(0.0, TWO_PI, 16):
                a = causal_order_probability(config, float(alpha), float(theta),
                                             "A_first")
                b = causal_order_probability(config, float(alpha), float(theta),
                                             "B_first")
                worst = max(worst, abs(a - b))
        assert worst <= 1e-12

        delay = el.DelaySpec(extra_path=2.3, arm="A").delay_seconds
        assert abs(delay - 7.66e-9) <= 0.02e-9

        # 7.67 ns shift stays far inside the 25 ns gate: same rates
        def counts_for(delay_m, seed):
            cfg = hybrid_eraser_config(
                alpha=math.pi / 4, delay_m=delay_m,
                counting=CountingModel(pair_rate=2000.0, seed=seed))
            _, n = simulate_timeline(cfg, math.pi / 4, 3 * math.pi / 4, 0.5)
            return n

        base = np.array([counts_for(0.0, 3000 + i) for i in range(50)])
        delayed = np.array([counts_for(2.3, 3000 + i) for i in range(50)])
        spread = math.sqrt((base.var(ddof=1) + delayed.var(ddof=1)) / 50)
        assert abs(delayed.mean() - base.mean()) <= 3.0 * max(spread, 1e-9)

        # 100 ns delay exceeds the gate: only the accidental floor remains
        floor_cfg = hybrid_eraser_config(
            alpha=math.pi / 4, delay_m=30.0,
            counting=CountingModel(pair_rate=2000.0, singles_a=5e4,
                                   singles_b=5e4, seed=1234))
        _, floored = simulate_timeline(floor_cfg, math.pi / 4,
                                       3 * math.pi / 4, 1.0)
        gate = floor_cfg.counting.gate
        rate_a = 5e4 + 2000.0 * 0.5
        rate_b = 5e4 + 2000.0 * 0.5
        floor = 2.0 * gate * rate_a * rate_b * 1.0
        assert abs(floored - floor) <= 4.0 * math.sqrt(floor)
        assert floored < 0.3 * base.mean() / 0.5  # far below the true-pair rate
    assert t.elapsed < 60.0
    report(4, f"orders agree to {worst:.1e}; delay "
              f"{delay * 1e9:.3f} ns keeps rates equal; 30 m path leaves "
              f"{floored} coincidences vs floor {floor:.0f}", t)


# ---------------------------------------------------------------------------
# 5. density-matrix channel oracle


def joint_basis(l_bound: int) -> tuple:
    """All joint labels with both OAM indices inside ``[-l_bound, l_bound]``."""
    ells = range(-l_bound, l_bound + 1)
    return tuple(
        (pa, ea, pb, eb)
        for pa in (POL_H, POL_V) for ea in ells
        for pb in (POL_H, POL_V) for eb in ells
    )


def density_of(state, basis) -> np.ndarray:
    """Dense ``|psi><psi|`` of a sparse joint state in ``basis`` order."""
    index = {lbl: i for i, lbl in enumerate(basis)}
    vec = np.zeros(len(basis), dtype=complex)
    for key, amp in state.amplitudes.items():
        vec[index[key]] = amp
    return np.outer(vec, vec.conj())


def _arm_matrix(spec, ells):
    """Dense (polarization x OAM) matrix of one element, polarization-major,
    built from 2x2 blocks and explicit OAM matrices only."""
    n = len(ells)
    eye_pol, eye_oam = np.eye(2), np.eye(n)
    if isinstance(spec, el.QPlateSpec):
        shift = round(2 * spec.q)
        up = np.array([[1, 1j], [1j, -1]]) / 2  # |ell> -> |ell + 2q>
        down = up.conj()  # |ell> -> |ell - 2q>
        return (np.kron(up, np.eye(n, k=-shift))
                + np.kron(down, np.eye(n, k=shift)))
    if isinstance(spec, el.WavePlateSpec):
        return np.kron(el.waveplate_jones(spec.kind, spec.fast_axis), eye_oam)
    if isinstance(spec, el.PolarizerSpec):
        a, e = spec.alpha, spec.extinction
        t = np.array([math.cos(a) - e * math.sin(a),
                      math.sin(a) + e * math.cos(a)]) / math.sqrt(1 + e * e)
        return np.kron(np.outer(t, t), eye_oam)
    if isinstance(spec, el.FiberSpec):
        mask = np.diag([1.0 if ell == spec.accepted_ell else 0.0 for ell in ells])
        return np.kron(eye_pol, mask)
    if isinstance(spec, el.HologramSpec):
        s = np.zeros(n, dtype=complex)
        s[ells.index(spec.ell)] = 1 / math.sqrt(2)
        s[ells.index(-spec.ell)] = np.exp(2j * spec.theta) / math.sqrt(2)
        scale = 2 / math.pi if spec.mode == "binary" else 1.0
        return np.kron(eye_pol, scale * np.outer(s, s.conj()))
    return None  # delay: no amplitude action


def _dm_pipeline(config, l_bound):
    """Independent oracle: dense channel composition rho -> M rho M+ / tr.

    Each element's matrix is written out here from its physics, not taken
    from the package's element compilers.  In ``joint_basis`` order the
    joint operator is ``kron(M, I)`` on arm A and ``kron(I, M)`` on arm B;
    it is applied as a contraction over that arm's indices of ``rho``.
    """
    basis = joint_basis(l_bound)
    ells = list(range(-l_bound, l_bound + 1))
    dim = 2 * len(ells)
    rho = density_of(build_source_state(config.source), basis)
    cumulative = 1.0
    for arm, elems in (("A", config.elements_a), ("B", config.elements_b)):
        for spec in elems:
            local = _arm_matrix(spec, ells)
            if local is None:
                continue
            # rho[a b, a' b'] as r[a, b, a', b']
            route = "ij,jbkc,lk->iblc" if arm == "A" else "ij,ajck,lk->aicl"
            rho = np.einsum(route, local, rho.reshape(dim, dim, dim, dim),
                            local.conj(), optimize=True).reshape(dim**2, dim**2)
            tr = float(np.trace(rho).real)
            if tr < 1e-14:
                return None, 0.0, basis
            rho /= tr
            cumulative *= tr
    return rho, cumulative, basis


def _random_config(rng):
    l_max = int(rng.integers(1, 3))
    if rng.random() < 0.5:
        source = SourceSpec(l_max=l_max)
    else:
        source = SourceSpec(l_max=l_max, spectrum="gaussian",
                            sigma_ell=float(rng.uniform(0.6, 2.0)))
    arm_a = [el.QPlateSpec(q=float(rng.choice([-1.0, -0.5, 0.5, 1.0])), arm="A")]
    if rng.random() < 0.5:
        arm_a.append(el.WavePlateSpec(
            kind=str(rng.choice(["quarter", "half"])),
            fast_axis=float(rng.uniform(0.0, math.pi * 0.999)), arm="A"))
    if rng.random() < 0.5:
        arm_a.append(el.FiberSpec(arm="A", accepted_ell=0))
    if rng.random() < 0.6:
        arm_a.append(el.PolarizerSpec(alpha=float(rng.uniform(0.0, math.pi)),
                                      extinction=float(rng.uniform(0.0, 0.3)),
                                      arm="A"))
    arm_b = []
    if rng.random() < 0.4:
        arm_b.append(el.WavePlateSpec(
            kind=str(rng.choice(["quarter", "half"])),
            fast_axis=float(rng.uniform(0.0, math.pi * 0.999)), arm="B"))
    if rng.random() < 0.4:
        arm_b.append(el.HologramSpec(ell=1, theta=float(rng.uniform(0.0, TWO_PI)),
                                     mode=str(rng.choice(["ideal", "binary"])),
                                     arm="B"))
    config = ExperimentConfig(source=source, elements_a=tuple(arm_a),
                              elements_b=tuple(arm_b))
    shift = sum(abs(round(2 * s.q)) for s in arm_a
                if isinstance(s, el.QPlateSpec))
    return config, l_max + shift + 1


def test_criterion_5_state_vector_vs_channel_oracle():
    with Timer() as t:
        worst = 0.0
        nulls = 0
        compared = 0
        draw = 0
        while compared < 100:
            assert draw < 400, "random generator starves on null pipelines"
            rng = np.random.default_rng(5000 + draw)
            draw += 1
            config, l_bound = _random_config(rng)
            rho_dm, p_dm, basis = _dm_pipeline(config, l_bound)
            try:
                state, p_sv = run_pipeline(config)
            except NullOutcomeError:
                # both routes must agree that the state died
                assert rho_dm is None or p_dm < 1e-12
                nulls += 1
                continue
            assert rho_dm is not None
            diff = density_of(state, basis) - rho_dm
            # all-zero rows and columns only add zero eigenvalues, so the
            # trace norm on the rest is exact, and small enough that its
            # cost does not depend on BLAS threading
            live = np.flatnonzero(np.any(diff != 0, axis=0) | np.any(diff != 0, axis=1))
            eigs = np.linalg.eigvalsh(diff[np.ix_(live, live)])
            dist = 0.5 * float(np.sum(np.abs(eigs)))
            worst = max(worst, dist, abs(p_sv - p_dm))
            assert dist <= 1e-10
            assert abs(p_sv - p_dm) <= 1e-10
            compared += 1
    assert t.elapsed < 30.0
    report(5, f"100 random configs agree with the dense channel oracle, "
              f"worst deviation {worst:.2e} (+{nulls} null pipelines matched)", t)


# ---------------------------------------------------------------------------
# 6. complementarity saturation


def test_criterion_6_complementarity():
    rng = np.random.default_rng(60)
    with Timer() as t:
        worst = 0.0
        for _ in range(1000):
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            raw /= np.linalg.norm(raw)
            state = joint_ket({
                (POL_H, 0, POL_H, 1): raw[0],
                (POL_H, 0, POL_H, -1): raw[1],
                (POL_V, 0, POL_H, 1): raw[2],
                (POL_V, 0, POL_H, -1): raw[3],
            })
            vis = analysis.oam_fringe_visibility(state, ell=1)
            dist = analysis.distinguishability(state, ell=1)
            record = analysis.complementarity_check(vis, dist)
            assert record.sum_of_squares <= 1.0 + 1e-9
            assert abs(record.sum_of_squares - 1.0) <= 1e-9
            worst = max(worst, abs(record.sum_of_squares - 1.0))
    assert t.elapsed < 30.0
    report(6, f"1000 pure states saturate V^2+D^2=1, "
              f"worst deviation {worst:.2e}", t)


# ---------------------------------------------------------------------------
# 7. binary-mask coupling


def test_criterion_7_binary_mask_coupling():
    with Timer() as t:
        for delta in (1, 2, 3, 4):
            c = el.binary_mask_overlap(2 * delta, 0.0, delta, 0)
            assert abs(abs(c) - 2.0 / math.pi) <= 1e-6
        mismatches = [
            el.binary_mask_overlap(2, 0.0, 2, 0),
            el.binary_mask_overlap(4, 0.0, 1, 0),
            el.binary_mask_overlap(4, 0.0, 3, 0),
            el.binary_mask_overlap(6, 0.1, 2, 0),
        ]
        worst = max(abs(c) for c in mismatches)
        assert worst < 1e-9
    assert t.elapsed < 5.0
    report(7, f"matched orders at 2/pi, mismatched parity at {worst:.1e}", t)


# ---------------------------------------------------------------------------
# 8. pattern rendering


def test_criterion_8_pattern_rendering():
    with Timer() as t:
        for ell in range(1, 9):
            pattern = analysis.render_azimuthal_pattern(ell, 0.37, 512)
            assert analysis.count_azimuthal_lobes(pattern) == 2 * ell
        x = np.linspace(0.0, 4 * math.pi, 256, endpoint=False)
        model = analysis.TwoPathModel(0.0, 0.4, np.exp(1j * x), np.ones_like(x))
        diag = analysis.two_path_pattern(model, projection="D")
        anti = analysis.two_path_pattern(model, projection="A")
        unmarked = analysis.two_path_pattern(model)
        worst = float(np.max(np.abs(diag + anti - unmarked)))
        assert worst <= 1e-12
    assert t.elapsed < 5.0
    report(8, f"lobe counts 2|l| for l=1..8; D/A patterns sum to the "
              f"marked intensity within {worst:.1e}", t)


# ---------------------------------------------------------------------------
# 9. Monte Carlo statistics and determinism


def test_criterion_9_monte_carlo(tmp_path):
    with Timer() as t:
        config = hybrid_eraser_config(
            counting=CountingModel(pair_rate=1000.0, integration_time=5.0,
                                   seed=90))
        series = ScanSeries((0.0,), (0.5,), joint_probabilities=(0.25,))
        draws = [simulate_counts(config, series, repetition=r).counts[0]
                 for r in range(200)]
        mean = 1000.0 * 5.0 * 0.25
        tol = 3.0 * math.sqrt(mean) / math.sqrt(200)
        observed = float(np.mean(draws))
        assert abs(observed - mean) <= tol

        # scheduling independence: per-point streams keyed (seed, rep, index)
        scan = theta_scan(config, points=36)
        batch = simulate_counts(config, scan).counts
        means = [config.counting.pair_rate * config.counting.integration_time * p
                 for p in scan.joint_probabilities]
        fwd = [int(point_stream(90, 0, i).poisson(means[i])) for i in range(36)]
        rev = [int(point_stream(90, 0, i).poisson(means[i]))
               for i in reversed(range(36))][::-1]
        assert fwd == rev == list(batch)

        # byte-identical CSV from identical seeds
        cfg_text = (
            "[analyzers]\nalpha_rad = 0.5\n"
            "[counting]\npair_rate_hz = 1000.0\nseed = 90\n"
            "[scan]\ntheta_points = 36\n")
        cfg_path = tmp_path / "mc.cfg"
        cfg_path.write_text(cfg_text, encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["scan-theta", str(cfg_path), "--counts",
                     "--out-dir", str(out_a)]) == 0
        assert main(["scan-theta", str(cfg_path), "--counts",
                     "--out-dir", str(out_b)]) == 0
        csv_a = (out_a / "scan_theta.csv").read_bytes()
        assert csv_a == (out_b / "scan_theta.csv").read_bytes()
    assert t.elapsed < 60.0
    report(9, f"Poisson mean {observed:.1f} vs {mean:.1f} "
              f"(tol {tol:.1f}); streams order-independent; CSV byte-stable", t)
