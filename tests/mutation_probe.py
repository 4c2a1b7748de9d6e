"""Mutation probe: break the package on purpose, one hand-written mutant at
a time, and check that the tests named for each mutant fail.

A mutant is ``(name, file, old text, new text, killers)``: ``file`` is a path
under ``src/``, ``old`` must occur in it exactly once, and ``killers`` are
the pytest node ids expected to fail once ``old`` is replaced by ``new``.
For each mutant the probe copies ``src/`` into a temporary directory,
applies the mutant there and runs only its killers against the copy.  A
mutant survives when all of them pass.  No killer is a digest test or a
comparison with the dense-psi kernel in ``tests/parent_kernel.py``: those
catch any change at all, so they would show nothing about what the semantic
tests guard.

    python tests/mutation_probe.py          # all mutants
    python tests/mutation_probe.py NAME...  # some of them

prints one line per mutant and exits 1 if any mutant survives.  Only the
standard library is used; ``tests/test_mutants.py`` runs it under the
``mutants`` marker, which the default test run deselects.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killers: tuple


EXP, ANA, OUT = (f"oam_eraser/{name}.py" for name in ("experiment", "analysis", "output"))
PROPS = "tests/test_properties.py"
CLI = "tests/test_cli.py::test_unreadable_scan_csv_exits_2_and_names_the_line"
MATCHER = "tests/test_experiment.py::test_matcher_agrees_with_walk_on_adversarial_streams"

MUTANTS = (
    # the analyzer kernel: the 3x4 fringe matrix F, the tilted polarizer
    # rows and the harmonic rows B
    Mutant("harmonic-sin-sign", EXP,
           "np.negative(np.sin(two, out=basis[2]), out=basis[2])",
           "np.sin(two, out=basis[2])",
           ("tests/test_experiment.py::test_conditional_grid_matches_closed_form",)),
    Mutant("fringe-imag-sign", EXP,
           "m[0][2].real, m[0][2].imag", "m[0][2].real, -m[0][2].imag",
           ("tests/test_experiment.py::test_kernel_matches_sparse_projections",)),
    Mutant("cross-columns-swapped", EXP,
           "cross.real, cross.imag", "cross.imag, cross.real",
           ("tests/test_experiment.py::test_conditional_grid_matches_closed_form",)),
    Mutant("vv-row-read-as-hh", EXP,
           "[0.5 * (m[1][1] + m[3][3]).real, m[1][3].real, m[1][3].imag, P[1][1]]",
           "[0.5 * (m[0][0] + m[2][2]).real, m[0][2].real, m[0][2].imag, P[0][0]]",
           ("tests/test_experiment.py::test_kernel_matches_sparse_projections",)),
    Mutant("moments-conj-dropped", EXP,
           "(b @ b.conj().T)", "(b @ b.T)",
           ("tests/test_experiment.py::test_conditional_grid_matches_closed_form",)),
    Mutant("moments-transposed", EXP,
           "(b @ b.conj().T)", "(b @ b.conj().T).T",
           ("tests/test_experiment.py::test_conditional_grid_matches_closed_form",)),
    Mutant("offset-one-term", EXP,
           "(m[0][1] + m[2][3])", "(2.0 * m[0][1])",
           (f"{PROPS}::test_joint_is_the_polarizer_then_the_hologram",)),
    Mutant("polarizer-reads-one-row", EXP,
           "(a @ a.conj().T).real.tolist()", "(a @ a.conj().T).real[[0, 0]].tolist()",
           ("tests/test_experiment.py::test_conditional_grid_matches_closed_form",)),
    Mutant("unpolarized-row-drops-v", EXP,
           "(fringe[0] + fringe[2])[None, :3]", "fringe[None, 0, :3]",
           (f"{PROPS}::test_analyzer_identity[polarizer_completeness]",)),
    Mutant("coupling-not-squared", EXP,
           "coef * el.binary_coupling(hologram.ell) ** 2", "coef * el.binary_coupling(hologram.ell)",
           ("tests/test_experiment.py::test_kernel_matches_sparse_projections",)),
    Mutant("snap-dropped", EXP,
           "    np.putmask(joint, joint < NULL_TOL * p_pol[:, None], 0.0)\n", "",
           ("tests/test_experiment.py::test_dark_fringes_are_exact_zeros",)),
    Mutant("tilt-sign", EXP,
           "alphas + math.atan(polarizer.extinction)", "alphas - math.atan(polarizer.extinction)",
           ("tests/test_experiment.py::test_kernel_matches_sparse_projections",)),
    # the one-angle reader
    Mutant("one-angle-tilt-sign", EXP,
           "alpha + math.atan(polarizer.extinction)", "alpha - math.atan(polarizer.extinction)",
           (f"{PROPS}::test_analyzer_identity[leak_is_a_tilt]",)),
    Mutant("one-angle-cross-weight", EXP,
           "c * c, c * s, s * s", "c * c, c * c, s * s",
           (f"{PROPS}::test_joint_is_the_polarizer_then_the_hologram",)),
    Mutant("one-angle-coupling-not-squared", EXP,
           "g = el.binary_coupling(hologram.ell) ** 2", "g = el.binary_coupling(hologram.ell)",
           (f"{PROPS}::test_joint_is_the_polarizer_then_the_hologram",)),
    Mutant("one-angle-null-check-dropped", EXP,
           "if p_pol < NULL_TOL:", "if p_pol < 0.0:",
           ("tests/test_experiment.py::test_coincidence_with_extinguished_analyzer_errors",)),
    Mutant("transmission-leak-sign", "oam_eraser/elements.py",
           "(sa + e * ca) * scale", "(sa - e * ca) * scale",
           (f"{PROPS}::test_analyzer_identity",)),
    # the pipeline: one pass of the source terms through both arms' cached map
    Mutant("arm-map-keyed-on-delays", EXP,
           "\n                                       if not isinstance(spec, el.DelaySpec)))",
           "))",
           ("tests/test_experiment.py::test_configs_that_differ_in_source_or_delay_share_one_arm_map",)),
    Mutant("arm-a-images-on-arm-b", EXP,
           "local_sums(terms, arm, amps)", 'local_sums(terms, "B", amps)',
           ("tests/test_experiment.py::test_canonical_pipeline_reaches_marked_pair",)),
    Mutant("arm-b-elements-on-arm-a", EXP,
           "(spec.arm, *el.element_operator(spec))", '("A", *el.element_operator(spec))',
           (f"{PROPS}::test_pipeline_build_is_the_element_walk",)),
    Mutant("map-not-normalized", EXP,
           "scale *= 1.0 / math.sqrt(passed)", "scale *= 1.0",
           ("tests/test_experiment.py::test_canonical_pipeline_reaches_marked_pair",)),
    Mutant("post-amplitudes-per-term", EXP,
           "for x in out.values():\n            passed += abs(x * scale) ** 2",
           "for x in (a * x for a, stages in terms for _, x in stages[k]):\n"
           "            passed += abs(x * scale) ** 2",
           (f"{PROPS}::test_pipeline_build_is_the_element_walk",)),
    Mutant("null-rule-cumulative", EXP,
           "if passed < NULL_TOL:", "if passed * p < NULL_TOL:",
           ("tests/test_experiment.py::test_null_pipeline_names_the_element[each-passes-its-share]",)),
    Mutant("final-prune-dropped", EXP,
           "JointKet(_prune({label: x * scale for label, x in out.items()}))",
           "JointKet({label: x * scale for label, x in out.items()})",
           (f"{PROPS}::test_pipeline_build_is_the_element_walk",)),
    Mutant("null-index-skips-delays", EXP,
           "for i, spec in enumerate(specs) if",
           "for i, spec in enumerate(s for s in specs if not isinstance(s, el.DelaySpec)) if",
           ("tests/test_experiment.py::test_null_pipeline_names_the_element[after-a-delay]",)),
    # the exact fringe
    Mutant("fringe-phase-sign", ANA,
           "math.atan2(y, x)", "math.atan2(-y, x)",
           ("tests/test_analysis.py::test_exact_fringes_match_a_least_squares_oracle",)),
    Mutant("fringe-offset-column", ANA,
           "o, x, y = coef", "x, o, y = coef",
           (f"{PROPS}::test_analyzer_identity[exact_fringe_is_the_dense_fit]",)),
    Mutant("fringe-offset-undivided", ANA,
           "FringeFit(o / p, ", "FringeFit(o, ",
           (f"{PROPS}::test_analyzer_identity[exact_fringe_is_the_dense_fit]",)),
    # calibration in angle space
    Mutant("calibration-tilt-sign", ANA,
           "alpha + math.atan(e)", "alpha - math.atan(e)",
           ("tests/test_analysis.py::test_calibration_off_the_analyzer_axes_is_the_closed_form",)),
    Mutant("leak-check-ignores-source", ANA,
           "extinction=lo)) == first)", "extinction=lo)) == replace(first, source=last.source))",
           ("tests/test_analysis.py::test_a_builder_that_varies_more_than_the_leak_is_called_per_step",)),
    # the sinusoid fit
    Mutant("fit-phase-sign", ANA,
           "phase = math.atan2(-c2, c1)", "phase = math.atan2(c2, c1)",
           ("tests/test_analysis.py::test_fit_recovers_exact_parameters",)),
    Mutant("fit-three-settings", ANA,
           "if len(set(series.settings)) < 4:", "if len(set(series.settings)) < 3:",
           ("tests/test_analysis.py::test_fit_needs_four_distinct_settings",)),
    Mutant("fit-residual-sum", ANA,
           "np.sqrt(np.mean(resid ** 2))", "np.sqrt(np.sum(resid ** 2))",
           ("tests/test_analysis.py::test_fit_residual_is_the_rms_of_what_the_model_misses",)),
    # counted scans
    Mutant("counts-without-accidentals", EXP,
           "counts.append(int(draw(rate * p + acc)))", "counts.append(int(draw(rate * p)))",
           ("tests/test_experiment.py::test_counts_with_accidentals_equal_one_stream_per_point",)),
    Mutant("counts-one-counter", EXP,
           "            counter[2] = index\n", "",
           ("tests/test_experiment.py::test_counts_equal_one_stream_per_point",)),
    Mutant("counts-buffer-kept", EXP,
           "        bitgen.state = state  #", "        #",
           ("tests/test_experiment.py::test_counts_equal_one_stream_per_point",)),
    Mutant("counts-lock-dropped", EXP,
           "with seeding.lock:", "if seeding.lock:",
           ("tests/test_experiment.py::test_counts_wait_for_their_seed_lock",)),
    Mutant("accidentals-factor", EXP,
           "return (2.0 * self.singles_a", "return (1.0 * self.singles_a",
           ("tests/test_experiment.py::test_scan_counts_and_timeline_agree_on_accidentals",)),
    # the timeline and its matcher
    Mutant("cluster-split-at-gate", EXP,
           "np.diff(stream[order]) > gate", "np.diff(stream[order]) >= gate",
           (MATCHER,)),
    Mutant("pair-cluster-on-one-arm", EXP,
           "& starts[2:]\n                                   & (on_a[:-1] != on_a[1:])))",
           "& starts[2:]))",
           (MATCHER,)),
    Mutant("walk-hit-strict", EXP,
           "hit = np.abs(dt) <= gate", "hit = np.abs(dt) < gate",
           (MATCHER,)),
    Mutant("arm-merge-unstable", EXP,
           'order = np.argsort(times, kind="stable")',
           'order = np.argsort(times, kind="quicksort")',
           ("tests/test_experiment.py::test_a_true_pair_click_comes_first_on_equal_times",)),
    # delays
    Mutant("delay-accepts-non-finite", "oam_eraser/elements.py",
           "if not 0.0 <= self.extra_path < math.inf:", "if self.extra_path < 0.0:",
           ("tests/test_elements.py::test_delay_rejects_a_non_finite_or_negative_path",)),
    Mutant("negative-config-delay-dropped", "oam_eraser/configio.py",
           "if delay_m != 0.0:", "if delay_m > 0.0:",
           ("tests/test_cli.py::test_a_negative_counting_delay_is_a_config_error",)),
    # the events CSV's digit groups
    Mutant("strip-middle-group-never", OUT,
           "_QUADS[mid + 10_000 * (low == 0)]", "_QUADS[mid]",
           ("tests/test_experiment.py::test_events_csv_digit_groups_match_percent_oracle",)),
    Mutant("strip-top-group-never", OUT,
           "_QUADS[top + 10_000 * (q == 0)]", "_QUADS[top]",
           ("tests/test_experiment.py::test_events_csv_digit_groups_match_percent_oracle",)),
    Mutant("strip-middle-group-always", OUT,
           "_QUADS[mid + 10_000 * (low == 0)]", "_QUADS[mid + 10_000]",
           ("tests/test_experiment.py::test_events_csv_digit_groups_match_percent_oracle",)),
    # read_scan_csv's row checks
    Mutant("negative-count-read", OUT,
           "if count is not None and count < 0:", "if count is not None and count < -5:",
           (f"{CLI}[negative-count]",)),
    Mutant("probability-range-read", OUT,
           "if not -1e-9 <= cells[2] <= 1.0 + 1e-9:", "if not -1e-9 <= cells[2] <= 2.0:",
           (f"{CLI}[probability-above-one]",)),
    Mutant("non-finite-setting-read", OUT,
           "if not all(map(math.isfinite, cells)):", "if not all(map(math.isfinite, cells[1:])):",
           (f"{CLI}[inf-setting]",)),
    # hilbert
    Mutant("probability-tolerance", "oam_eraser/hilbert.py",
           "if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):",
           "if not (lo >= -1e-6 and hi <= 1.0 + 1e-6):",
           ("tests/test_hilbert.py::test_probabilities_are_checked_not_clamped",)),
    Mutant("postselect-not-renormalized", "oam_eraser/hilbert.py",
           "scale = 1.0 / math.sqrt(p)", "scale = 1.0",
           ("tests/test_hilbert.py::test_project_bell_onto_right_circular_collapses_partner",
            "tests/test_properties.py::test_project_matches_a_dense_contraction")),
    Mutant("postselect-probability-unchecked", "oam_eraser/hilbert.py",
           "return JointKet(amps), checked_probability(p)", "return JointKet(amps), p",
           ("tests/test_hilbert.py::test_probabilities_are_checked_not_clamped",)),
    Mutant("apply-local-key-order", "oam_eraser/hilbert.py",
           "for pol_out in (POL_H, POL_V):", "for pol_out in (POL_V, POL_H):",
           ("tests/test_hilbert.py::test_output_labels_follow_input_then_term_then_polarization",)),
    Mutant("joint-ket-not-normalized", "oam_eraser/hilbert.py",
           "amps = _prune({k: a / n for k, a in amps.items()})",
           "amps = _prune(amps)",
           ("tests/test_hilbert.py::test_born_completeness_over_local_basis",)),
)


def run(mutant: Mutant) -> str:
    """``killed`` or ``survived`` for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: the old text occurs "
                             f"{text.count(mutant.old)} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # the copy replaces the project's pythonpath; cwd keeps hypothesis's
        # example database out of the repository
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
             "-o", f"pythonpath={src}",
             *(str(ROOT / killer) for killer in mutant.killers)],
            cwd=tmp, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # 1: some test failed
        raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}\n"
                           f"{result.stdout}{result.stderr}")
    return "killed" if result.returncode else "survived"


def survivors(mutants=MUTANTS) -> list:
    """Names of the mutants whose killers all pass; prints one line each."""
    out = []
    for mutant in mutants:
        outcome = run(mutant)
        print(f"{mutant.name:34s} {outcome}")
        if outcome == "survived":
            out.append(mutant.name)
    return out


if __name__ == "__main__":
    chosen = [m for m in MUTANTS if not sys.argv[1:] or m.name in sys.argv[1:]]
    sys.exit(1 if survivors(chosen) else 0)
