import hashlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from oam_eraser.cli import main
from oam_eraser.configio import ConfigError, emit_config, parse_config
from oam_eraser.elements import FiberSpec, QPlateSpec, WavePlateSpec
from oam_eraser.experiment import run_pipeline
from oam_eraser.output import line_plot_svg

from conftest import marked_pair
from states import overlap

CANONICAL = """\
# canonical hybrid-entanglement eraser
[source]
kind = spdc
l_max = 1
spectrum = flat

[arm_a.element]
type = qplate
q = 0.5

[arm_a.element]
type = fiber
accepted_l = 0

[arm_a.element]
type = waveplate
kind = quarter
fast_axis_rad = 0.7853981633974483

[analyzers]
alpha_rad = 0.0
hologram_l = 1

[counting]
pair_rate_hz = 2000.0
seed = 5

[scan]
theta_points = 36
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "eraser.cfg"
    path.write_text(CANONICAL, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_canonical_config_pipelines_to_marked_pair():
    run = parse_config(CANONICAL)
    assert isinstance(run.config.elements_a[0], QPlateSpec)
    assert isinstance(run.config.elements_a[1], FiberSpec)
    assert isinstance(run.config.elements_a[2], WavePlateSpec)
    state, cumulative = run_pipeline(run.config)
    expected = marked_pair(ell=-1, delta=math.pi / 2)
    assert abs(overlap(expected, state)) == pytest.approx(1.0, abs=1e-10)
    assert cumulative == pytest.approx(1 / 3, abs=1e-12)


def test_empty_config_is_valid_defaults():
    run = parse_config("")
    state, cumulative = run_pipeline(run.config)
    assert cumulative == 1.0
    assert run.config.counting.integration_time == 5.0
    assert run.config.counting.gate == 25e-9


def test_round_trip_is_byte_stable():
    first = emit_config(parse_config(CANONICAL))
    second = emit_config(parse_config(first))
    assert second == first


def test_unknown_key_is_rejected_with_location():
    text = CANONICAL.replace("l_max = 1", "l_max = 1\nfoo = 2")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "foo" in str(err.value)
    assert err.value.line is not None


def test_unphysical_charge_is_rejected():
    with pytest.raises(ConfigError, match="q-plate charge"):
        parse_config(CANONICAL.replace("q = 0.5", "q = 0.3"))


def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[mystery]\nx = 1\n")


def test_counting_delay_becomes_arm_a_element():
    run = parse_config("[counting]\ndelay_m = 2.3\n")
    assert run.config.arm_delay("A") == pytest.approx(2.3 / 299792458.0)


def test_a_zero_counting_delay_adds_no_element():
    assert parse_config("[counting]\ndelay_m = 0.0\n").config == parse_config("").config


def test_a_negative_counting_delay_is_a_config_error(tmp_path, capsys):
    text = "[counting]\ndelay_m = -2.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (str(err.value), err.value.line) == (
        "extra path must be finite and non-negative (line 1)", 1)
    path = tmp_path / "delayed.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["timeline", str(path), "--duration-s", "1e-3",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: extra path must be finite and non-negative")
    assert not (tmp_path / "out").exists()


# 2 sigma_ell^2 underflows to 0.0 at the one width and sigma_ell^2 overflows at
# the other: the build would divide by zero or raise OverflowError
@pytest.mark.parametrize("sigma", ["1e-170", "1e200"])
def test_a_gaussian_width_the_build_cannot_square_is_a_config_error(tmp_path, capsys, sigma):
    path = tmp_path / "width.cfg"
    path.write_text(f"[source]\nspectrum = gaussian\nsigma_l = {sigma}\n", encoding="utf-8")
    assert main(["scan-theta", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: gaussian spectrum needs sigma_ell in (0, 1e150) with "
        f"2 sigma_ell^2 above 0.0, got {float(sigma)!r} (line 1)\n")
    assert not (tmp_path / "out").exists()


#: every element kind, an explicit delay on each arm, a gaussian source and
#: non-default analyzer, counting and scan keys, some out of canonical order
FULL = """\
[source]
kind = spdc
l_max = 3
spectrum = gaussian
sigma_l = 1.5

[arm_a.element]
type = qplate
q = 0.5

[arm_a.element]
type = delay
extra_path_m = 1.25

[arm_a.element]
type = fiber
accepted_l = 0

[arm_a.element]
type = waveplate
kind = half
fast_axis_rad = 0.3

[arm_a.element]
type = polarizer
alpha_rad = 0.2

[arm_b.element]
type = hologram
mode = binary
l = 2

[arm_b.element]
type = delay
extra_path_m = 0.5

[arm_b.element]
type = polarizer
alpha_rad = 1
extinction = 0.05

[analyzers]
hologram_theta_rad = 0.25
alpha_rad = 0.4
extinction = 0.01
hologram_l = -2
hologram_mode = binary

[counting]
seed = 7
pair_rate_hz = 3000
gate_s = 1e-9
singles_a_hz = 2e4
singles_b_hz = 150.5
integration_time_s = 0.5

[scan]
theta_start_rad = 0.1
theta_stop_rad = 3
theta_points = 10
alpha_start_rad = -0.5
alpha_stop_rad = 0.5
alpha_points = 3
"""

#: canonical form of FULL: the arm-A delay moves to ``delay_m``
FULL_EMITTED = """\
[source]
kind = spdc
l_max = 3
spectrum = gaussian
sigma_l = 1.5

[arm_a.element]
type = qplate
q = 0.5

[arm_a.element]
type = fiber
accepted_l = 0

[arm_a.element]
type = waveplate
kind = half
fast_axis_rad = 0.3

[arm_a.element]
type = polarizer
alpha_rad = 0.2
extinction = 0.0

[arm_b.element]
type = hologram
l = 2
theta_rad = 0.0
mode = binary

[arm_b.element]
type = delay
extra_path_m = 0.5

[arm_b.element]
type = polarizer
alpha_rad = 1.0
extinction = 0.05

[analyzers]
alpha_rad = 0.4
extinction = 0.01
hologram_l = -2
hologram_mode = binary
hologram_theta_rad = 0.25

[counting]
pair_rate_hz = 3000.0
integration_time_s = 0.5
gate_s = 1e-09
delay_m = 1.25
singles_a_hz = 20000.0
singles_b_hz = 150.5
seed = 7

[scan]
theta_start_rad = 0.1
theta_stop_rad = 3.0
theta_points = 10
alpha_start_rad = -0.5
alpha_stop_rad = 0.5
alpha_points = 3
"""


def test_emitted_text_is_pinned():
    assert emit_config(parse_config(FULL)) == FULL_EMITTED
    assert emit_config(parse_config(FULL_EMITTED)) == FULL_EMITTED


#: (document, message, line, key): one row per ConfigError path
CONFIG_ERRORS = [
    ("[source]\nkind spdc\n",
     "expected 'key = value' (line 2)", 2, None),
    ("l_max = 1\n",
     "key outside any section (line 1, key 'l_max')", 1, "l_max"),
    ("[source]\nl_max = 1\nl_max = 2\n",
     "duplicate key (line 3, key 'l_max')", 3, "l_max"),
    ("[scan]\n\n[scan]\n",
     "duplicate section [scan] (line 3)", 3, None),
    ("[mystery]\nx = 1\n",
     "unknown section [mystery] (line 1)", 1, None),
    ("[arm_a.element]\ntype = fiber\nfoo = 1\n",
     "unknown key in [arm_a.element] (line 3, key 'foo')", 3, "foo"),
    ("[scan]\nfoo = 1\n",
     "unknown key in [scan] (line 2, key 'foo')", 2, "foo"),
    # the subcommand picks what to sweep; [scan] has no variable key
    ("[scan]\nvariable = theta\n",
     "unknown key in [scan] (line 2, key 'variable')", 2, "variable"),
    # unknown keys are reported before conversion errors
    ("[source]\nl_max = x\nfoo = 1\n",
     "unknown key in [source] (line 3, key 'foo')", 3, "foo"),
    ("[source]\nl_max = 1.5\n",
     "expected int value, got '1.5' (line 2, key 'l_max')", 2, "l_max"),
    ("[counting]\ngate_s = fast\n",
     "expected float value, got 'fast' (line 2, key 'gate_s')", 2, "gate_s"),
    # conversions run in canonical key order, not document order
    ("[arm_b.element]\ntype = hologram\ntheta_rad = x\nl = y\n",
     "expected int value, got 'y' (line 4, key 'l')", 4, "l"),
    ("[arm_b.element]\nl = 1\n",
     "element section needs a 'type' key (line 1)", 1, None),
    ("[arm_a.element]\ntype = mirror\n",
     "unknown element type 'mirror' (line 2, key 'type')", 2, "type"),
    ("[arm_a.element]\ntype = waveplate\nfast_axis_rad = 0.1\n",
     "element 'waveplate' needs key 'kind' (line 1)", 1, None),
    ("[arm_a.element]\ntype = qplate\nq = 0.3\n",
     "unphysical q-plate charge (line 1)", 1, None),
    ("[source]\nkind = laser\n",
     "unknown source kind 'laser' (line 1)", 1, None),
    ("[analyzers]\nhologram_l = 0\n",
     "hologram subspace index must be nonzero (line 1)", 1, None),
    ("[counting]\ndelay_m = -1\ngate_s = 0\n",
     "gate must be positive (line 1)", 1, None),
    ("[counting]\ndelay_m = 1\n\n[arm_a.element]\ntype = delay\n"
     "extra_path_m = 2\n",
     "arm A has more than one delay element (line 1)", 1, None),
    # a section guard with no [counting] section carries no line
    ("[arm_a.element]\ntype = delay\nextra_path_m = 1\n\n[arm_a.element]\n"
     "type = delay\nextra_path_m = 2\n",
     "arm A has more than one delay element", None, None),
    # sections are validated source first, whatever the document order
    ("[scan]\ntheta_points = 0\n\n[source]\nkind = laser\n",
     "unknown source kind 'laser' (line 4)", 4, None),
    # elements are built before any single section is checked
    ("[counting]\nfoo = 1\n\n[arm_a.element]\ntype = qplate\nq = 0.3\n",
     "unphysical q-plate charge (line 4)", 4, None),
    # floats must be finite, overflowing literals included
    ("[analyzers]\nalpha_rad = nan\n",
     "expected finite float value, got 'nan' (line 2, key 'alpha_rad')",
     2, "alpha_rad"),
    ("[arm_a.element]\ntype = qplate\nq = inf\n",
     "expected finite float value, got 'inf' (line 3, key 'q')", 3, "q"),
    ("[counting]\ngate_s = 1e-8\ndelay_m = -Infinity\n",
     "expected finite float value, got '-Infinity' (line 3, key 'delay_m')",
     3, "delay_m"),
    # a negative seed is named by its key, not only by its section
    ("[counting]\ngate_s = 1e-8\nseed = -5\n",
     "seed must be a non-negative integer, got -5 (line 3, key 'seed')",
     3, "seed"),
    # ... but another key's error is not put on the seed's line
    ("[counting]\nseed = -5\ngate_s = 0\n",
     "gate must be positive (line 1)", 1, None),
    ("[scan]\ntheta_stop_rad = 1e400\n",
     "expected finite float value, got '1e400' (line 2, key 'theta_stop_rad')",
     2, "theta_stop_rad"),
]


@pytest.mark.parametrize("text, message, line, key", CONFIG_ERRORS)
def test_config_errors_are_pinned(text, message, line, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (str(err.value), err.value.line, err.value.key) == (message, line, key)


# ---------------------------------------------------------------------------
# subcommands


def test_scan_theta_writes_csv_and_summary(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    code = main(["scan-theta", config_path, "--out-dir", str(out)])
    assert code == 0
    data = (out / "scan_theta.csv").read_text().splitlines()
    assert len(data) == 37  # header + 36 rows
    assert data[0] == "setting_rad,p_joint,p_conditional,counts"
    # marked setting: every conditional is exactly one half
    for line in data[1:]:
        assert line.split(",")[2] == "0.5"
    summary = (out / "scan_theta_summary.csv").read_text().splitlines()
    assert summary[0] == "quantity,value"
    vis = float(dict(row.split(",") for row in summary[1:])["visibility"])
    assert vis < 1e-10
    assert "visibility" in capsys.readouterr().out


def test_scan_theta_counts_are_reproducible(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["scan-theta", config_path, "--counts",
                 "--out-dir", str(out_a)]) == 0
    assert main(["scan-theta", config_path, "--counts",
                 "--out-dir", str(out_b)]) == 0
    assert (out_a / "scan_theta.csv").read_bytes() == \
        (out_b / "scan_theta.csv").read_bytes()


def test_seed_override_changes_counts(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["scan-theta", config_path, "--counts", "--out-dir", str(out_a)])
    main(["scan-theta", config_path, "--counts", "--seed", "99",
          "--out-dir", str(out_b)])
    assert (out_a / "scan_theta.csv").read_bytes() != \
        (out_b / "scan_theta.csv").read_bytes()


def test_scan_alpha_matches_sine_curve(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["scan-alpha", config_path, "--out-dir", str(out)]) == 0
    rows = (out / "scan_alpha.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    for row in rows:
        cells = row.split(",")
        alpha, vis = float(cells[0]), float(cells[1])
        assert vis == pytest.approx(abs(math.sin(2 * alpha)), abs=1e-9)


def test_scan_grid_matches_closed_form(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["scan-grid", config_path, "--out-dir", str(out)]) == 0
    rows = (out / "scan_grid.csv").read_text().splitlines()[1:]
    for row in rows:
        alpha, theta, joint, cond = (float(c) for c in row.split(","))
        want = 0.5 * (1 + math.sin(2 * alpha) * math.cos(2 * theta + math.pi / 2))
        assert cond == pytest.approx(want, abs=1e-10)
        assert joint == pytest.approx(0.5 * want, abs=1e-10)


def test_timeline_subcommand(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["timeline", config_path, "--duration-s", "0.2",
                 "--out-dir", str(out)]) == 0
    summary = dict(row.split(",") for row in
                   (out / "timeline_summary.csv").read_text().splitlines()[1:])
    assert int(summary["events"]) >= 0
    assert float(summary["gate_ns"]) == pytest.approx(25.0)
    events = (out / "timeline_events.csv").read_text().splitlines()
    assert events[0] == "arm,timestamp_s,tag"


def test_render_pattern_lobes(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["render-pattern", config_path, "--ell", "5",
                 "--out-dir", str(out)]) == 0
    svg_a = (out / "pattern.svg").read_text()
    assert "10 lobes" in svg_a
    # determinism: a second run produces the identical file
    out_b = tmp_path / "out_b"
    main(["render-pattern", config_path, "--ell", "5", "--out-dir", str(out_b)])
    assert (out / "pattern.svg").read_bytes() == \
        (out_b / "pattern.svg").read_bytes()


def test_fit_subcommand_reads_back_scan(tmp_path, capsys):
    text = CANONICAL.replace("alpha_rad = 0.0", "alpha_rad = 0.7853981633974483")
    path = tmp_path / "erased.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["scan-theta", str(path), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["fit", str(out / "scan_theta.csv"),
                 "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "visibility=1" in printed
    summary = dict(row.split(",") for row in
                   (out / "fit_summary.csv").read_text().splitlines()[1:])
    assert float(summary["fit_phase_rad"]) == pytest.approx(math.pi / 2, abs=1e-9)


# ---------------------------------------------------------------------------
# exit codes


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CANONICAL.replace("q = 0.5", "q = 0.3"), encoding="utf-8")
    assert main(["scan-theta", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [("q = 0.5", "q = inf"),
                                      ("alpha_rad = 0.0", "alpha_rad = nan")])
def test_non_finite_value_exit_code(tmp_path, capsys, old, new):
    path = tmp_path / "bad.cfg"
    path.write_text(CANONICAL.replace(old, new), encoding="utf-8")
    assert main(["scan-theta", str(path), "--out-dir", str(tmp_path)]) == 2
    key = new.split(" =")[0]
    assert f"key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("duration", ["nan", "inf", "1e30"])
def test_unusable_duration_exit_code_names_it(tmp_path, config_path, capsys,
                                              duration):
    assert main(["timeline", config_path, "--duration-s", duration,
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "duration" in err and f"{float(duration)!r} s" in err


def test_unallocatable_duration_exits_2_without_a_traceback(tmp_path):
    # 1e12 s at the demo's 2000 Hz is 2e15 pair times, 14.2 PiB per array
    src = DEMO_CONFIG.parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "oam_eraser", "timeline", str(DEMO_CONFIG),
         "--duration-s", "1e12", "--out-dir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "duration 1000000000000.0 s is too long: 2e+15" in result.stderr


@pytest.mark.parametrize("command", [["scan-theta", "--counts"], ["timeline"]])
def test_negative_seed_option_exits_2_and_names_it(tmp_path, config_path,
                                                   capsys, command):
    out = tmp_path / "out"
    assert main([*command, config_path, "--seed", "-1",
                 "--out-dir", str(out)]) == 2
    assert ("option --seed: seed must be a non-negative integer, got -1"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("phase", ["nan", "inf"])
def test_non_finite_phase_exits_2_and_names_it(tmp_path, config_path, capsys,
                                               phase):
    out = tmp_path / "out"
    assert main(["render-pattern", config_path, "--phase-rad", phase,
                 "--out-dir", str(out)]) == 2
    assert f"non-finite intermodal phase {float(phase)!r}" in capsys.readouterr().err
    assert not out.exists()


def test_null_pipeline_exit_code_names_element(tmp_path, capsys):
    text = CANONICAL.replace("accepted_l = 0", "accepted_l = 7")
    path = tmp_path / "null.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["scan-theta", str(path), "--out-dir", str(tmp_path)]) == 3
    assert "fiber" in capsys.readouterr().err


def test_io_error_exit_code(tmp_path, config_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    bad_dir = blocker / "sub"
    assert main(["scan-theta", config_path, "--out-dir", str(bad_dir)]) == 4
    assert "output error" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path):
    assert main(["scan-theta", str(tmp_path / "absent.cfg")]) == 2


@pytest.mark.parametrize("command", ["scan-theta", "fit"])
def test_directory_as_input_exits_2_not_as_output_error(tmp_path, capsys,
                                                        command):
    # a directory, since permission bits do not stop a root reader
    out = tmp_path / "out"
    assert main([command, str(tmp_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read input: ") and str(tmp_path) in err
    assert not out.exists()


#: (scan CSV text, the line its error names)
BAD_SCAN_CSVS = [
    ("", 1),
    ("\n\n", 1),
    ("setting_rad,p_joint,p_conditional,counts\n0.0,,0.5,\n\n0.5,0.25\n", 4),
    ("setting_rad,p_joint,p_conditional,counts\n0.0,,half,\n", 2),
    # rows that parse as numbers but are no scan: each would be fitted
    ("setting_rad,p_joint,p_conditional,counts\n0.0,,0.5,7\n0.5,,0.5,-5\n"
     "1.0,,0.5,7\n1.5,,0.5,7\n", 3),
    ("setting_rad,p_joint,p_conditional,counts\n0.0,,0.5,\n0.5,,0.5,\n"
     "inf,,0.5,\n1.5,,0.5,\n", 4),
    ("setting_rad,p_joint,p_conditional,counts\n0.0,,0.5,\n0.5,,nan,\n"
     "1.0,,0.5,\n1.5,,0.5,\n", 3),
    ("setting_rad,p_joint,p_conditional,counts\n0.0,,0.5,\n0.5,,0.5,\n"
     "1.0,,1.5,\n1.5,,0.5,\n", 4),
]


@pytest.mark.parametrize("text, line", BAD_SCAN_CSVS,
                         ids=["empty", "blank", "short-row", "bad-number",
                              "negative-count", "inf-setting", "nan-probability",
                              "probability-above-one"])
def test_unreadable_scan_csv_exits_2_and_names_the_line(tmp_path, capsys,
                                                        text, line):
    path = tmp_path / "scan.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["fit", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert err.rstrip().endswith(f"{path} (line {line})")


# ---------------------------------------------------------------------------
# byte stability of the demo outputs

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "eraser.cfg"

#: sha256 of every written file that carries no least-squares fit output
#: (fit fields print rounding noise at 12 significant digits).
DEMO_DIGESTS = {
    "scan_theta.csv":
        "71e2022d435624bdb215935175d271cc6ef5b28f9d4359a64592fe5c0b3f183c",
    "scan_theta.svg":
        "a09b4ff7766d48fa075c484218823faa39e6481116a93a512e6fc5e719cb7d46",
    "scan_grid.csv":
        "fbc76b4befb10a003fb777fdc90e5fe36de52c95d535065f5d49749c226a0007",
    "timeline_events.csv":
        "56b515c1a7fda7328fd36fe07a52a9254072ad0f6bda944e1535a723271f60df",
    "timeline_summary.csv":
        "87ae108c6f8ec4d55ca5c8503c2aa0894fb251dcbe90939b41b85e65c7277862",
    "pattern.csv":
        "6852db9bcca24db497fb23c808e007b3f631515ec37cfbf175292ad9c060d83e",
    "pattern.svg":
        "5511a6eef4eceb0c395a4718cb01e2b764484c835d874e307e49598bd49bf8b7",
}


def test_demo_outputs_are_byte_stable(tmp_path):
    for command in (["scan-theta", "--counts", "--svg"], ["scan-grid"],
                    ["timeline"], ["render-pattern"]):
        assert main([command[0], str(DEMO_CONFIG), *command[1:],
                     "--out-dir", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in DEMO_DIGESTS}
    assert got == DEMO_DIGESTS


def test_counted_scan_alpha_on_the_demo_config_is_reproducible_and_erases(tmp_path):
    """``scan-alpha --counts --svg`` on the demo config: the same bytes twice,
    and each counted visibility within five standard errors of ``|sin 2 alpha|``.

    The fit's offset ``o`` and amplitude ``A`` over ``M`` angles that tile a full
    period are linear in Poisson counts of mean ``lam_i``: ``var(o) =
    sum(lam_i)/M^2`` and ``var(A) <= 2 max(lam_i)/M``, and ``max(lam_i) <= 2 o``
    here.  So ``V = A/o`` has standard error at most ``(2 + V) / sqrt(M o)``
    to first order, with ``o`` the fitted offset."""
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["scan-alpha", str(DEMO_CONFIG), "--counts", "--svg",
                     "--out-dir", str(out)]) == 0
    for name in ("scan_alpha.csv", "scan_alpha.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    points = parse_config(DEMO_CONFIG.read_text(encoding="utf-8")).scan.theta_points
    rows = (outs[0] / "scan_alpha.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    for row in rows:
        alpha, vis, offset = (float(cell) for cell in row.split(",")[:3])
        want = abs(math.sin(2 * alpha))
        assert abs(vis - want) <= 5 * (2 + want) / math.sqrt(points * offset)
    # one angle: the plot's x axis spans a single value, drawn one unit wide
    one = tmp_path / "one.cfg"
    one.write_text(DEMO_CONFIG.read_text(encoding="utf-8").replace(
        "alpha_points = 9", "alpha_points = 1"), encoding="utf-8")
    assert main(["scan-alpha", str(one), "--svg", "--out-dir", str(tmp_path / "one")]) == 0
    svg = (tmp_path / "one" / "scan_alpha.svg").read_text()
    assert 'polyline points="56.000,' in svg and "nan" not in svg
    # an all-zero series: the y axis spans one unit up from 0
    flat = line_plot_svg([0.0, 1.0], [0.0, 0.0], "flat")
    assert 'polyline points="56.000,344.000 584.000,344.000"' in flat


#: the demo config with accidentals on both arms, an arm-A delay and a 2 µs
#: gate, so clusters of up to nine clicks fall within one gate
ACCIDENTAL_OVERRIDES = (("pair_rate_hz = 2000.0", "pair_rate_hz = 20000.0"),
                        ("gate_s = 2.5e-08", "gate_s = 2e-06"),
                        ("delay_m = 0.0", "delay_m = 4.5"),
                        ("singles_a_hz = 0.0", "singles_a_hz = 150000.0"),
                        ("singles_b_hz = 0.0", "singles_b_hz = 100000.0"))


def test_accidental_timeline_is_byte_stable(tmp_path, capsys):
    text = DEMO_CONFIG.read_text(encoding="utf-8")
    for old, new in ACCIDENTAL_OVERRIDES:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "accidental.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["timeline", str(path), "--duration-s", "0.02",
                 "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("timeline: 900 coincidences")
    summary = (tmp_path / "timeline_summary.csv").read_text().splitlines()
    assert "coincidences,900" in summary and "events,5135" in summary
    events = (tmp_path / "timeline_events.csv").read_bytes()
    assert b",accidental\n" in events
    assert hashlib.sha256(events).hexdigest() == \
        "f9762bf463ac56ec712566739965fb63b45065c22649dbbacb22ef3c5d234165"


#: the demo config with one set of overrides per case: between them both
#: hologram modes, a polarizer leak, an arm-A delay, a gaussian spectrum whose
#: l = +-2 pairs pass a charge-1 q-plate and an l = 2 hologram, and singles on
#: both arms
MATRIX_OVERRIDES = {
    "ideal": (),
    "binary-leak-delay": (("hologram_mode = ideal", "hologram_mode = binary"),
                          ("extinction = 0.0", "extinction = 0.05"),
                          ("delay_m = 0.0", "delay_m = 3.0")),
    "gaussian-l2-singles": (("l_max = 1", "l_max = 2"),
                            ("spectrum = flat",
                             "spectrum = gaussian\nsigma_l = 1.5"),
                            ("\nq = 0.5\n", "\nq = 1.0\n"),
                            ("hologram_l = 1", "hologram_l = 2"),
                            ("singles_a_hz = 0.0", "singles_a_hz = 3000.0"),
                            ("singles_b_hz = 0.0", "singles_b_hz = 2000.0")),
}

#: output subdirectory -> command, so the counted and the exact theta scan
#: write their files side by side
MATRIX_COMMANDS = {
    "counts": ["scan-theta", "--counts", "--svg"],
    "exact": ["scan-theta", "--no-counts", "--svg"],
    "grid": ["scan-grid"],
    "timeline": ["timeline", "--duration-s", "0.5"],
    "pattern": ["render-pattern"],
}

#: sha256 of every file the matrix writes that carries no least-squares fit
MATRIX_DIGESTS = {
    "binary-leak-delay": {
        "counts/scan_theta.csv":
            "0bcdf100df48559e63a06ee96aa331cf0dac039cc896e6e901b4846b57f82ccf",
        "counts/scan_theta.svg":
            "5d97850e0324047bba82ceab59f43a89118de2332cc795bf11da0dcad3a638b2",
        "exact/scan_theta.csv":
            "487f61ddc78b9e014739940e4a524484441aa07de6609b05a3e59dc2c55b6e3a",
        "exact/scan_theta.svg":
            "5d97850e0324047bba82ceab59f43a89118de2332cc795bf11da0dcad3a638b2",
        "grid/scan_grid.csv":
            "0dab4606836f567ebec699c182f15466d39b1a5d382703cfb274780c12f670dd",
        "timeline/timeline_events.csv":
            "6e1b86400dde59bb5d0c4242c06dc79e9183fa5d9192b45ca9be4252b9a50e88",
        "timeline/timeline_summary.csv":
            "3031b858170927ede6c038201cdb08323781bcf82e1833eaa7be5a80d852b539",
        "pattern/pattern.csv":
            "6852db9bcca24db497fb23c808e007b3f631515ec37cfbf175292ad9c060d83e",
        "pattern/pattern.svg":
            "5511a6eef4eceb0c395a4718cb01e2b764484c835d874e307e49598bd49bf8b7",
    },
    "gaussian-l2-singles": {
        "counts/scan_theta.csv":
            "cad9579d9d093178530ad8029ba946c81f2e69d3eb8e2948d934538b3a8c6914",
        "counts/scan_theta.svg":
            "a09b4ff7766d48fa075c484218823faa39e6481116a93a512e6fc5e719cb7d46",
        "exact/scan_theta.csv":
            "73653320fa48c8eb44f3553aff69d5a6e153d1052cb03c669e0ac5b7696461c7",
        "exact/scan_theta.svg":
            "a09b4ff7766d48fa075c484218823faa39e6481116a93a512e6fc5e719cb7d46",
        "grid/scan_grid.csv":
            "fbc76b4befb10a003fb777fdc90e5fe36de52c95d535065f5d49749c226a0007",
        "timeline/timeline_events.csv":
            "467711017f60910024bd1b0e979e5f2b55ffc6ae3fa0377a7f9536ce8fcc7b5f",
        "timeline/timeline_summary.csv":
            "3c3fd53a653f085d8e37ed5beb40c96db5325563c340b25ed88ca7ccad8af214",
        "pattern/pattern.csv":
            "f063d582b7f6f8bdbee8cbe72b708aaf7b568a83bd9836f4ec70bb2307ebac5f",
        "pattern/pattern.svg":
            "7063a116e1af39a9e50da031061be22c3826baa50d453ba630b12aba38d38a0d",
    },
    "ideal": {
        "counts/scan_theta.csv":
            "71e2022d435624bdb215935175d271cc6ef5b28f9d4359a64592fe5c0b3f183c",
        "counts/scan_theta.svg":
            "a09b4ff7766d48fa075c484218823faa39e6481116a93a512e6fc5e719cb7d46",
        "exact/scan_theta.csv":
            "73653320fa48c8eb44f3553aff69d5a6e153d1052cb03c669e0ac5b7696461c7",
        "exact/scan_theta.svg":
            "a09b4ff7766d48fa075c484218823faa39e6481116a93a512e6fc5e719cb7d46",
        "grid/scan_grid.csv":
            "fbc76b4befb10a003fb777fdc90e5fe36de52c95d535065f5d49749c226a0007",
        "timeline/timeline_events.csv":
            "8ad54aa4f435deb9818328917a43b8920d1d4b4fe14d985a02e5e5ba0c015cc6",
        "timeline/timeline_summary.csv":
            "41ac89fbe6429ea2964c598f2b591da01e02ecb11c9a49dae0d44cd84c1b82de",
        "pattern/pattern.csv":
            "6852db9bcca24db497fb23c808e007b3f631515ec37cfbf175292ad9c060d83e",
        "pattern/pattern.svg":
            "5511a6eef4eceb0c395a4718cb01e2b764484c835d874e307e49598bd49bf8b7",
    },
}


@pytest.mark.parametrize("case", sorted(MATRIX_OVERRIDES))
def test_config_matrix_outputs_are_byte_stable(tmp_path, case):
    text = DEMO_CONFIG.read_text(encoding="utf-8")
    for old, new in MATRIX_OVERRIDES[case]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / f"{case}.cfg"
    path.write_text(text, encoding="utf-8")
    for sub, command in MATRIX_COMMANDS.items():
        assert main([command[0], str(path), *command[1:],
                     "--out-dir", str(tmp_path / sub)]) == 0
    got = {f"{sub}/{name}": hashlib.sha256(
               (tmp_path / sub / name).read_bytes()).hexdigest()
           for sub in MATRIX_COMMANDS
           for name in sorted(os.listdir(tmp_path / sub))
           if name != "scan_theta_summary.csv"}  # the one file with fit fields
    assert got == MATRIX_DIGESTS[case]


# ---------------------------------------------------------------------------
# demo scripts

DEMOS = sorted(DEMO_CONFIG.parent.glob("0*.py"))

#: sha256 of each demo's stdout, with the directory it ran in written <dir>
DEMO_STDOUT_DIGESTS = {
    "01_hybrid_entanglement":
        "c1134fd2fda30bbcac3ae0a0466bae3de07f21e0c94305909c359b93c3b4610a",
    "02_eraser_fringes":
        "8fe360058f5100bbd1188ed83ddbfebf8c825e704ae356cba4d4bab2f22a4e2a",
    "03_delayed_choice_timeline":
        "d37dca37d7637dec91aa4f7202a35c06132f1c3553650f824d716f22a2d4c2d8",
    "04_sector_masks":
        "fa549182e45a09d1b8880b02f770f1c463e1f0d55ed0511bacda5b12e9f58caa",
    "05_which_path_tradeoff":
        "e866bc06abfd31fba001d3ff60ad9edf62b12d702e1bfe45f43a7f7f3c0e08e4",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_script_runs(script, tmp_path):
    # run a copy: the demos write their files next to themselves
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    src = DEMO_CONFIG.parent.parent / "src"
    result = subprocess.run([sys.executable, str(copy)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    stdout = result.stdout.replace(str(tmp_path), "<dir>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == \
        DEMO_STDOUT_DIGESTS[script.stem], stdout
