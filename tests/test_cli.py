import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from oam_eraser.cli import main
from oam_eraser.configio import ConfigError, emit_config, parse_config
from oam_eraser.elements import FiberSpec, QPlateSpec, WavePlateSpec
from oam_eraser.experiment import run_pipeline
from oam_eraser.hilbert import state_overlap

from conftest import marked_pair

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
variable = theta
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
    assert abs(state_overlap(expected, state)) == pytest.approx(1.0, abs=1e-10)
    assert cumulative == pytest.approx(1 / 3, abs=1e-12)


def test_empty_config_is_valid_defaults():
    run = parse_config("")
    state, cumulative = run_pipeline(run.config)
    assert cumulative == 1.0
    assert run.config.counting.integration_time == 5.0
    assert run.config.counting.gate == 25e-9
    assert run.scan.variable == "theta"


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


def test_scan_alpha_matches_sine_curve(tmp_path):
    text = CANONICAL + "\n"
    text = text.replace("variable = theta", "variable = alpha")
    path = tmp_path / "alpha.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["scan-alpha", str(path), "--out-dir", str(out)]) == 0
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


# ---------------------------------------------------------------------------
# byte stability of the demo outputs

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "eraser.cfg"

#: sha256 of every written file that carries no least-squares fit output
#: (fit fields print rounding noise at 12 significant digits).
DEMO_DIGESTS = {
    "scan_theta.csv":
        "5ef9f0aa9f62c923dca9d687f1b0335e78e1f3a77288f3feda70199258bd5dd6",
    "scan_theta.svg":
        "9f2edf0d79950c19d5c0eb3a72855fdcf429d57c9290e90b81b4caad46bd46e5",
    "scan_grid.csv":
        "0b3d48888c9c3b64e3381186a10757d261f8ab616f1d5f49dc6ec0d2f5b6fec5",
    "timeline_events.csv":
        "ff943cabbc53bf4f452b74fc7a723464b5470a7d5202626dd82dbbfad92e31b8",
    "timeline_summary.csv":
        "58de79147f4214443b1addc599fd4d8c262094ed9d8cedff0133c98409dd6525",
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
