"""Declarative experiment configuration.

The format is a small line-based sections file::

    [source]
    kind = spdc
    l_max = 1

    [arm_a.element]
    type = qplate
    q = 0.5

    [analyzers]
    alpha_rad = 0.0

Repeated ``[arm_a.element]`` / ``[arm_b.element]`` sections build the
ordered element lists.  All angles are radians.

One ordered table per section, and per element type, maps each config key
to a dataclass field and its type; parsing, the key checks and the emitter
all read it.  Absent keys keep the dataclass defaults, and an element field
without a default is a required key.  Unknown sections or keys are rejected
with the offending line.  The emitter writes every key in table order,
defaults included, so ``emit -> parse -> emit`` is byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import elements as el
from .experiment import CountingModel, ExperimentConfig, SourceSpec

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Malformed configuration; carries the line/key that failed."""

    def __init__(self, message: str, line: int | None = None,
                 key: str | None = None):
        place = []
        if line is not None:
            place.append(f"line {line}")
        if key is not None:
            place.append(f"key '{key}'")
        suffix = f" ({', '.join(place)})" if place else ""
        super().__init__(message + suffix)
        self.line = line
        self.key = key


@dataclass(frozen=True, slots=True)
class ScanSpec:
    """The angles to sweep; the subcommand picks the hologram angle, the
    polarizer angle or the full grid."""

    theta_start: float = 0.0
    theta_stop: float = TWO_PI
    theta_points: int = 72
    alpha_start: float = 0.0
    alpha_stop: float = math.pi / 4
    alpha_points: int = 9

    def __post_init__(self):
        if self.theta_points < 1 or self.alpha_points < 1:
            raise ValueError("scan needs at least one point")

    def thetas(self) -> np.ndarray:
        """``theta_points`` angles from ``theta_start`` up to, not including,
        ``theta_stop``, so a full turn samples no angle twice."""
        return np.linspace(self.theta_start, self.theta_stop, self.theta_points,
                           endpoint=False)

    def alphas(self) -> np.ndarray:
        return np.linspace(self.alpha_start, self.alpha_stop, self.alpha_points)


@dataclass(frozen=True, slots=True)
class RunSpec:
    config: ExperimentConfig
    scan: ScanSpec


# ---------------------------------------------------------------------------
# schema: one ordered table per section, config key -> (dataclass field, type)


#: element type -> (spec class, keys); the section name sets the arm
_ELEMENTS = {
    "qplate": (el.QPlateSpec, {"q": ("q", float)}),
    "waveplate": (el.WavePlateSpec, {"kind": ("kind", str),
                                     "fast_axis_rad": ("fast_axis", float)}),
    "polarizer": (el.PolarizerSpec, {"alpha_rad": ("alpha", float),
                                     "extinction": ("extinction", float)}),
    "fiber": (el.FiberSpec, {"accepted_l": ("accepted_ell", int)}),
    "hologram": (el.HologramSpec, {"l": ("ell", int),
                                   "theta_rad": ("theta", float),
                                   "mode": ("mode", str)}),
    "delay": (el.DelaySpec, {"extra_path_m": ("extra_path", float)}),
}

#: the single sections, in validation and emission order, with one table per
#: dataclass they set: [analyzers] sets the arm-A polarizer with the polarizer
#: element's keys, then the arm-B hologram
_SINGLES = {
    "source": ({
        "kind": ("kind", str),
        "l_max": ("l_max", int),
        "spectrum": ("spectrum", str),
        "sigma_l": ("sigma_ell", float),
    },),
    "analyzers": (_ELEMENTS["polarizer"][1], {
        "hologram_l": ("ell", int),
        "hologram_mode": ("mode", str),
        "hologram_theta_rad": ("theta", float),
    }),
    "counting": ({
        "pair_rate_hz": ("pair_rate", float),
        "integration_time_s": ("integration_time", float),
        "gate_s": ("gate", float),
        "delay_m": ("extra_path", float),  # of a delay appended to arm A
        "singles_a_hz": ("singles_a", float),
        "singles_b_hz": ("singles_b", float),
        "seed": ("seed", int),
    },),
    "scan": ({
        "theta_start_rad": ("theta_start", float),
        "theta_stop_rad": ("theta_stop", float),
        "theta_points": ("theta_points", int),
        "alpha_start_rad": ("alpha_start", float),
        "alpha_stop_rad": ("alpha_stop", float),
        "alpha_points": ("alpha_points", int),
    },),
}


class _Section:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.entries: dict = {}  # key -> (raw value, line)


def _tokenize(text: str):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = _Section(line[1:-1].strip(), lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            raise ConfigError("key outside any section", lineno, key)
        if key in current.entries:
            raise ConfigError("duplicate key", lineno, key)
        current.entries[key] = (value, lineno)
    return sections


def _values(section: _Section | None, *tables) -> list:
    """One ``{field: value}`` dict per table, of the keys present; unknown
    keys are reported before conversion errors, which come in table order.
    Floats must be finite: ``nan``, ``inf`` and overflowing literals such as
    ``1e400`` are conversion errors."""
    entries = section.entries if section is not None else {}
    for key, (_, line) in entries.items():
        if not any(key in keys for keys in tables):
            raise ConfigError(f"unknown key in [{section.name}]", line, key)
    out = []
    for keys in tables:
        values = {}
        for key, (field, kind) in keys.items():
            if key in entries:
                raw, line = entries[key]
                try:
                    values[field] = kind(raw)
                except ValueError:
                    raise ConfigError(
                        f"expected {kind.__name__} value, got {raw!r}",
                        line, key) from None
                if kind is float and not math.isfinite(values[field]):
                    raise ConfigError(f"expected finite float value, got {raw!r}",
                                      line, key)
        out.append(values)
    return out


def _build_element(section: _Section):
    if "type" not in section.entries:
        raise ConfigError("element section needs a 'type' key", section.line)
    etype, line = section.entries.pop("type")
    if etype not in _ELEMENTS:
        raise ConfigError(f"unknown element type {etype!r}", line, "type")
    cls, keys = _ELEMENTS[etype]
    (values,) = _values(section, keys)
    required = {f.name for f in fields(cls) if f.default is MISSING}
    for key, (field, _) in keys.items():
        if field in required and field not in values:
            raise ConfigError(f"element '{etype}' needs key '{key}'", section.line)
    arm = "A" if section.name == "arm_a.element" else "B"
    try:
        return cls(**values, arm=arm)
    except ValueError as exc:
        raise ConfigError(str(exc), section.line) from exc


def parse_config(text: str) -> RunSpec:
    """Parse and validate a configuration document."""
    singles: dict = {}
    arms = {"arm_a.element": [], "arm_b.element": []}
    for section in _tokenize(text):
        if section.name in arms:
            arms[section.name].append(_build_element(section))
        elif section.name in _SINGLES:
            if section.name in singles:
                raise ConfigError(f"duplicate section [{section.name}]",
                                  section.line)
            singles[section.name] = section
        else:
            raise ConfigError(f"unknown section [{section.name}]", section.line)
    (src,), (pol, holo), (cnt,), (scn,) = (
        _values(singles.get(name), *tables) for name, tables in _SINGLES.items())

    def guard(section_name, build, /, *args, key=None, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            section = singles.get(section_name)
            named = key if key and str(exc).startswith(key + " ") else None
            line = section.entries[key][1] if named else section and section.line
            raise ConfigError(str(exc), line, named) from exc

    source = guard("source", replace, SourceSpec(), **src)
    delay_m = cnt.pop("extra_path", 0.0)
    counting = guard("counting", replace, CountingModel(), key="seed", **cnt)
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    analyzer_a = guard("analyzers", replace, defaults["analyzer_a"], **pol)
    analyzer_b = guard("analyzers", replace, defaults["analyzer_b"], **holo)
    elements_a = arms["arm_a.element"]
    if delay_m != 0.0:  # a negative path is the spec's error, not no delay
        elements_a.append(guard("counting", el.DelaySpec, delay_m, arm="A"))
    config = guard("counting", ExperimentConfig, source, tuple(elements_a),
                   tuple(arms["arm_b.element"]), analyzer_a, analyzer_b, counting)
    scan = guard("scan", replace, ScanSpec(), **scn)
    return RunSpec(config=config, scan=scan)


def parse_config_file(path) -> RunSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# canonical emitter


def _num(value) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean config values")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _lines(tables, values) -> list:
    """``key = value`` lines, table by table in key order, for one field dict
    per table; unset values (``None``, only ``sigma_l``) are left out."""
    out = []
    for keys, by_field in zip(tables, values):
        for key, (field, kind) in keys.items():
            value = by_field[field]
            if value is not None:
                out.append(f"{key} = {value if kind is str else _num(value)}")
    return out


def emit_config(run: RunSpec) -> str:
    """Canonical text form: sections and keys in table order, defaults included."""
    cfg = run.config
    delay_m = 0.0
    elements = []
    for arm, specs in (("arm_a", cfg.elements_a), ("arm_b", cfg.elements_b)):
        for spec in specs:
            if arm == "arm_a" and isinstance(spec, el.DelaySpec):
                delay_m = spec.extra_path  # emitted under [counting]
                continue
            name = el.element_name(spec)
            elements.append([f"[{arm}.element]", f"type = {name}",
                             *_lines((_ELEMENTS[name][1],), (asdict(spec),))])
    # one field dict per table of _SINGLES, in its order
    values = ((asdict(cfg.source),),
              (asdict(cfg.analyzer_a), asdict(cfg.analyzer_b)),
              ({**asdict(cfg.counting), "extra_path": delay_m},),
              (asdict(run.scan),))
    blocks = [[f"[{name}]", *_lines(tables, vals)]
              for (name, tables), vals in zip(_SINGLES.items(), values)]
    blocks[1:1] = elements  # element sections follow [source]
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"
