"""Bit-stable result emission: CSV tables and minimal SVG plots.

Floating-point values are printed as ``%.12g`` and files use LF line endings,
so identical inputs always produce byte-identical files.  The events CSV
rounds its times in numpy, prints their digits four at a time from a table,
and leaves Python's ``%`` to the rows events_csv lists.  The SVG writers are
deliberately tiny (axes, polyline, labels) to keep the output diffable.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .analysis import FringeFit
from .experiment import TAGS, EventTable, ScanSeries


def fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# CSV


def _csv(header: str, rows) -> str:
    """A header line and one line per row, each ended by LF."""
    return "\n".join([header, *rows]) + "\n"


def scan_csv(series: ScanSeries) -> str:
    joint = series.joint_probabilities or (None,) * len(series.settings)
    counts = series.counts or (None,) * len(series.settings)
    return _csv("setting_rad,p_joint,p_conditional,counts", (
        ",".join([fmt(setting),
                  fmt(j) if j is not None else "",
                  fmt(p),
                  str(c) if c is not None else ""])
        for setting, j, p, c in zip(series.settings, joint,
                                    series.probabilities, counts)))


def summary_csv(rows) -> str:
    return _csv("quantity,value", (
        f"{key},{fmt(value) if isinstance(value, float) else str(value)}"
        for key, value in rows))


def fit_summary_rows(vis: float, fit: FringeFit) -> list:
    return [
        ("visibility", float(vis)),
        ("fit_offset", float(fit.offset)),
        ("fit_amplitude", float(fit.amplitude)),
        ("fit_phase_rad", float(fit.phase)),
        ("fit_residual_rms", float(fit.residual_rms)),
    ]


def alpha_csv(points) -> str:
    return _csv("alpha_rad,visibility,fit_offset,fit_amplitude,"
                "fit_phase_rad,fit_residual_rms", (
        ",".join(map(fmt, (pt.alpha, pt.visibility, pt.fit.offset,
                           pt.fit.amplitude, pt.fit.phase, pt.fit.residual_rms)))
        for pt in points))


def grid_csv(alphas, thetas, joint, conditional) -> str:
    return _csv("alpha_rad,theta_rad,p_joint,p_conditional", (
        ",".join([
            fmt(float(alpha)), fmt(float(theta)),
            fmt(float(joint[i][j])), fmt(float(conditional[i][j])),
        ])
        for i, alpha in enumerate(alphas) for j, theta in enumerate(thetas)))


_CHUNK = 1 << 13  # rows per block of events_csv; bounds its working memory
_POW10 = np.array([float(10 ** k) for k in range(17)])
#: "00".."99" as two ASCII bytes each, then the same with trailing zeros NUL
_PAIRS = np.frombuffer("".join([f"{i:02d}" for i in range(100)] + [
    f"{i:02d}".rstrip("0").ljust(2, "\0") for i in range(100)]).encode(), "<u2")
_QUADS = np.empty((2, 100, 100, 2), "<u2")  # plain or stripped, high, low pair
_QUADS[..., 0], _QUADS[..., 1] = _PAIRS[:100, None], _PAIRS.reshape(2, 1, 100)
_QUADS[1, :, 0, 0] = _PAIRS[100:]  # a high pair strips when its low pair is 00
_QUADS = _QUADS.view("<u4").ravel()  # "0000".."9999", then trailing zeros NUL


def events_csv(events: EventTable) -> str:
    """One row per click, arm A then arm B, each time printed as ``%.12g``.

    With ``e = floor(log10 t)``, the 12-digit mantissa ``m = rint(t *
    10**(11 - e))`` gives the digits, three groups of four, with trailing zeros
    stripped as ``%g`` strips them.  A time that is not finite or not positive,
    lies below 1e-4 (e-form), has ``m`` outside ``[1e11, 1e12)`` (a carry to
    the next power of ten, 1e12 and up, or ``log10`` one off) or lies within
    1e-3 of a rounding tie is printed by Python's ``%`` instead, so every byte
    matches ``%.12g``.  Rows go in blocks of ``_CHUNK`` into one buffer.
    """
    head = b"arm,timestamp_s,tag\n"
    # one buffer, freed whole: a string per block would stay on the C heap
    widest = 22 + max(map(len, TAGS))  # plus the arm: 19-byte time, 3 marks
    text = np.empty(len(head) + sum(len(times) * (len(arm) + widest)
                                    for arm, times, _ in events.arms()), np.uint8)
    text[:len(head)] = np.frombuffer(head, np.uint8)
    end = len(head)
    for arm, times, true_pair in events.arms():
        for lo in range(0, len(times), _CHUNK):
            rows = _event_rows(arm, times[lo:lo + _CHUNK], true_pair[lo:lo + _CHUNK])
            text[end:end + len(rows)] = rows
            end += len(rows)
    text.resize(end, refcheck=False)  # in place; no view of it is left
    return str(memoryview(text), "ascii")


def _event_rows(arm, t, true_pair) -> np.ndarray:
    """The CSV bytes of one block of rows of one arm; a digit group is stripped
    (trailing zeros NUL) when all groups after it are zero, the last always."""
    ok = np.isfinite(t) & (t > 0.0)
    s = np.where(ok, t, 1.0)
    e = np.clip(np.floor(np.log10(s)), -5, 11).astype(np.int64)
    x = s * _POW10[11 - e]
    m = np.rint(x)
    fallback = ~ok | (e < -4) | (m < 1e11) | (m >= 1e12) | (abs(x - m) > 0.499)
    top, q = np.divmod(np.where(fallback, 1e11, m).astype(np.int64), 10 ** 8)
    mid, low = np.divmod(q, 10 ** 4)
    digits = np.zeros((len(t), 4), "<u4")  # 12 digit bytes and 4 NUL
    digits[:, 2] = _QUADS[low + 10_000]
    digits[:, 1] = _QUADS[mid + 10_000 * (low == 0)]
    digits[:, 0] = _QUADS[top + 10_000 * (q == 0)]
    digits = digits.view(np.uint8)
    # per tag, a row template: arm, 19-byte time field, tag; NULs are dropped
    lines = np.array([f"{arm},0.000".ljust(len(arm) + 20, "\0") + f",{tag}\n"
                      for tag in TAGS], "S").view(np.uint8).reshape(len(TAGS), -1)
    line = lines.take(true_pair.astype(np.intp), axis=0)
    field = line[:, len(arm) + 1:len(arm) + 20]
    for v in np.flatnonzero(np.bincount(e + 5)[1:]) - 4:
        rows = np.flatnonzero(e == v)
        if rows[-1] - rows[0] + 1 == len(rows):  # a run: slices, no gather
            rows = slice(rows[0], rows[-1] + 1)
        if v < 0:  # "0." and -v-1 zeros are in the template
            field[rows, 1 - v:13 - v] = digits[rows, :12]
        else:  # integer zeros stay; the point goes where no digit follows
            field[rows, :v + 1] = np.maximum(digits[rows, :v + 1], 48)
            field[rows, v + 1] = np.where(digits[rows, v + 1] > 0, 46, 0)
            field[rows, v + 2:13] = digits[rows, v + 1:12]
    fb = np.flatnonzero(fallback)
    field[fb] = np.array(["%.12g" % value for value in t[fb].tolist()],
                         "S19").view(np.uint8).reshape(-1, 19)
    return line[line > 0]


def pattern_csv(phis, intensity) -> str:
    return _csv("phi_rad,intensity", (
        f"{fmt(float(phi))},{fmt(float(val))}"
        for phi, val in zip(phis, intensity)))


def read_scan_csv(path) -> ScanSeries:
    """Read a :func:`scan_csv` table back; a bad header or row (a short row,
    a cell that is no finite number, a probability outside [0, 1], a negative
    count) raises a ``ValueError`` that names the path and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    number, header = lines[0] if lines else (1, "")
    if header.split(",")[:3] != ["setting_rad", "p_joint", "p_conditional"]:
        raise ValueError(f"not a scan CSV: {path} (line {number})")
    settings, joint, cond, counts = [], [], [], []
    for number, line in lines[1:]:
        try:
            setting, j, p, *c = line.split(",")
            cells = [float(setting), float(j) if j else 0.0, float(p)]
            count = int(c[0]) if c and c[0] else None
            if not all(map(math.isfinite, cells)):
                raise ValueError(f"non-finite cell in {line!r}")
            if not -1e-9 <= cells[2] <= 1.0 + 1e-9:  # ScanSeries' bound
                raise ValueError(f"probability {cells[2]!r} outside [0, 1]")
            if count is not None and count < 0:
                raise ValueError(f"negative count {count}")
        except ValueError as exc:
            raise ValueError(f"{exc}: {path} (line {number})") from None
        settings.append(cells[0])
        joint.append(cells[1] if j else None)
        cond.append(cells[2])
        counts.append(count)
    have_joint = all(j is not None for j in joint)
    have_counts = all(c is not None for c in counts)
    return ScanSeries(
        tuple(settings), tuple(cond),
        joint_probabilities=tuple(joint) if have_joint else None,
        counts=tuple(counts) if have_counts else None,
    )


# ---------------------------------------------------------------------------
# SVG


def _pt(x: float, y: float) -> str:
    return f"{x:.3f},{y:.3f}"


def line_plot_svg(xs, ys, title: str) -> str:
    width, height, margin = 640, 400, 56
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(min(ys.min(), 0.0)), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    points = " ".join(_pt(sx(x), sy(y)) for x, y in zip(xs, ys))
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 18}" font-family="monospace" '
        f'font-size="11">{fmt(x_lo)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" '
        f'text-anchor="end" font-family="monospace" font-size="11">{fmt(x_hi)}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{fmt(y_lo)}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{fmt(y_hi)}</text>',
        f'<polyline points="{points}" fill="none" stroke="#1f599c" '
        f'stroke-width="1.5"/>',
        "</svg>",
    ]) + "\n"


def polar_plot_svg(intensity, title: str) -> str:
    size = 480
    values = np.asarray(intensity, dtype=float)
    peak = values.max() if values.max() > 0 else 1.0
    center = size / 2.0
    base = size * 0.12
    span = size * 0.34
    n = len(values)
    pts = []
    for k, val in enumerate(values):
        phi = 2.0 * math.pi * k / n
        r = base + span * val / peak
        pts.append(_pt(center + r * math.cos(phi), center - r * math.sin(phi)))
    ring = base + span / (2.0 if peak > 1.0 else 1.0)
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{size // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<circle cx="{center:.3f}" cy="{center:.3f}" r="{ring:.3f}" '
        f'fill="none" stroke="#cccccc" stroke-dasharray="4 4"/>',
        f'<polygon points="{" ".join(pts)}" fill="none" stroke="#9c2f1f" '
        f'stroke-width="1.5"/>',
        "</svg>",
    ]) + "\n"


def write_outputs(out_dir, named_texts) -> list:
    """Write ``{filename: text}`` under ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in named_texts.items():
        path = os.path.join(out_dir, name)
        _write_text(path, text)
        paths.append(path)
    return paths
