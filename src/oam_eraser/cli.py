"""Command-line scan drivers.

Subcommands (one per measurement style):

    scan-theta      hologram-rotation fringe scan at the configured polarizer
    scan-alpha      fitted visibility versus polarizer angle
    scan-grid       joint/conditional probabilities over the (alpha, theta) grid
    timeline        event-by-event coincidence Monte Carlo (delay-aware)
    render-pattern  azimuthal intensity of the analyzed sector state
    fit             sinusoid fit of a previously written scan CSV

Each handler reads its input and computes, and returns its files and a
summary line; :func:`main` writes the files, then prints the line.

Exit codes: 0 success, 2 configuration error, input error (a scan CSV
``fit`` cannot use) or unreadable input, 3 null pipeline (an element
extinguished the state), 4 output I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import analysis, experiment, output
from .configio import ConfigError, RunSpec, parse_config_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NULL = 3
EXIT_IO = 4


def _load(args) -> RunSpec:
    run = parse_config_file(args.config)
    if args.seed is not None:
        try:
            counting = replace(run.config.counting, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"option --seed: {exc}") from None
        run = replace(run, config=replace(run.config, counting=counting))
    return run


def _scan_theta(args) -> tuple:
    run = _load(args)
    config, scan = run.config, run.scan
    series = experiment.theta_scan(config, thetas=scan.thetas())
    if args.counts:
        series = experiment.simulate_counts(config, series)
    fit = analysis.fit_sinusoid(series)
    vis = analysis.fit_visibility(fit)
    files = {
        "scan_theta.csv": output.scan_csv(series),
        "scan_theta_summary.csv": output.summary_csv(
            output.fit_summary_rows(vis, fit)),
    }
    if args.svg:
        files["scan_theta.svg"] = output.line_plot_svg(
            series.settings, series.probabilities,
            "conditional probability vs hologram angle")
    return files, (f"scan-theta: {len(series.settings)} points, "
                   f"visibility={output.fmt(vis)}")


def _scan_alpha(args) -> tuple:
    run = _load(args)
    config, scan = run.config, run.scan
    alphas = scan.alphas()
    series = experiment.theta_scans(config, alphas, points=scan.theta_points)
    if args.counts:
        series = [experiment.simulate_counts(config, s, repetition=index)
                  for index, s in enumerate(series)]
    points = analysis.visibility_points(alphas, series)
    files = {"scan_alpha.csv": output.alpha_csv(points)}
    if args.svg:
        files["scan_alpha.svg"] = output.line_plot_svg(
            [p.alpha for p in points], [p.visibility for p in points],
            "fringe visibility vs polarizer angle")
    return files, (f"scan-alpha: {len(points)} settings, max visibility="
                   f"{output.fmt(max(p.visibility for p in points))}")


def _scan_grid(args) -> tuple:
    run = _load(args)
    scan = run.scan
    alphas, thetas = scan.alphas(), scan.thetas()
    joint, cond = experiment.conditional_grid(run.config, alphas, thetas)
    return ({"scan_grid.csv": output.grid_csv(alphas, thetas, joint, cond)},
            f"scan-grid: {len(alphas)}x{len(thetas)} points")


def _timeline(args) -> tuple:
    run = _load(args)
    config = run.config
    alpha = config.analyzer_a.alpha
    theta = config.analyzer_b.theta
    events, coincidences = experiment.simulate_timeline(
        config, alpha, theta, args.duration_s)
    summary = [
        ("duration_s", float(args.duration_s)),
        ("coincidences", coincidences),
        ("arm_a_delay_ns", config.arm_delay("A") * 1e9),
        ("arm_b_delay_ns", config.arm_delay("B") * 1e9),
        ("gate_ns", config.counting.gate * 1e9),
        ("events", len(events)),
    ]
    files = {
        "timeline_events.csv": output.events_csv(events),
        "timeline_summary.csv": output.summary_csv(summary),
    }
    return files, (f"timeline: {coincidences} coincidences in "
                   f"{output.fmt(args.duration_s)} s "
                   f"(arm A delayed {output.fmt(config.arm_delay('A') * 1e9)} ns)")


def _render_pattern(args) -> tuple:
    run = _load(args)
    ell = args.ell if args.ell is not None else run.config.analyzer_b.ell
    intensity = analysis.render_azimuthal_pattern(ell, args.phase_rad,
                                                  args.grid_n)
    phis = analysis.azimuthal_grid(args.grid_n)
    lobes = analysis.count_azimuthal_lobes(intensity)
    files = {
        "pattern.csv": output.pattern_csv(phis, intensity),
        "pattern.svg": output.polar_plot_svg(
            intensity, f"azimuthal intensity, {lobes} lobes"),
    }
    return files, f"render-pattern: {lobes} lobes for |l|={abs(ell)}"


def _fit(args) -> tuple:
    series = output.read_scan_csv(args.csv)
    fit = analysis.fit_sinusoid(series, on=args.column)
    vis = analysis.fit_visibility(fit)
    summary = output.summary_csv(output.fit_summary_rows(vis, fit))
    return {"fit_summary.csv": summary}, (
        f"fit: visibility={output.fmt(vis)} offset={output.fmt(fit.offset)} "
        f"amplitude={output.fmt(fit.amplitude)} phase={output.fmt(fit.phase)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oam-eraser",
        description="Hybrid polarization-OAM quantum-eraser simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="experiment configuration file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the counting seed")

    p = sub.add_parser("scan-theta", help="hologram fringe scan")
    common(p)
    p.add_argument("--counts", action=argparse.BooleanOptionalAction,
                   default=False, help="sample Poisson counts")
    p.add_argument("--svg", action="store_true", help="also write an SVG plot")
    p.set_defaults(handler=_scan_theta)

    p = sub.add_parser("scan-alpha", help="visibility vs polarizer angle")
    common(p)
    p.add_argument("--counts", action=argparse.BooleanOptionalAction,
                   default=False, help="sample Poisson counts per scan")
    p.add_argument("--svg", action="store_true", help="also write an SVG plot")
    p.set_defaults(handler=_scan_alpha)

    p = sub.add_parser("scan-grid", help="(alpha, theta) probability grid")
    common(p)
    p.set_defaults(handler=_scan_grid)

    p = sub.add_parser("timeline", help="event-level coincidence simulation")
    common(p)
    p.add_argument("--duration-s", type=float, default=1.0,
                   help="simulated wall-clock duration")
    p.set_defaults(handler=_timeline)

    p = sub.add_parser("render-pattern", help="azimuthal sector pattern")
    common(p)
    p.add_argument("--ell", type=int, default=None,
                   help="OAM subspace (defaults to the analyzer hologram)")
    p.add_argument("--phase-rad", type=float, default=0.0,
                   help="intermodal phase")
    p.add_argument("--grid-n", type=int, default=256, help="azimuthal samples")
    p.set_defaults(handler=_render_pattern)

    p = sub.add_parser("fit", help="fit a previously written scan CSV")
    p.add_argument("csv", help="scan CSV path")
    p.add_argument("--column", default="auto",
                   choices=["auto", "probabilities", "counts"],
                   help="which column to fit")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(handler=_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a handler reads its input and computes; only this function writes, so
    # an OSError from the handler is the input's and one from here the output's
    try:
        files, summary = args.handler(args)
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except experiment.NullOutcomeError as exc:
        print(f"null pipeline: {exc}", file=sys.stderr)
        return EXIT_NULL
    except (ValueError, TypeError) as exc:  # ConfigError among them
        label = "input error" if args.command == "fit" else "configuration error"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        output.write_outputs(args.out_dir, files)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(summary)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
