"""Command-line front end: scenario verification, center queries, figures.

Every command exits 64 on a usage error: no command, an unknown option,
an argument argparse refuses, or ``render`` without ``--svg``/``--csv``.
Exit codes for ``verify``: 0 when every must-pass claim passes and no claim
errors; 2 when only verdict-only claims fail; 1 on a must-pass failure, a
claim error, a scenario that stops (its ``setup`` raised or was refused
too often) or an I/O error writing ``--json``; 64 for an unknown scenario
or fewer than one trial (also from ``TCL_DEFAULT_TRIALS``).  ``center``
exits 65 on an invalid triangle and 64 on an unknown center name or a
malformed center expression.  ``render`` exits 0 when the figure is written,
1 on an I/O error, 64 for an unknown scenario or a bad render option (grid
outside 16 to 4096, width or height below 64, a negative or non-finite
margin) and 65 for an invalid triangle or a curve it cannot build.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .centers import CenterParseError, eval_expr, parse_center
from .kernel import GeometryError, InvalidTriangle, RefTriangle
from .scenarios import (
    REGISTRY,
    Report,
    TooManySkips,
    UnknownScenario,
    list_scenarios,
    run_scenario,
    shared_run,
)

EXIT_OK = 0
EXIT_MUST_FAIL = 1
EXIT_VERDICT_FAIL = 2
EXIT_USAGE = 64
EXIT_DATA = 65

DEFAULT_TRIALS_ENV = "TCL_DEFAULT_TRIALS"


def _default_trials() -> int:
    raw = os.environ.get(DEFAULT_TRIALS_ENV)
    if raw is None:
        return 100
    try:
        value = int(raw)
    except ValueError:
        print(f"{DEFAULT_TRIALS_ENV} must be an integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    if value < 1:
        print(f"{DEFAULT_TRIALS_ENV} must be positive", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return value


def parse_triangle(text: str) -> RefTriangle:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidTriangle("expected three comma-separated side lengths")
    try:
        sides = [Fraction(p.strip()) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidTriangle(f"unparsable side length in {text!r}") from exc
    return RefTriangle(*sides)


def report_json(report: Report) -> str:
    return json.dumps(report.to_dict(), separators=(",", ":"))


def _report_summary(report: Report) -> str:
    n_pass = sum(1 for c in report.claims if c.status == "pass")
    verdicts = ", ".join(report.verdict_failures) or "-"
    state = ("ok" if report.must_pass_ok and not report.has_error
             else "MUST-PASS FAILURE")
    return (f"{report.scenario}: {state}, {n_pass}/{len(report.claims)} claims "
            f"pass, skipped={report.skipped}, verdict-only failures: {verdicts}")


def cmd_verify(args) -> int:
    trials = args.trials if args.trials is not None else _default_trials()
    if trials < 1:
        print(f"--trials must be at least 1, got {trials}", file=sys.stderr)
        return EXIT_USAGE
    if args.scenario == "all":
        ids = list(REGISTRY)
    else:
        if args.scenario not in REGISTRY:
            print(f"unknown scenario {args.scenario!r}; "
                  "see `tricurves list-scenarios`", file=sys.stderr)
            return EXIT_USAGE
        ids = [args.scenario]
    reports: list[Report] = []
    worst = EXIT_OK
    with shared_run():
        for sid in ids:
            try:
                report = run_scenario(sid, trials, args.seed)
            except Exception as exc:  # a TooManySkips message names the scenario
                why = (exc if isinstance(exc, TooManySkips)
                       else f"{sid}: {type(exc).__name__}: {exc}")
                print(f"stopped: {why}", file=sys.stderr)
                worst = EXIT_MUST_FAIL
                break
            reports.append(report)
            if report.has_error or not report.must_pass_ok:
                worst = EXIT_MUST_FAIL
            elif worst == EXIT_OK and report.verdict_failures:
                worst = EXIT_VERDICT_FAIL
            if args.fail_fast and worst == EXIT_MUST_FAIL:
                break
    lines = [report_json(r) for r in reports]
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return EXIT_MUST_FAIL
        for r in reports:
            print(_report_summary(r))
    else:
        for line in lines:
            print(line)
    return worst


def cmd_center(args) -> int:
    try:
        tri = parse_triangle(args.triangle)
    except GeometryError as exc:
        print(f"invalid triangle: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        expr = parse_center(args.center)
    except CenterParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        point = eval_expr(tri, expr)
    except GeometryError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return EXIT_DATA
    if args.format == "json":
        print(json.dumps({
            "center": args.center,
            "triangle": [str(tri.a), str(tri.b), str(tri.c)],
            "barycentric": [str(point.x), str(point.y), str(point.z)],
        }, separators=(",", ":")))
    else:
        print(str(point))
    return EXIT_OK


def cmd_list_scenarios(args) -> int:
    for sid, desc, n in list_scenarios():
        print(f"{sid}\t{n} claims\t{desc}")
    return EXIT_OK


def _named_curve(name: str, tri: RefTriangle):
    from .curves import Conic, Cubic

    name = name.strip()
    if name == "circumcircle":
        return Conic(0, 0, 0, tri.c2, tri.b2, tri.a2)
    for prefix, form in (("conic:", Conic), ("cubic:", Cubic)):
        if name.startswith(prefix):
            try:
                return form(*(Fraction(v) for v in name[len(prefix):].split(",")))
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator in {name!r}") from exc
    raise ValueError(
        f"unknown curve {name!r}; use circumcircle, conic:<6>, cubic:<10>")


def cmd_render(args) -> int:
    from . import render
    from .scenarios import build_figure

    try:
        config = render.RenderConfig(width=args.width, height=args.height,
                                     grid=args.grid, margin=args.margin,
                                     labels=not args.no_labels)
    except ValueError as exc:
        print(f"invalid render option: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tri = parse_triangle(args.triangle)
    except GeometryError as exc:
        print(f"invalid triangle: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        if args.scenario:
            figure = build_figure(args.scenario, tri)
        else:
            curve = _named_curve(args.curve, tri)
            figure = {"points": [], "curves": [(args.curve.split(":")[0], curve)],
                      "lines": []}
    except UnknownScenario as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (GeometryError, ValueError) as exc:
        print(f"cannot build figure: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        if args.svg:
            drew = render.render_svg(tri, figure, config, args.svg)
            if not drew:
                print("warning: no real locus in the viewport; "
                      "points-only figure emitted", file=sys.stderr)
        if args.csv:
            rows = render.sample_csv(tri, figure, config, args.csv)
            if rows == 0 and figure.get("curves"):
                print("warning: no real locus in the viewport; empty CSV",
                      file=sys.stderr)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_MUST_FAIL
    return EXIT_OK


class _Parser(argparse.ArgumentParser):  # subparsers share the class
    def error(self, message):  # not argparse's 2, the verdict-only failure code
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tricurves",
        description="Exact triangle-geometry engine: centers, conics, cubics, "
                    "and scenario verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification scenarios")
    p_verify.add_argument("scenario", help="scenario id or 'all'")
    p_verify.add_argument("--trials", type=int, default=None,
                          help=f"trials per scenario (default 100, or "
                               f"${DEFAULT_TRIALS_ENV})")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--json", metavar="PATH",
                          help="write NDJSON reports to PATH")
    p_verify.add_argument("--fail-fast", action="store_true",
                          help="stop after the first must-pass failure")
    p_verify.set_defaults(func=cmd_verify)

    p_center = sub.add_parser("center", help="evaluate a triangle center")
    p_center.add_argument("--triangle", required=True, metavar="a,b,c",
                          help="side lengths (integers or fractions p/q)")
    p_center.add_argument("--center", required=True,
                          help="center name, alias, or expression")
    p_center.add_argument("--format", choices=("plain", "json"),
                          default="plain")
    p_center.set_defaults(func=cmd_center)

    p_list = sub.add_parser("list-scenarios", help="list scenario registry")
    p_list.set_defaults(func=cmd_list_scenarios)

    p_render = sub.add_parser("render", help="emit an SVG or CSV figure")
    target = p_render.add_mutually_exclusive_group(required=True)
    target.add_argument("--scenario", help="scenario id to draw")
    target.add_argument("--curve",
                        help="circumcircle | conic:<6 coeffs> | cubic:<10>")
    p_render.add_argument("--triangle", required=True, metavar="a,b,c")
    p_render.add_argument("--svg", metavar="PATH")
    p_render.add_argument("--csv", metavar="PATH")
    p_render.add_argument("--width", type=int, default=640)
    p_render.add_argument("--height", type=int, default=640)
    p_render.add_argument("--grid", type=int, default=256)
    p_render.add_argument("--margin", type=float, default=0.25)
    p_render.add_argument("--no-labels", action="store_true")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "render" and not (args.svg or args.csv):
        parser.error("render needs --svg and/or --csv")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
