import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tricurves import cli, render
from tricurves.cli import _named_curve, _rational, main, parse_triangle
from tricurves.kernel import InvalidTriangle, RefTriangle
from tricurves.scenarios import build_figure


def _run_cli(*args):
    """``tricurves`` in a child process, so a run that hangs fails at the
    timeout instead of stalling the suite."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "tricurves.cli", *args],
                          capture_output=True, text=True, env=env, timeout=30)


class TestCenterCommand:
    def test_incenter_plain(self, capsys):
        assert main(["center", "--triangle", "3,4,5", "--center", "I"]) == 0
        assert capsys.readouterr().out.strip() == "3:4:5"

    def test_circumcenter(self, capsys):
        assert main(["center", "--triangle", "6,9,13", "--center", "O"]) == 0
        assert capsys.readouterr().out.strip() == "1926:2511:-2197"

    def test_composite_json(self, capsys):
        assert main(["center", "--triangle", "6,9,13", "--center", "M_IH",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["triangle"] == ["6", "9", "13"]
        assert len(payload["barycentric"]) == 3

    def test_fractional_sides(self, capsys):
        assert main(["center", "--triangle", "3/2,2,5/2", "--center", "I"]) == 0
        assert capsys.readouterr().out.strip() == "3:4:5"

    def test_invalid_triangle(self, capsys):
        assert main(["center", "--triangle", "1,2,5", "--center", "I"]) == 65

    def test_unknown_center(self, capsys):
        assert main(["center", "--triangle", "3,4,5", "--center", "Zed"]) == 64

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: X54 conjugates X5 unchecked, so a partner on a "
        "sideline gives the vertex 1:0:0 and exit 0"))
    def test_kosnita_with_partner_on_sideline_refused(self, capsys):
        # X5 lies on a sideline here, as `--center 'isogonal(X5)'` reports
        assert main(["center", "--triangle", "28/5,12,16", "--center", "K"]) == 65

    @pytest.mark.parametrize("expr", ["vertex(base,7)", "vertex(base,x)",
                                      "vertex(base,-1)", "antipode(base,3)"])
    def test_bad_vertex_index(self, capsys, expr):
        assert main(["center", "--triangle", "6,9,13", "--center", expr]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "index" in captured.err

    def test_vertex_index_in_range(self, capsys):
        assert main(["center", "--triangle", "6,9,13",
                     "--center", "vertex(base,2)"]) == 0
        assert capsys.readouterr().out.strip() == "0:0:1"

    def test_deep_nesting_refused(self, capsys):
        expr = "complement(" * 1500 + "O" + ")" * 1500
        assert main(["center", "--triangle", "6,9,13", "--center", expr]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nests deeper" in captured.err

    def test_parse_triangle_rejects_garbage(self):
        with pytest.raises(InvalidTriangle):
            parse_triangle("3,4")
        with pytest.raises(InvalidTriangle):
            parse_triangle("a,b,c")


class TestVerifyCommand:
    def test_unknown_scenario_exit(self, capsys):
        assert main(["verify", "nosuch"]) == 64

    def test_clean_scenario_exit_zero(self, capsys):
        assert main(["verify", "corr-medial", "--trials", "3", "--seed", "1"]) == 0
        line = capsys.readouterr().out.strip()
        report = json.loads(line)
        assert report["scenario"] == "corr-medial"
        assert all(c["status"] == "pass" for c in report["claims"])

    def test_verdict_failures_exit_two(self, capsys):
        assert main(["verify", "corr-excentral", "--trials", "2",
                     "--seed", "1"]) == 2

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "r.ndjson"
        code = main(["verify", "thm4-yff-medial", "--trials", "2",
                     "--seed", "3", "--json", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        # round trip: parse and re-serialize is the identity
        assert json.dumps(parsed, separators=(",", ":")) == lines[0]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one(self, capsys, trials):
        assert main(["verify", "corr-medial", "--trials", trials]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials" in captured.err

    def test_env_default_trials(self, capsys, monkeypatch):
        monkeypatch.setenv("TCL_DEFAULT_TRIALS", "2")
        assert main(["verify", "corr-medial", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 2

    def test_env_default_trials_invalid(self, monkeypatch):
        monkeypatch.setenv("TCL_DEFAULT_TRIALS", "zap")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "corr-medial", "--seed", "1"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_env_default_trials_below_one(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("TCL_DEFAULT_TRIALS", raw)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "corr-medial", "--seed", "1"])
        assert exc.value.code == 64
        assert "TCL_DEFAULT_TRIALS must be positive" in capsys.readouterr().err

    def test_json_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.ndjson"
        assert main(["verify", "corr-medial", "--trials", "1",
                     "--json", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("io error: ")
        assert "Traceback" not in captured.err
        assert not path.exists()

    def test_json_bad_path_fails_before_any_scenario(self, tmp_path, capsys,
                                                     monkeypatch):
        import tricurves.cli as cli

        real, calls = cli.run_scenario, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "run_scenario", counted)
        path = tmp_path / "missing" / "x.ndjson"
        assert main(["verify", "all", "--trials", "100",
                     "--json", str(path)]) == 1
        assert capsys.readouterr().err.startswith("io error: ")
        assert calls == []


class TestUsageErrors:
    """argparse's own exit code, 2, is verify's verdict-only failure code."""

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--trials", "abc"],
        ["verify", "corr-medial", "--bogus"],
        [],
        ["frobnicate"],
        ["render", "--curve", "circumcircle", "--triangle", "3,4,5"],
        ["center", "--triangle", "3,4,5", "--center", "I", "--format", "xml"],
        ["center", "--triangle", "3,4,5"],
    ])
    def test_usage_error_exits_64(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("argv", [["-h"], ["verify", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestListScenarios:
    def test_listing(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "thm1-jerabek-excentral" in out
        assert "cor5-euler-line-component" in out
        assert len(out.strip().splitlines()) >= 17


class TestRenderCommand:
    def test_scenario_svg(self, tmp_path, capsys):
        path = tmp_path / "fig.svg"
        assert main(["render", "--scenario", "thm1-jerabek-excentral",
                     "--triangle", "6,9,13", "--svg", str(path),
                     "--grid", "64"]) == 0
        svg = path.read_text()
        assert svg.startswith("<svg")
        # labeled markers for the five fit points plus Mi and L
        for label in ("I1", "I2", "I3", "Be", "Mi", "L"):
            assert f">{label}</text>" in svg

    def test_curve_csv(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        assert main(["render", "--curve", "circumcircle",
                     "--triangle", "3,4,6", "--csv", str(path),
                     "--grid", "64"]) == 0
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "curve,x,y"
        assert len(rows) > 10

    @pytest.mark.parametrize("curve", [
        "conic:1" + "0" * 400 + ",1,1,0,0,0",
        "conic:1" + "0" * 400 + ",-1" + "0" * 400 + ",0,0,0,3",
        "cubic:1" + "0" * 400 + ",0,0,0,0,0,-1" + "0" * 400 + ",0,0,1",
    ])
    def test_huge_coefficients(self, tmp_path, capsys, curve):
        path = tmp_path / "pts.csv"
        assert main(["render", "--curve", curve, "--triangle", "6,9,13",
                     "--csv", str(path), "--grid", "32"]) == 0
        assert path.read_text().startswith("curve,x,y\n")

    def test_huge_coefficients_scale_exactly(self, tmp_path, capsys):
        # 2^1100 x^2 - (2^1100 + 1) y^2 overflows a float; its coefficients
        # round to those of x^2 - y^2 times a power of two, so both trace
        # the same locus
        rows = []
        for curve in ("conic:1,-1,0,0,0,0",
                      f"conic:{2 ** 1100},{-(2 ** 1100 + 1)},0,0,0,0"):
            path = tmp_path / "pts.csv"
            assert main(["render", "--curve", curve, "--triangle", "6,9,13",
                         "--csv", str(path), "--grid", "32"]) == 0
            rows.append(path.read_text())
        assert rows[0] == rows[1]
        assert len(rows[0].splitlines()) > 10

    def test_svg_and_csv_share_one_trace(self, tmp_path, monkeypatch):
        calls = []
        trace = render.trace_segments
        monkeypatch.setattr(render, "trace_segments",
                            lambda *args: calls.append(args) or trace(*args))
        svg, csv = tmp_path / "fig.svg", tmp_path / "pts.csv"
        assert main(["render", "--scenario", "defs-sanity", "--triangle", "6,9,13",
                     "--svg", str(svg), "--csv", str(csv), "--grid", "64"]) == 0
        t = RefTriangle(6, 9, 13)
        figure = build_figure("defs-sanity", t)
        # each curve once for both files, not once per file
        assert len(calls) == len(figure["curves"]) + len(figure["lines"]) == 3
        config = render.RenderConfig(grid=64)
        render.write_svg(render.trace_figure(t, figure, config), str(tmp_path / "alone.svg"))
        render.sample_csv(t, figure, config, str(tmp_path / "alone.csv"))
        assert svg.read_bytes() == (tmp_path / "alone.svg").read_bytes()
        assert csv.read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_requires_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["render", "--curve", "circumcircle", "--triangle", "3,4,6"])

    @pytest.mark.parametrize("curve", [
        "ellipse", "conic:1,2", "conic:abc,1,1,0,0,0", "conic:0,0,0,0,0,0",
        "conic:1/0,1,1,0,0,0",   # ended in a ZeroDivisionError traceback
        "cubic:1,0,0,0,0,0,0,0,0,2/0",
    ])
    def test_bad_curve(self, tmp_path, capsys, curve):
        path = tmp_path / "pts.csv"
        assert main(["render", "--curve", curve, "--triangle", "6,9,13",
                     "--csv", str(path)]) == 65
        assert capsys.readouterr().err.startswith("cannot build figure: ")
        assert not path.exists()

    def test_unknown_scenario(self, tmp_path, capsys):
        assert main(["render", "--scenario", "nosuch", "--triangle", "3,4,6",
                     "--svg", str(tmp_path / "x.svg")]) == 64

    def test_invalid_triangle(self, tmp_path, capsys):
        assert main(["render", "--curve", "circumcircle", "--triangle",
                     "1,2,9", "--svg", str(tmp_path / "x.svg")]) == 65

    @pytest.mark.parametrize("side", ["1" + "0" * 200, "1/1" + "0" * 200],
                             ids=["1e200", "1e-200"])
    @pytest.mark.parametrize("target", ["--svg", "--csv"])
    def test_triangle_outside_float_range(self, tmp_path, capsys, side, target):
        # ended in an OverflowError (10^200) or ZeroDivisionError (10^-200)
        path = tmp_path / "out"
        assert main(["render", "--curve", "circumcircle", "--triangle",
                     ",".join([side] * 3), target, str(path)]) == 65
        assert capsys.readouterr().err.startswith("cannot render: RefTriangle(")
        assert not path.exists()

    @pytest.mark.parametrize("sid", ["thm1-jerabek-excentral",
                                     "thm8-jerabek-midarc"])
    def test_points_beyond_float_range(self, tmp_path, capsys, sid):
        # center coordinates near 10^400 raised OverflowError (thm1) or,
        # where they still convert, gave a nan viewport and no locus (thm8)
        s = 10**101
        svg, csv = tmp_path / "fig.svg", tmp_path / "pts.csv"
        assert main(["render", "--scenario", sid, "--triangle",
                     f"{s},{s + 1},{s + 3}", "--svg", str(svg),
                     "--csv", str(csv), "--grid", "32"]) == 0
        assert "<circle" in svg.read_text()
        assert len(csv.read_text().splitlines()) > 100
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("option", [
        ["--grid", "15"], ["--width", "63"], ["--height", "10"],
        ["--margin", "nan"], ["--margin", "inf"], ["--margin=-inf"],
        # -5 drew a mirrored viewport and -0.6 an empty CSV, both exit 0
        ["--margin=-5"], ["--margin=-0.6"],
        ["--grid", "4097"], ["--grid", "100000"],  # once accepted, then allocated
    ])
    def test_bad_render_option(self, tmp_path, capsys, option):
        path = tmp_path / "pts.csv"
        assert main(["render", "--curve", "circumcircle", "--triangle", "3,4,6",
                     "--csv", str(path), *option]) == 64
        assert "invalid render option" in capsys.readouterr().err
        assert not path.exists()


class TestNumberParsing:
    """``Fraction`` builds 10**exp for any exponent, so each command below
    ran for minutes before the exponent check."""

    @pytest.mark.parametrize("sides", ["1e10000000,1e10000000,15e9999999",
                                       "1e1_0000000,1e1_0000000,15e9_999999"],
                             ids=["plain", "underscores"])
    def test_center_refuses_huge_exponent(self, sides):
        proc = _run_cli("center", "--triangle", sides, "--center", "X3")
        assert proc.returncode == 65
        assert proc.stderr.startswith("invalid triangle: ")
        assert "exponent beyond 4300" in proc.stderr

    def test_render_refuses_huge_exponent(self, tmp_path):
        path = tmp_path / "fig.svg"
        proc = _run_cli("render", "--curve", "conic:1e99999999,1,1,0,0,0",
                        "--triangle", "6,9,13", "--svg", str(path))
        assert proc.returncode == 65
        assert proc.stderr.startswith("cannot build figure: ")
        assert not path.exists()

    @pytest.mark.parametrize("text", ["1e4300", "-2.5E-4300", "1e+4_300",
                                      " 7e0004300 "])
    def test_exponent_limit_is_inclusive(self, text):
        assert _rational(text) == Fraction(text)

    @pytest.mark.parametrize("text", ["1e4301", "1E-4301", "1e4_301",
                                      "1e" + "0" * 5000 + "1"])
    def test_exponent_beyond_limit_refused(self, text):
        with pytest.raises(ValueError):
            _rational(text)

    @pytest.mark.parametrize("argv", [
        # the triangle-inequality message printed a side of 4301 digits
        ["center", "--triangle", "1e4300,1,1", "--center", "X3"],
        ["render", "--triangle", "1e4300,1,1", "--curve", "circumcircle"],
        # the answer's coordinates were too long to print
        ["center", "--triangle", "1e4300,1e4300,1e-4300", "--center", "X3"],
        ["center", "--triangle", "1e4300,1e4300,1e4300", "--center", "X3",
         "--format", "json"],
    ])
    def test_int_too_long_to_print_exits_65(self, tmp_path, capsys, argv):
        # these ended in a ValueError traceback
        path = tmp_path / "fig.svg"
        target = ["--svg", str(path)] if argv[0] == "render" else []
        assert main(argv + target) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4300 digits" in captured.err
        assert not path.exists()


# integers, decimals, p/q, signed exponents of up to 9 digits, and PEP 515
# underscores, valid or not
_NUMBER = st.from_regex(
    r"\A[-+]?(\d(_?\d){0,3}|\d{0,3}\.\d{0,3}|\d{1,3}/[-+]?\d{1,3}(_\d)?)"
    r"([eE][-+]?\d(_?\d){0,8})?_?\Z")


class TestNumberParsingProperties:
    """Every number text returns or is refused with ``InvalidTriangle`` or
    ``ValueError``, within hypothesis's default deadline."""

    @given(st.lists(_NUMBER, min_size=3, max_size=3))
    def test_parse_triangle(self, sides):
        try:
            parse_triangle(",".join(sides))
        except InvalidTriangle:
            pass

    # up to three drawn coefficients, the rest 1: drawing all ten is slow
    @given(st.sampled_from([("conic:", 6), ("cubic:", 10)]),
           st.lists(_NUMBER, min_size=1, max_size=3))
    def test_named_curve(self, form, coeffs):
        prefix, n = form
        try:
            _named_curve(prefix + ",".join(coeffs + ["1"] * (n - len(coeffs))),
                         parse_triangle("6,9,13"))
        except ValueError:
            pass
