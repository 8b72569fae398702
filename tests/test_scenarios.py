import ast
import collections
import copy
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from tricurves import centers, cli, scenarios
from tricurves.scenarios import (
    CONSTRUCTIONS,
    MUST,
    REGISTRY,
    SKIP,
    Claim,
    Trial,
    UnknownScenario,
    VERDICT,
    _scenario,
    build_figure,
    list_scenarios,
    run_all,
    run_scenario,
    shared_run,
)
from tricurves.centers import (
    CenterId,
    TriangleKind,
    eval_center_in,
    random_triangle,
)
from tricurves.curves import NoLinearComponent
from tricurves.kernel import GeometryError, RefTriangle

from strategies import rational_triangles

EXPECTED_IDS = [
    "corr-excentral", "thm1-jerabek-excentral", "thm2-thomson-excentral",
    "thm3-darboux-excentral", "corr-medial", "thm4-yff-medial",
    "thm5-darboux-medial", "thm6-lucas-medial", "corr-euler",
    "thm7-darboux-euler", "corr-midarc", "thm8-jerabek-midarc",
    "cor1", "cor2", "cor3", "cor4", "cor5-euler-line-component",
    "defs-sanity",
]


class TestRegistry:
    def test_all_ids_present_in_order(self):
        assert [sid for sid, _, _ in list_scenarios()] == EXPECTED_IDS

    def test_count(self):
        assert len(list_scenarios()) >= 17

    def test_unique_claim_ids(self):
        for sc in REGISTRY.values():
            ids = [c.id for c in sc.claims]
            assert len(ids) == len(set(ids)), sc.id

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            run_scenario("nosuch", 1, 1)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_scenario("corr-medial", 0, 1)


class TestDeterminism:
    def test_identical_reports(self):
        r1 = run_scenario("thm1-jerabek-excentral", 4, 11).to_dict()
        r2 = run_scenario("thm1-jerabek-excentral", 4, 11).to_dict()
        r1.pop("elapsed_ms")
        r2.pop("elapsed_ms")
        assert r1 == r2

    def test_seed_changes_certificates(self):
        r1 = run_scenario("corr-excentral", 2, 1).to_dict()
        r2 = run_scenario("corr-excentral", 2, 99).to_dict()
        f1 = [c for c in r1["claims"] if c["status"] == "fail"][0]["failures"]
        f2 = [c for c in r2["claims"] if c["status"] == "fail"][0]["failures"]
        assert f1 != f2


class TestReports:
    def test_corr_medial_all_pass(self):
        r = run_scenario("corr-medial", 10, 42)
        assert all(c.status == "pass" for c in r.claims)

    def test_thm4_eccentricity_passes(self):
        r = run_scenario("thm4-yff-medial", 10, 42)
        by_id = {c.id: c for c in r.claims}
        assert by_id["eccentricity-squared-is-four"].status == "pass"
        assert by_id["base-eccentricity-squared-is-four"].status == "pass"

    def test_thm1_definitive_verdicts_with_certificates(self):
        r = run_scenario("thm1-jerabek-excentral", 1, 7)
        for c in r.claims:
            assert c.status in ("pass", "fail")
            if c.status == "fail":
                assert c.expectation == VERDICT
                assert len(c.failures) == 1
                cert = c.failures[0]
                assert set(cert) == {"triangle", "lhs", "rhs", "detail"}
                assert len(cert["triangle"]) == 3

    def test_known_verdict_failures(self):
        r = run_scenario("corr-excentral", 3, 42)
        by_id = {c.id: c for c in r.claims}
        assert by_id["isogonal-mittenpunkt-vs-excentral-centroid"].status == "fail"
        assert by_id["excentral-conjugate-of-mittenpunkt-vs-homothety-center"].status == "fail"
        assert by_id["spieker-vs-excentral-taylor-center"].status == "pass"
        # every must-pass row is green
        assert all(c.status == "pass" for c in r.claims if c.expectation == MUST)

    def test_json_round_trip(self):
        r = run_scenario("cor5-euler-line-component", 2, 5)
        blob = json.dumps(r.to_dict(), separators=(",", ":"))
        assert json.loads(blob) == r.to_dict()

    def test_report_schema(self):
        d = run_scenario("cor1", 2, 3).to_dict()
        assert set(d) == {"scenario", "description", "trials", "seed",
                          "skipped", "claims", "elapsed_ms"}
        for claim in d["claims"]:
            assert set(claim) == {"id", "kind", "expectation", "status",
                                  "failures"}

    def test_run_all_order(self):
        reports = run_all(1, 3)
        assert [r.scenario for r in reports] == EXPECTED_IDS

    @pytest.mark.parametrize("sid", ["cor1", "cor2", "cor3", "cor4"])
    def test_sideline_conjugate_triangle_skipped(self, sid):
        # triangle seed 17 puts a point to be conjugated on a sideline of
        # the excentral or midarc triangle; setup refuses it with OnSideline
        r = run_scenario(sid, 1, 17)
        assert r.skipped == 1
        assert all(c.status == "pass" for c in r.claims)


class TestMustPassSweep:
    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_must_pass_claims_hold(self, sid):
        r = run_scenario(sid, 4, 23)
        bad = [c.id for c in r.claims
               if c.expectation == MUST and c.status != "pass"]
        assert not bad
        assert not r.has_error


class TestFigures:
    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_figure_payload(self, sid):
        fig = build_figure(sid, RefTriangle(6, 9, 13))
        assert set(fig) == {"points", "curves", "lines"}
        assert fig["points"] or fig["curves"]

    def test_unknown(self):
        with pytest.raises(UnknownScenario):
            build_figure("nosuch", RefTriangle(6, 9, 13))


FIGURE_TRIANGLES = (RefTriangle(6, 9, 13),
                    *(random_triangle(s) for s in (1, 2, 3)))

# SHA-256 over every figure payload (or refusal) of a scenario on
# FIGURE_TRIANGLES: section order, labels and order, str(point),
# curve.serialize() and str(line)
FIGURE_SHA256 = {
    "corr-excentral":
        "dc975d6d89390e2f63f973c37d1151790a2948f37afe24a58f966b271b8751eb",
    "thm1-jerabek-excentral":
        "7c63561d6e8e746cf3117e571e584c0c04aea1e0613e04067c1a06f0b71ad5b3",
    "thm2-thomson-excentral":
        "43f30878869b11ab4111a5cb86f181d27f698055434719e794346e274c19afca",
    "thm3-darboux-excentral":
        "9dd8733c92eb397e4fe9f4d09fc732556cf9aea11948388c3f338d26d41400b0",
    "corr-medial":
        "c3e85577635a23b6eb47678a14a2cb40a7941cbd1b0fea011756b938e49782f1",
    "thm4-yff-medial":
        "82b67d7ce7dd2ac2212fc225057da172967a82a226e83ad599e9f8d2c905feee",
    "thm5-darboux-medial":
        "2c7a9e25f7156a1596ac9c6d94757fd29902c4b57ea2e1e2dbca47b8e83cc320",
    "thm6-lucas-medial":
        "1a068a98aa991c1d143b4cf0cac0903a68b6b235e7842be997e308bac4c3dfd1",
    "corr-euler":
        "d7b0c28f5da8c11c5a003da303a5bf62a9c887119bf2d3a9990a123a20e39fd0",
    "thm7-darboux-euler":
        "7f6c8b68995abf0dfcc08e1b862a1652f1647656f1b9a8e4b76ea3e961393f43",
    "corr-midarc":
        "f8dd2d2d0a92237924f21a096d4de98d93ecc982946093da89c045bbc11a1ea9",
    "thm8-jerabek-midarc":
        "4b77e8bc77c2c3eab22eefe52dbb2a247dec163094d9db671c686d943672d971",
    "cor1":
        "2c01de5a22c3bc1be295c69450c29c11b790f7751b306467e22db12e7f7c8865",
    "cor2":
        "2c01de5a22c3bc1be295c69450c29c11b790f7751b306467e22db12e7f7c8865",
    "cor3":
        "4d1903dc3643dbfc97df57210f55d0013e9eecceea5e974e20e3c0a9d4c7bb0a",
    "cor4":
        "4d1903dc3643dbfc97df57210f55d0013e9eecceea5e974e20e3c0a9d4c7bb0a",
    "cor5-euler-line-component":
        "4262c2ec0b6c7c99a01ad8969783315e13663492643e4c036d2e61b1f555bc31",
    "defs-sanity":
        "0993250bf13bb98673891d15c1d0e413c47e836db918718b4b354386fe0f4a2f",
}


def _figure_digest(sid: str) -> str:
    rows = []
    for t in FIGURE_TRIANGLES:
        try:
            fig = build_figure(sid, t)
        except GeometryError as exc:
            rows.append(["refused", type(exc).__name__, str(exc)])
            continue
        rows.append([
            list(fig),
            [(lbl, str(p)) for lbl, p in fig["points"]],
            [(lbl, c.serialize()) for lbl, c in fig["curves"]],
            [(lbl, str(line)) for lbl, line in fig["lines"]],
        ])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("sid", EXPECTED_IDS)
def test_figure_digest_pinned(sid):
    assert _figure_digest(sid) == FIGURE_SHA256[sid]


class TestBenchContract:
    """The benchmark tracer swaps registry entries for wrapped copies
    (``dataclasses.replace`` on ``setup`` and each claim's ``check``); the
    runner and ``build_figure`` must call through whatever entry is
    registered."""

    @pytest.mark.parametrize("sid", EXPECTED_IDS)
    def test_wrapped_entry_is_called(self, sid, monkeypatch):
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        sc = REGISTRY[sid]
        claims = tuple(dataclasses.replace(c, check=counting(c.id, c.check))
                       for c in sc.claims)
        monkeypatch.setitem(REGISTRY, sid, dataclasses.replace(
            sc, setup=counting("setup", sc.setup), claims=claims))
        run_scenario(sid, 1, 23)   # obtuse triangle
        run_scenario(sid, 1, 28)   # acute triangle, reaches acute-only claims
        build_figure(sid, RefTriangle(6, 9, 13))
        assert calls["setup"] >= 3
        assert all(calls[c.id] >= 1 for c in sc.claims), calls

    def test_traced_names_exist_and_are_distinct(self):
        """Every attribute ``bench/tracing.install`` wraps exists, is callable
        and is its own object: wrapping one name must not wrap another."""
        root = pathlib.Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "bench_tracing", root / "bench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        mods = types.SimpleNamespace(**{
            name: importlib.import_module(f"tricurves.{name}")
            for name in ("kernel", "linalg", "centers", "curves", "scenarios",
                         "render", "cli")})
        recorder = _TraceRecorder()
        tracing.install(recorder, mods)
        assert ("transform_conic" in recorder.names
                and "transform_cubic" in recorder.names)
        traced = []
        for owner, attr in recorder.targets:
            assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"
            fn = getattr(owner, attr)
            assert callable(fn), f"{owner.__name__}.{attr} is not callable"
            traced.append(fn)
        assert len({id(fn) for fn in traced}) == len(traced)


class _TraceRecorder:
    """Stands in for the benchmark tracer: records what ``install`` would
    wrap and changes nothing."""

    def __init__(self):
        self.targets = []   # (owner, attribute name)
        self.names = set()

    def wrap(self, name, fn, **hooks):
        return fn

    def rebind(self, module, attr, name, **hooks):
        self.targets.append((module, attr))
        self.names.add(attr)

    def set(self, owner, attr, value):
        self.targets.append((owner, attr))
        self.names.add(attr)

    def set_item(self, mapping, key, value):
        pass


def test_identical_pencil_cubics_reported_as_error(monkeypatch):
    """When cor5's two cubics coincide, the factorization claim is recorded
    as an error instead of aborting the run."""
    monkeypatch.setitem(CONSTRUCTIONS, "thm5_cubic", CONSTRUCTIONS["thm3_cubic"])
    report = run_scenario("cor5-euler-line-component", 1, 23)
    claims = {c.id: c for c in report.claims}
    factorization = claims["euler-line-factorization"]
    assert factorization.status == "error"
    assert "CoincidentArguments" in factorization.failures[0]["detail"]
    # the two claims that read the composition skip where it is missing
    assert claims["hessian-membership"].status == "pass"
    assert claims["euler-points-are-inflections"].status == "pass"


def test_missing_line_component_fails_factorization_only(monkeypatch):
    """Where the Euler line divides no pencil member, the factorization
    claim fails with a certificate and the other two cor5 claims skip."""
    def no_component(*args):
        raise NoLinearComponent("probe")

    monkeypatch.setattr(scenarios, "line_component", no_component)
    report = run_scenario("cor5-euler-line-component", 2, 23)
    claims = {c.id: c for c in report.claims}
    factorization = claims["euler-line-factorization"]
    assert factorization.status == "fail"
    assert [f["detail"] for f in factorization.failures] == ["probe", "probe"]
    assert claims["hessian-membership"].status == "pass"
    assert claims["euler-points-are-inflections"].status == "pass"


class TestCoreDoesNotImportRenderer:
    CORE = ("kernel", "linalg", "centers", "curves", "scenarios")

    def _trees(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "tricurves"
        for name in self.CORE:
            yield name, ast.parse((src / f"{name}.py").read_text())

    def test_no_render_imports(self):
        for name, tree in self._trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                else:
                    continue
                assert not any("render" in n for n in names), (name, names)

    def test_no_floats(self):
        """No floats outside render.py: no float literal, no float() call,
        and of ``math`` only gcd and lcm."""
        exact = {"gcd", "lcm"}
        for name, tree in self._trees():
            for node in ast.walk(tree):
                where = (name, getattr(node, "lineno", None))
                if isinstance(node, ast.Constant):
                    assert not isinstance(node.value, (float, complex)), where
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    assert node.func.id != "float", where
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.value, ast.Name) and node.value.id == "math":
                    assert node.attr in exact, where
                elif isinstance(node, ast.ImportFrom) and node.module == "math":
                    assert {a.name for a in node.names} <= exact, where

    def test_fraction_calls_confined(self):
        """The core holds its metric in integers: ``Fraction(...)`` is called
        in kernel.py only where it reads values back as Fractions, and
        nowhere in centers.py."""
        allowed = {"kernel": {"_fraction", "_read_back", "Metric.sides",
                              "squared_distance"}, "centers": set()}
        found = {name: set() for name in allowed}

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "Fraction":
                found[name].add(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        for name, tree in self._trees():
            if name in allowed:
                visit(tree, "")
                assert found[name] <= allowed[name], (name, found[name])
        assert found["kernel"] == allowed["kernel"]

    def test_no_assert_statements(self):
        """``python -O`` strips ``assert``, so no check in the package may
        be one: back-substitution and every certificate check must hold."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "tricurves"
        modules = sorted(src.glob("*.py"))
        assert len(modules) >= 8
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text())):
                assert not isinstance(node, ast.Assert), (path.name, node.lineno)


def test_failing_property_reports_its_example(tmp_path):
    """Under the project's warning filters a failing hypothesis test ends
    with its falsifying example, not an INTERNALERROR."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n")
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(config), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output


def _strip_elapsed(text: str) -> str:
    return re.sub(r',"elapsed_ms":\d+', "", text)


class TestSharedRun:
    """One ``shared_run`` per ``verify`` run: each seeded triangle is drawn
    once and each name resolved once per triangle, with the same reports."""

    @pytest.mark.parametrize("seed", [42, 17])   # seed 17 skips in cor1-4
    def test_verify_all_matches_separate_runs(self, monkeypatch, tmp_path,
                                              capsys, seed):
        separate = "".join(cli.report_json(run_scenario(sid, 3, seed)) + "\n"
                           for sid in REGISTRY)
        draws = collections.Counter()
        draw = scenarios.random_triangle

        def counting_draw(cursor):
            draws[cursor] += 1
            return draw(cursor)

        calls = []
        inner = cli.run_scenario

        def op(sid, trials, seed):   # the benchmark wraps it this way
            calls.append(sid)
            return inner(sid, trials, seed)

        monkeypatch.setattr(scenarios, "random_triangle", counting_draw)
        monkeypatch.setattr(cli, "run_scenario", op)
        path = tmp_path / "r.ndjson"
        assert cli.main(["verify", "all", "--trials", "3", "--seed", str(seed),
                         "--json", str(path)]) == 2
        assert calls == list(REGISTRY)
        assert _strip_elapsed(path.read_text()) == _strip_elapsed(separate)
        assert set(draws.values()) == {1}, draws

    def test_name_resolved_once_per_triangle(self, monkeypatch):
        # "oi" is built by the setups of thm1, thm8 and cor1-4
        calls = collections.Counter()
        build = CONSTRUCTIONS["oi"]

        def counting(tr):
            calls[tr.t.a, tr.t.b, tr.t.c] += 1
            return build(tr)

        monkeypatch.setitem(CONSTRUCTIONS, "oi", counting)
        run_all(2, 42)
        assert sorted(calls.values()) == [1, 1]

    def test_raising_name_resolved_again(self, monkeypatch):
        calls = []

        def probe(tr):
            calls.append(tr.t)
            raise NoLinearComponent("probe")

        monkeypatch.setitem(CONSTRUCTIONS, "probe", probe)
        claim = Claim("reads-probe", "probe", MUST, lambda tr: tr["probe"])
        ids = ("probe-1", "probe-2")
        for sid in ids:
            monkeypatch.setitem(REGISTRY, sid,
                                _scenario(sid, "", build=("I",), claims=[claim]))
        with shared_run():
            reports = [run_scenario(sid, 1, 23) for sid in ids]
        assert len(calls) == 2
        for r in reports:
            assert r.claims[0].status == "error"
            assert "NoLinearComponent: probe" in r.claims[0].failures[0]["detail"]

    def test_run_context_dropped(self, monkeypatch, capsys):
        assert scenarios._RUN.get() is None
        run_all(1, 3)
        assert scenarios._RUN.get() is None

        def broken(t, store=None):
            raise ZeroDivisionError("setup")

        sid = "corr-medial"
        monkeypatch.setitem(REGISTRY, sid,
                            dataclasses.replace(REGISTRY[sid], setup=broken))
        with pytest.raises(ZeroDivisionError):
            run_all(1, 3)
        assert scenarios._RUN.get() is None
        assert cli.main(["verify", "all", "--trials", "1", "--seed", "3"]) == 1
        out, err = capsys.readouterr()
        assert err.splitlines() == ["stopped: corr-medial: ZeroDivisionError: setup"]
        # the scenarios before it still report
        assert [json.loads(line)["scenario"] for line in out.splitlines()] == \
            EXPECTED_IDS[:4]
        assert scenarios._RUN.get() is None

    def test_memo_keyed_by_cursor(self, monkeypatch):
        # every cursor draws the same triangle; each still gets its own Trial
        monkeypatch.setattr(scenarios, "random_triangle",
                            lambda cursor: RefTriangle(3, 4, 5))
        with shared_run() as run:
            first = run[7]
            assert run[7] is first
            assert run[8] is not first
            assert list(run) == [7, 8]
            assert isinstance(first, Trial) and first.t.sides == (3, 4, 5)

    def test_first_scenario_fills_the_run(self, monkeypatch):
        draws = []
        draw = scenarios.random_triangle

        def counting_draw(cursor):
            draws.append(cursor)
            return draw(cursor)

        seen = collections.defaultdict(list)   # scenario -> Trials set up
        for sid in ("corr-medial", "corr-excentral"):
            sc = REGISTRY[sid]

            def recording(tr, sid=sid, setup=sc.setup):
                seen[sid].append(tr)
                return setup(tr)

            monkeypatch.setitem(REGISTRY, sid,
                                dataclasses.replace(sc, setup=recording))
        monkeypatch.setattr(scenarios, "random_triangle", counting_draw)
        with shared_run() as run:
            run_scenario("corr-medial", 2, 42)
            # an empty Run is falsy: the first call must still fill this one
            assert sorted(run) == sorted(draws) == [42, 43]
            trials = dict(run)
            run_scenario("corr-excentral", 2, 42)
        assert draws == [42, 43]
        assert [id(tr) for tr in seen["corr-medial"]] == \
            [id(trials[42]), id(trials[43])]
        assert [id(tr) for tr in seen["corr-excentral"]] == \
            [id(trials[42]), id(trials[43])]

    def test_kind_resolved_once_whichever_name_asks(self, monkeypatch):
        calls = []
        derive = centers.derived_triangle

        def counting(t, kind):
            calls.append(kind)
            return derive(t, kind)

        monkeypatch.setattr(centers, "derived_triangle", counting)
        monkeypatch.setattr(scenarios, "derived_triangle", counting)
        tr = Trial(RefTriangle(6, 9, 13))
        o = tr["center(excentral,X3)"]
        exc = tr["excentral"]
        assert calls == [TriangleKind.EXCENTRAL]
        assert tr[TriangleKind.EXCENTRAL] is exc
        assert len(tr) == 2
        assert o == eval_center_in(exc, CenterId.X3)

    def test_non_geometry_claim_error_recorded(self, monkeypatch):
        def broken(tr):
            raise ZeroDivisionError("probe")

        # read only by a claim of thm1, after setup built "exc_conic"
        monkeypatch.setitem(CONSTRUCTIONS, "exc_conic_center", broken)
        t = random_triangle(23)
        with shared_run() as run:
            reports = [run_scenario(sid, 1, 23) for sid in REGISTRY]
        assert [r.scenario for r in reports] == EXPECTED_IDS
        claims = {c.id: c for c in reports[1].claims}
        assert claims["center-at-circumcenter"].status == "error"
        assert (claims["center-at-circumcenter"].failures[0]["detail"]
                == "error: ZeroDivisionError: probe")
        assert claims["fit-consistency"].status == "pass"
        assert all(r.must_pass_ok and not r.has_error for r in reports[2:])
        assert run[23].t.sides == t.sides
        assert "exc_conic" in run[23]
        assert "exc_conic_center" not in run[23]


# Patches one scenario's setup to refuse every triangle, then runs the CLI
# with the remaining arguments.  Without a skip bound it never returns.
_ALWAYS_DEGENERATE = """
import dataclasses, sys
from tricurves import cli, scenarios
from tricurves.curves import DegeneratePointSet

def degenerate(t, store=None):
    raise DegeneratePointSet(0, (), 5)

sid = "corr-medial"
scenarios.REGISTRY[sid] = dataclasses.replace(scenarios.REGISTRY[sid],
                                              setup=degenerate)
if sys.argv[1] == "run":
    try:
        scenarios.run_scenario(sid, 3, 1)
    except scenarios.TooManySkips as exc:
        print(exc)
else:
    sys.exit(cli.main(sys.argv[1:]))
"""


def _always_degenerate(*args):
    src = pathlib.Path(scenarios.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", _ALWAYS_DEGENERATE, *args],
                          capture_output=True, text=True, env=env, timeout=60)


class TestSkipBound:
    def test_run_scenario_stops(self):
        proc = _always_degenerate("run")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            "corr-medial: setup refused 300 seeded triangles for 3 trial(s)")

    def test_verify_exits_one_with_a_message(self, tmp_path):
        path = tmp_path / "r.ndjson"
        proc = _always_degenerate("verify", "all", "--trials", "2", "--seed",
                                  "1", "--json", str(path))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "stopped: corr-medial: setup refused 200 seeded triangles for "
            "2 trial(s)"]
        # the scenarios before it still report
        reports = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["scenario"] for r in reports] == EXPECTED_IDS[:4]


def _outcomes(t: RefTriangle, shared) -> list:
    """Every scenario's setup and claims on ``t``, as ``run_scenario``
    evaluates them, on the ``shared`` Trial or, where it is None, a fresh
    one per scenario: each claim's outcome, or the refusal's type name."""
    out = []
    for sc in REGISTRY.values():
        try:
            tr = sc.setup(Trial(t) if shared is None else shared)
        except GeometryError as exc:
            out.append((sc.id, "setup", type(exc).__name__))
            continue
        for claim in sc.claims:
            if claim.acute_only and not t.is_acute():
                continue
            try:
                res = claim.check(tr)
            except GeometryError as exc:
                res = type(exc).__name__
            out.append((sc.id, claim.id, "skip" if res is SKIP else res))
    return out


@settings(max_examples=30, deadline=None)
@given(rational_triangles())
@example(RefTriangle(3, 4, 5))
@example(RefTriangle(5, 5, 6))
@example(RefTriangle(5, 5, 5))
@example(RefTriangle(Fraction(3, 2), 2, Fraction(5, 2)))
def test_rational_triangles_raise_only_geometry_errors(t):
    """On right, isosceles and equilateral triangles too (``random_triangle``
    draws none), setups and claims return or raise a ``GeometryError``, and
    one Trial shared by all scenarios gives what a fresh one each does."""
    assert _outcomes(t, Trial(t)) == _outcomes(t, None)


def _bench_pairs():
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", root / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsSeeds:
    """``tools/bench_pairs.py --seeds`` takes only ranges it can summarise."""

    def test_range_is_inclusive(self):
        assert _bench_pairs().seed_range("1-10") == list(range(1, 11))
        assert _bench_pairs().seed_range("4-5") == [4, 5]

    @pytest.mark.parametrize("seeds", ["10-1", "5", "5-5"])
    def test_unusable_range_exits_two(self, seeds, capsys):
        with pytest.raises(SystemExit) as exc:
            _bench_pairs().main(["--seeds", seeds])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err
