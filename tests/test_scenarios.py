import ast
import collections
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import random
import re
import shutil
import signal
import subprocess
import sys
import time
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
    Failure,
    Trial,
    UnknownScenario,
    VERDICT,
    _scenario,
    build_figure,
    evaluate,
    list_scenarios,
    run_all,
    run_scenario,
    shared_run,
)
from tricurves.centers import (
    CATALOG,
    CenterId,
    TriangleKind,
    eval_center_in,
    random_triangle,
)
from tricurves.curves import (
    DegeneratePointSet,
    NoLinearComponent,
    conic_through,
    cubic_through,
    isogonal_image,
    pivotal_cubic,
    pivotal_membership,
)
from tricurves.kernel import (
    GeometryError,
    HomPoint,
    Metric,
    RefTriangle,
)

from reference import RETIRED_FITS
from strategies import rational_triangles

EXPECTED_IDS = [
    "corr-excentral", "thm1-jerabek-excentral", "thm2-thomson-excentral",
    "thm3-darboux-excentral", "corr-medial", "thm4-yff-medial",
    "thm5-darboux-medial", "thm6-lucas-medial", "corr-euler",
    "thm7-darboux-euler", "corr-midarc", "thm8-jerabek-midarc",
    "cor1", "cor2", "cor3", "cor4", "cor5-euler-line-component",
    "defs-sanity",
]

# each reference cubic as pK: its triangle, conjugation and catalog pivot
PIVOTAL = {
    "thomson": ("base", "isogonal", CenterId.X2),
    "darboux": ("base", "isogonal", CenterId.X20),
    "lucas": ("base", "isotomic", CenterId.X69),
    "thomson_orthic": ("orthic", "isogonal", CenterId.X2),
    "darboux_orthic": ("orthic", "isogonal", CenterId.X20),
}


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

    def test_to_dict_key_order_and_fresh_containers(self):
        """``to_dict`` keeps the key order of the ``dataclasses.asdict`` form
        it replaced, at every level, and hands out containers of its own."""
        reports = run_all(5, 42)
        certificates = 0
        for r in reports:
            before = json.dumps(r.to_dict())
            d = r.to_dict()
            assert list(d) == ["scenario", "description", "trials", "seed",
                               "skipped", "claims", "elapsed_ms"]
            for claim in d["claims"]:
                assert list(claim) == ["id", "kind", "expectation", "status",
                                       "failures"]
                for cert in claim["failures"]:
                    assert list(cert) == ["triangle", "lhs", "rhs", "detail"]
                    certificates += 1
                    cert["triangle"].append("0")
                    cert["lhs"] = "mutated"
                claim["failures"].append({})
                claim["status"] = "mutated"
            d["claims"].append({})
            d["scenario"] = "mutated"
            assert json.dumps(r.to_dict()) == before
            assert r.scenario != "mutated"
            assert all(c.status != "mutated" for c in r.claims)
        assert certificates > 0  # the five verdict-only claims fail here

    def test_certificate_triangle_read_once_per_trial(self, monkeypatch):
        """A failing triangle's sides are read once, however many of its
        claims fail there, and each certificate still shows them as text."""
        reads = []
        sides = Metric.sides
        monkeypatch.setattr(Metric, "sides",
                            property(lambda m: reads.append(m) or sides.fget(m)))
        r = run_scenario("thm1-jerabek-excentral", 4, 42)
        monkeypatch.undo()
        certificates = [f for c in r.to_dict()["claims"] for f in c["failures"]]
        shown = [[str(t.a), str(t.b), str(t.c)] for t in reads]
        # two verdict-only claims of thm1 fail on every trial
        assert len(reads) == 4 and len(certificates) >= 2 * len(reads)
        assert all(f["triangle"] in shown for f in certificates)
        assert all(any(f["triangle"] == s for f in certificates) for s in shown)

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
        run_scenario(sid, 1, 28)   # acute triangle
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

    def test_benchmark_entry_points_exist(self):
        """Every attribute ``bench/workloads.py`` and ``bench/run.py`` read on
        a package module exists, and so do the SubTriangle fields and method
        the center-queries workload reads on a derived triangle."""
        root = pathlib.Path(__file__).resolve().parents[1]
        reads = set()
        for name in ("workloads.py", "run.py"):
            reads |= _module_reads(ast.parse((root / "bench" / name).read_text()))
        assert {("centers", "derived_triangle"), ("centers", "isogonal_in"),
                ("centers", "eval_center"), ("centers", "isogonal"),
                ("kernel", "local_coords")} <= reads
        for module, attr in sorted(reads):
            assert hasattr(importlib.import_module(f"tricurves.{module}"), attr), \
                f"tricurves.{module}.{attr} is gone"
        attrs = set(vars(centers.SubTriangle))
        assert {"v1", "v2", "v3"} <= attrs
        assert callable(centers.SubTriangle.metric)


BENCH_MODULES = ("kernel", "linalg", "centers", "curves", "scenarios", "render", "cli")


def _module_reads(tree: ast.AST) -> set:
    """(module, attribute) for each attribute read on a package module: on
    ``mods.<module>``, ``self.mods.<module>`` or a name bound to either."""
    def module_of(node):
        owner = getattr(node, "value", None)
        if (isinstance(node, ast.Attribute) and node.attr in BENCH_MODULES
                and (isinstance(owner, ast.Name) and owner.id == "mods"
                     or isinstance(owner, ast.Attribute) and owner.attr == "mods")):
            return node.attr
        return None

    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple)
                         else zip(target.elts, getattr(node.value, "elts", ())))
                for name, value in pairs:
                    if isinstance(name, ast.Name) and module_of(value):
                        bound[name.id] = module_of(value)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            module = module_of(owner) or (
                bound.get(owner.id) if isinstance(owner, ast.Name) else None)
            if module:
                reads.add((module, node.attr))
    return reads


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

    def test_no_benchmark_alias_calls(self):
        """No module of the package calls an alias kept only for the
        benchmark, so removing them there leaves a pure deletion."""
        aliases = {"isogonal", "isogonal_in", "local_coords", "transform_point",
                   "det_int", "rank_profile_int", "rank_rational"}
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "tricurves"
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    assert called not in aliases, (path.name, node.lineno, called)

    def test_dataclasses_only_where_replaced(self):
        """Only ``Claim`` and ``Scenario`` are dataclasses: tests and the
        benchmark's tracer rebuild them with ``dataclasses.replace``.  Every
        other record is a ``NamedTuple`` or a class with its own ``__init__``,
        which costs far less to define at import and to build at run time."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "tricurves"
        decorated = set()
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    for dec in node.decorator_list:
                        target = dec.func if isinstance(dec, ast.Call) else dec
                        if getattr(target, "id", getattr(target, "attr", None)) \
                                == "dataclass":
                            decorated.add((path.name, node.name))
        assert decorated == {("scenarios.py", "Claim"), ("scenarios.py", "Scenario")}

    def test_one_immutability_guard(self):
        """Only ``kernel._Frozen`` refuses assignment and deletion; every
        other value subclasses it and sets its slots through their own
        setters, so no ``object.__setattr__`` call gets past the guard."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "tricurves"
        guards, bypasses = set(), []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    guards |= {(path.name, node.name, f.name) for f in node.body
                               if isinstance(f, ast.FunctionDef)
                               and f.name in ("__setattr__", "__delattr__")}
                elif isinstance(node, ast.Attribute) and node.attr == "__setattr__" \
                        and getattr(node.value, "id", None) == "object":
                    bypasses.append((path.name, node.lineno))
        assert guards == {("kernel.py", "_Frozen", "__setattr__"),
                          ("kernel.py", "_Frozen", "__delattr__")}
        assert bypasses == []

    def test_frozen_values_have_no_instance_dict(self):
        """Every value class of the package under ``kernel._Frozen`` is
        slotted all the way down: with a ``__dict__``, ``vars(v)[name] = x``
        would get past the guard.  Classes defined elsewhere (the tests'
        local subclasses) are not walked."""
        from tricurves import kernel

        walked, loose, stack = set(), set(), [kernel._Frozen]
        while stack:
            cls = stack.pop()
            stack += cls.__subclasses__()
            if cls.__module__.partition(".")[0] != "tricurves":
                continue
            walked.add(cls.__name__)
            loose |= {(cls.__name__, name) for name in ("__dict__", "__weakref__")
                      if any(name in vars(k) for k in cls.__mro__[:-1])}
        assert loose == set()
        assert {"HomPoint", "HomLine", "Conic", "Cubic", "Metric", "RefTriangle",
                "SubTriangle"} <= walked

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

    def test_centers_builds_no_metric(self):
        """A derived triangle's view is built in integers, from its parent's
        view by one row of ``centers._KINDS`` (a rescaling or a closed form
        through ``kernel._squares_view``): centers.py never calls
        ``Metric(...)``."""
        tree = dict(self._trees())["centers"]
        calls = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "Metric"]
        assert calls == []

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
        # "oi" is built by the setups of thm1 and thm8
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
    """Every scenario's :func:`evaluate` on ``t``, on the ``shared`` Trial
    or, where it is None, a fresh one per scenario: each claim's outcome,
    or the refusal's type name; an error that is no ``GeometryError`` is
    raised again."""
    out = []
    for sc in REGISTRY.values():
        try:
            outcomes = evaluate(sc, Trial(t) if shared is None else shared)
        except GeometryError as exc:
            out.append((sc.id, "setup", type(exc).__name__))
            continue
        for claim, res in zip(sc.claims, outcomes):
            if isinstance(res, Exception):
                if not isinstance(res, GeometryError):
                    raise res
                res = type(res).__name__
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


# setup refusals of every scenario on the 372 integer triangles with sides
# up to 15, by exception type: 1,234 in all
INTEGER_SWEEP_REFUSALS = {
    ("cor1", "DegeneratePointSet"): 15, ("cor1", "OnSideline"): 19,
    ("cor2", "DegeneratePointSet"): 15, ("cor2", "OnSideline"): 19,
    ("cor3", "DegeneratePointSet"): 15, ("cor3", "OnSideline"): 19,
    ("cor4", "DegeneratePointSet"): 15, ("cor4", "OnSideline"): 19,
    ("cor5-euler-line-component", "DegeneratePointSet"): 169,
    ("cor5-euler-line-component", "RightTriangle"): 4,
    ("defs-sanity", "CoincidentArguments"): 15,
    ("thm1-jerabek-excentral", "DegeneratePointSet"): 15,
    ("thm2-thomson-excentral", "DegeneratePointSet"): 169,
    ("thm2-thomson-excentral", "RightTriangle"): 4,
    ("thm3-darboux-excentral", "DegeneratePointSet"): 169,
    ("thm3-darboux-excentral", "RightTriangle"): 4,
    ("thm4-yff-medial", "NotCollinear"): 15,
    ("thm5-darboux-medial", "DegeneratePointSet"): 173,
    ("thm6-lucas-medial", "DegeneratePointSet"): 173,
    ("thm7-darboux-euler", "DegeneratePointSet"): 173,
    ("thm8-jerabek-midarc", "DegeneratePointSet"): 15,
}


class TestIntegerTriangles:
    """Every scenario on every integer triangle up to a bound, the
    isosceles and right ones that ``random_triangle`` never draws included."""

    @pytest.mark.parametrize("sid,sides", [
        ("cor1", (1, 2, 2)), ("cor2", (1, 2, 2)), ("cor3", (2, 2, 3)), ("cor4", (2, 2, 3))])
    def test_pascal_line_skips_a_degenerate_hexagon(self, sid, sides):
        # two chords of the hexagon meet in a line, not a point, here
        sc = REGISTRY[sid]
        outcomes = evaluate(sc, Trial(RefTriangle(*sides)))
        assert dict(zip((c.id for c in sc.claims), outcomes)) == {
            "hexagon-on-conic": None, "pascal-line": SKIP}

    @pytest.mark.parametrize("sides", [(3, 4, 5), (5, 12, 13), (6, 8, 10)])
    def test_pivotal_oracles_pass_over_a_point_without_conjugate(self, sides):
        # O, the hypotenuse's midpoint, and H, the right-angle vertex, lie on
        # sidelines, so they have no conjugate
        sc = REGISTRY["defs-sanity"]
        assert evaluate(sc, Trial(RefTriangle(*sides))) == [None] * len(sc.claims)

    def test_every_outcome_is_a_verdict_up_to_side_15(self):
        triangles = [(a, b, c) for c in range(1, 16) for b in range(1, c + 1)
                     for a in range(c - b + 1, b + 1)]
        assert len(triangles) == 372
        refusals, bad = collections.Counter(), []
        for sides in triangles:
            t = RefTriangle(*sides)
            for sc in REGISTRY.values():
                try:
                    outcomes = evaluate(sc, Trial(t))
                except GeometryError as exc:
                    refusals[sc.id, type(exc).__name__] += 1
                    continue
                for c, res in zip(sc.claims, outcomes):
                    failed = isinstance(res, Failure)
                    if not (res is None or res is SKIP or failed) or (
                            failed and c.expectation == MUST):
                        bad.append((sc.id, c.id, sides, res))
        assert bad == []
        assert refusals == INTEGER_SWEEP_REFUSALS


def _spied(sc, calls, replace=None):
    """``sc`` with each claim's check counted in ``calls`` by claim id, and
    replaced where ``replace`` maps the id to another check."""
    def spy(claim):
        fn = (replace or {}).get(claim.id, claim.check)

        def check(tr):
            calls[claim.id] += 1
            return fn(tr)

        return dataclasses.replace(claim, check=check)

    return dataclasses.replace(sc, claims=tuple(map(spy, sc.claims)))


class TestEvaluate:
    """``evaluate``: one scenario on one triangle, claim by claim.  Its
    scenario fits a cubic, then compares it with the orthic triangle's
    Darboux cubic and checks that cubic's pivotal collinearity."""

    SC = REGISTRY["thm3-darboux-excentral"]
    FIT = "fit-consistency"

    def test_obtuse_triangle_calls_every_check(self):
        # the orthic claims hold on obtuse triangles too, so none is skipped
        calls = collections.Counter()
        outcomes = evaluate(_spied(self.SC, calls), Trial(RefTriangle(6, 9, 13)))
        assert outcomes == [None, None, None]
        assert calls == {c.id: 1 for c in self.SC.claims}

    def test_acute_triangle_calls_every_check(self):
        calls = collections.Counter()
        outcomes = evaluate(_spied(self.SC, calls), Trial(RefTriangle(5, 6, 7)))
        assert outcomes == [None, None, None]
        assert calls == {c.id: 1 for c in self.SC.claims}

    def test_check_error_is_returned_and_later_claims_still_run(self):
        def broken(tr):
            raise TypeError("probe")

        calls = collections.Counter()
        sc = _spied(self.SC, calls, {self.FIT: broken})
        error, *rest = evaluate(sc, Trial(RefTriangle(5, 6, 7)))
        assert type(error) is TypeError and str(error) == "probe"
        assert error.__traceback__ is None
        assert rest == [None, None]
        assert calls == {c.id: 1 for c in self.SC.claims}

    def test_setup_refusal_propagates_before_any_check(self):
        def refuse(tr):
            raise DegeneratePointSet(0, (), 5)

        calls = collections.Counter()
        sc = dataclasses.replace(_spied(self.SC, calls), setup=refuse)
        with pytest.raises(DegeneratePointSet):
            evaluate(sc, Trial(RefTriangle(5, 6, 7)))
        assert not calls


class TestOrthicClaims:
    """A, B, C and H are the incenter and excenters of the orthic triangle
    of any triangle that is not right, so the orthic Thomson and Darboux
    claims hold on obtuse triangles as on acute ones."""

    @pytest.mark.parametrize("sid", ["thm2-thomson-excentral",
                                     "thm3-darboux-excentral"])
    def test_must_pass_on_every_accepted_triangle(self, sid):
        sc, obtuse = REGISTRY[sid], 0
        for cursor in range(200):
            tr = Trial(random_triangle(cursor))
            try:
                outcomes = evaluate(sc, tr)
            except DegeneratePointSet:
                continue
            obtuse += min(tr.t.unit.SA, tr.t.unit.SB, tr.t.unit.SC) < 0
            bad = [c.id for c, res in zip(sc.claims, outcomes)
                   if c.expectation == MUST and res is not None]
            assert not bad, (cursor, tr.t, bad)
        assert obtuse == 115

    def test_collinear_orthic_darboux_points_are_accepted(self):
        # on RefTriangle(28, 60, 80) the orthic circumcenter 0:11:-39 and
        # the orthic de Longchamps point 0:176:-351 lie on BC with B, C and
        # the foot H1, so no 9-point fit gives the orthic Darboux cubic; its
        # closed form does, and thm3's must-pass claims hold there
        tr = Trial(random_triangle(513))
        assert (tr.t.a, tr.t.b, tr.t.c) == (28, 60, 80)
        sc = REGISTRY["thm3-darboux-excentral"]
        outcomes = evaluate(sc, tr)
        assert [res for c, res in zip(sc.claims, outcomes)
                if c.expectation == MUST] == [None] * 3
        with pytest.raises(DegeneratePointSet) as exc:
            cubic_through([tr[name] for name in RETIRED_FITS["darboux_orthic"]])
        assert exc.value.rank == 8
        on_bc = ("B", "C", "H1", "center(orthic,X3)", "center(orthic,X20)")
        assert [tr[name].x for name in on_bc] == [0] * 5
        assert str(tr["center(orthic,X3)"]) == "0:11:-39"
        assert str(tr["center(orthic,X20)"]) == "0:176:-351"



class TestIsogonalImages:
    """The conics the scenarios read as isogonal images of lines, checked
    against the five-point fits on seeds 0-99."""

    def test_jerabek_is_the_fit_through_the_vertices_o_and_h(self):
        for seed in range(100):
            tr = Trial(random_triangle(seed))
            points = [tr[n] for n in ("A", "B", "C", "O", "H")]
            assert tr["jerabek"] == conic_through(points), seed

    def test_midarc_conic_is_the_midarc_image_of_oi(self):
        # thm8's description; the scenario checks it only point by point
        for seed in range(100):
            tr = Trial(random_triangle(seed))
            assert tr["midarc_conic"] == isogonal_image(tr["midarc"], tr["oi"]), seed

    def test_exc_conic_is_the_excentral_image_of_oi(self):
        # thm1's description, checked by the scenario only in a verdict-only
        # claim; isogonal_image reads the squared sides off the excentral view
        for seed in range(100):
            tr = Trial(random_triangle(seed))
            assert tr["exc_conic"] == isogonal_image(tr["excentral"], tr["oi"]), seed


def _probe_points(tr, sub, rng):
    """About 30 points off the sidelines of ``sub``: its catalog centers,
    the base vertices and orthocenter (the orthic in- and excenters), and
    random small triples."""
    points = []
    for cid in CATALOG:
        try:
            points.append(eval_center_in(sub, cid))
        except GeometryError:  # needs side lengths the triangle lacks
            pass
    points += [tr[n] for n in ("A", "B", "C", "H")]
    digits = [*range(-9, 0), *range(1, 10)]
    points += [HomPoint(*(rng.choice(digits) for _ in range(3))) for _ in range(12)]
    return [p for p in points if 0 not in sub.frame.local(p)]


class TestPivotalCubics:
    """The reference cubics are built as pivotal cubics pK(W, P) by their
    closed form; two independent definitions check them."""

    def test_closed_forms_equal_the_retired_fits(self):
        refused = collections.Counter()
        for seed in range(100):
            tr = Trial(random_triangle(seed))
            for name, points in RETIRED_FITS.items():
                try:
                    fit = cubic_through([tr[n] for n in points])
                except DegeneratePointSet:
                    refused[name] += 1
                    continue
                assert tr[name] == fit, (name, seed)
        assert sum(refused.values()) == 0, refused

    @pytest.mark.parametrize("name", list(PIVOTAL))
    def test_zero_exactly_on_the_pivotal_collinearity(self, name):
        tri, conj, pivot = PIVOTAL[name]
        seen = collections.Counter()
        for seed in range(20):
            tr, rng = Trial(random_triangle(seed)), random.Random(seed)
            sub = tr[tri]
            at = eval_center_in(sub, pivot)
            cubic = pivotal_cubic(sub, conj, at)
            assert cubic == tr[name], seed
            for x in _probe_points(tr, sub, rng):
                on = pivotal_membership(sub, conj, at, x)
                assert (cubic.evaluate(x) == 0) == on, (seed, x)
                seen[on] += 1
        assert seen[True] >= 100 and seen[False] >= 400, seen

    def test_base_of_a_derived_triangle_keeps_its_frame(self):
        # the base kind of the orthic triangle is the orthic triangle itself
        for seed in range(5):
            tr = Trial(random_triangle(seed))
            orthic = tr["orthic"]
            own = centers.derived_subtriangle(orthic, TriangleKind.BASE)
            pivot = eval_center_in(orthic, CenterId.X2)
            assert pivotal_cubic(own, "isogonal", pivot) == tr["thomson_orthic"]
            assert isogonal_image(own, tr["euler_line"]) \
                == isogonal_image(orthic, tr["euler_line"])

    def test_medial_and_euler_cubics_are_pivotal(self):
        """The fitted cubics of thm5, thm6 and thm7 are pK of the medial and
        Euler triangles, so pK runs in two more frames than the base and
        orthic ones of the reference cubics."""
        refused = collections.Counter()
        for seed in range(100):
            tr = Trial(random_triangle(seed))
            for fit, tri, conj, pivot in (
                    ("thm5_cubic", "medial", "isogonal", "center(medial,X20)"),
                    ("thm6_cubic", "medial", "isotomic", "center(medial,X69)"),
                    ("thm7_cubic", "euler", "isogonal", "center(euler,X20)")):
                try:
                    cubic = tr[fit]
                except DegeneratePointSet:
                    refused[fit] += 1
                    continue
                assert cubic == pivotal_cubic(tr[tri], conj, tr[pivot]), (fit, seed)
        assert sum(refused.values()) == 0, refused


_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bench_pairs(root=_ROOT):
    """``tools/bench_pairs.py`` of the repository at ``root``, loaded fresh."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", root / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsSeeds:
    """``tools/bench_pairs.py --seeds`` takes only seeds it can summarise."""

    def test_range_is_inclusive(self):
        assert _bench_pairs().seed_range("1-10") == list(range(1, 11))
        assert _bench_pairs().seed_range("4-5") == [4, 5]

    def test_comma_list(self):
        assert _bench_pairs().seed_range("11,13") == [11, 13]
        assert _bench_pairs().seed_range("3,1,2") == [3, 1, 2]

    @pytest.mark.parametrize("seeds", ["10-1", "5", "5-5", "11,11", "11,x"])
    def test_unusable_range_exits_two(self, seeds, capsys):
        with pytest.raises(SystemExit) as exc:
            _bench_pairs().main(["--seeds", seeds])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds", ["nan", "inf", "-1", "x"])
    def test_unusable_seconds_exits_two(self, seconds, capsys):
        with pytest.raises(SystemExit) as exc:
            _bench_pairs().main(["--seconds", seconds])
        assert exc.value.code == 2
        assert "--seconds" in capsys.readouterr().err


class TestBenchPairsRevisions:
    """``tools/bench_pairs.py`` resolves both revisions before it extracts
    either tree or starts a benchmark run.  The script runs from a copy in
    a throwaway repository of one commit, so these tests pass in any copy
    of this one, a ``git archive`` with no history included."""

    @staticmethod
    def _repo(tmp_path, files=()):
        """The throwaway repository: ``tools/bench_pairs.py`` and the
        (path, text) pairs ``files``, in one commit."""
        repo = tmp_path / "repo"
        (repo / "tools").mkdir(parents=True)
        shutil.copy(_ROOT / "tools" / "bench_pairs.py", repo / "tools")
        for name, text in files:
            (repo / name).parent.mkdir(parents=True, exist_ok=True)
            (repo / name).write_text(text)
        git = ["git", "-C", str(repo), "-c", "user.name=bench-pairs",
               "-c", "user.email=bench-pairs@example.invalid",
               "-c", "commit.gpgsign=false"]
        for step in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one commit"]):
            subprocess.run(git + step, capture_output=True, check=True)
        return repo

    @pytest.fixture
    def module(self, tmp_path):
        return _bench_pairs(self._repo(tmp_path))

    @staticmethod
    def _refused(module, argv, monkeypatch, capsys):
        for step in ("extract", "run_once"):
            monkeypatch.setattr(module, step, lambda *a, step=step: pytest.fail(step))
        with pytest.raises(SystemExit) as exc:
            module.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("bench_pairs: --") and err.count("\n") == 1
        return err

    def test_unknown_parent_exits_two(self, module, monkeypatch, capsys):
        # this ended in a CalledProcessError traceback from git archive
        err = self._refused(module, ["--parent", "no-such-rev"], monkeypatch, capsys)
        assert "--parent 'no-such-rev'" in err

    def test_unknown_change_exits_two(self, module, monkeypatch, capsys):
        err = self._refused(module, ["--parent", "HEAD", "--change", "no-such-rev"],
                            monkeypatch, capsys)
        assert "--change 'no-such-rev'" in err

    def test_output_names_the_trees_measured(self, module, monkeypatch, capsys):
        extracted = []

        def extract(repo, rev, dest):
            extracted.append(rev)
            dest.mkdir(parents=True)
            (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
                {"name": "wall_s", "better": "lower", "bound": 0.2}]}))
            return dest

        def run_once(tree, workload, seed, seconds):
            return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                    "report_sha256": None, "metrics": {"wall_s": 1.0}}

        monkeypatch.setattr(module, "extract", extract)
        monkeypatch.setattr(module, "run_once", run_once)
        assert module.main(["--parent", "HEAD", "--change", "HEAD",
                            "--seeds", "1,2", "--seconds", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        repo = pathlib.Path(module.__file__).resolve().parents[1]
        tree = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD^{tree}"],
                              capture_output=True, text=True, check=True).stdout.strip()
        assert (out["parent"], out["change"]) == ("HEAD", "HEAD")
        assert out["parent_tree"] == out["change_tree"] == tree
        assert extracted == [tree, tree]

    def test_sigterm_removes_the_trees_and_stops_the_run(self, tmp_path):
        """Stopped by ``SIGTERM`` while a benchmark run sleeps, the script
        exits 143, and neither its temporary directory nor the run is left
        behind; with the default action both were."""
        pid_file, tmp = tmp_path / "run.pid", tmp_path / "tmp"
        sleeper = ("import os, pathlib, time\n"
                   "pid = pathlib.Path(os.environ['BENCH_PAIRS_TEST_PID'])\n"
                   "pid.write_text(str(os.getpid()))\n"
                   "time.sleep(120)\n")
        repo = self._repo(tmp_path, [("bench/run.py", sleeper),
                                     ("BENCHMARK.json", '{"end_to_end": []}')])
        tmp.mkdir()
        env = {**os.environ, "TMPDIR": str(tmp), "BENCH_PAIRS_TEST_PID": str(pid_file)}
        proc = subprocess.Popen(
            [sys.executable, str(repo / "tools" / "bench_pairs.py"), "--parent", "HEAD",
             "--change", "HEAD", "--seeds", "1,2", "--seconds", "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        child = None

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        try:
            deadline = time.monotonic() + 60
            while not (pid_file.exists() and pid_file.read_text()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            child = int(pid_file.read_text())
            assert [p.name[:12] for p in tmp.iterdir()] == ["bench-pairs-"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 143
            assert list(tmp.iterdir()) == []
            assert not alive(child)
        finally:
            proc.kill()
            proc.wait()
            if child is not None and alive(child):
                os.kill(child, signal.SIGKILL)


class TestBenchPairsBrokenRun:
    """A benchmark run that gives no result stops ``tools/bench_pairs.py``
    with one line naming the workload, seed and tree, and exit code 2.
    ``subprocess.run`` is patched, so no benchmark process starts."""

    @staticmethod
    def _refused(outcome, tmp_path, monkeypatch, capsys):
        module = _bench_pairs()

        def run(args, **kwargs):
            if isinstance(outcome, Exception):
                raise outcome
            return subprocess.CompletedProcess(args, 0, stdout=outcome, stderr="")

        monkeypatch.setattr(module.subprocess, "run", run)
        with pytest.raises(SystemExit) as exc:
            module.run_once(tmp_path, "verify-all", 7, 1.0)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bench_pairs: verify-all seed 7 in {tmp_path} ")
        assert err.count("\n") == 1
        return err

    def test_timeout(self, tmp_path, monkeypatch, capsys):
        # this ended in a TimeoutExpired traceback
        timeout = subprocess.TimeoutExpired(["bench/run.py"], 600)
        err = self._refused(timeout, tmp_path, monkeypatch, capsys)
        assert "ran past 600 s" in err

    @pytest.mark.parametrize("stdout", ["", "\n", "report sha256 ab\nnot json\n",
                                        "[1, 2]\n", '{"correct": true}\n'],
                             ids=["empty", "blank", "not-json", "list", "no-metrics"])
    def test_no_json_result(self, stdout, tmp_path, monkeypatch, capsys):
        # empty output ended in an IndexError, other text in a JSONDecodeError
        err = self._refused(stdout, tmp_path, monkeypatch, capsys)
        assert "printed no JSON result" in err


class TestBenchPairsFailedRun:
    """A run that exits nonzero, and a tree holding bytecode, stop
    ``tools/bench_pairs.py`` with exit code 2, like every other refusal;
    both ended through ``sys.exit(message)``, exit code 1.  No benchmark
    process starts."""

    def test_nonzero_exit_keeps_the_runs_stderr(self, tmp_path, monkeypatch, capsys):
        module = _bench_pairs()
        stderr = "Traceback (most recent call last):\nRuntimeError: boom\n"
        monkeypatch.setattr(module.subprocess, "run", lambda args, **kwargs:
                            subprocess.CompletedProcess(args, 3, stdout="", stderr=stderr))
        with pytest.raises(SystemExit) as exc:
            module.run_once(tmp_path, "fit-certify", 4, 1.0)
        assert exc.value.code == 2
        header, rest = capsys.readouterr().err.split("\n", 1)
        assert header == f"bench_pairs: fit-certify seed 4 in {tmp_path} exited 3"
        assert rest == stderr

    def test_bytecode_refused_before_running(self, tmp_path, monkeypatch, capsys):
        module = _bench_pairs()
        monkeypatch.setattr(module.subprocess, "run",
                            lambda *a, **k: pytest.fail("benchmark started"))
        (tmp_path / "src" / "__pycache__").mkdir(parents=True)
        with pytest.raises(SystemExit) as exc:
            module.run_once(tmp_path, "verify-all", 1, 1.0)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == (f"bench_pairs: {tmp_path / 'src' / '__pycache__'} holds "
                       "compiled bytecode; refusing to run\n")


class TestBenchPairsSummary:
    """``summarise`` counts, per workload, the seed pairs that agree, and
    judges each metric by the gain rule and its bound."""

    @staticmethod
    def _run(seed, wall_s, correct=True, failed=0, digest="d0"):
        return {"seed": seed, "correct": correct, "attempted": 18, "failed": failed,
                "report_sha256": digest, "metrics": {"wall_s": wall_s}}

    def test_one_disagreeing_pair(self):
        run = self._run
        runs = {
            "verify-all": {
                "parent": [run(1, 1.0), run(2, 1.2), run(3, 1.1)],
                "change": [run(1, 0.9), run(2, 1.0, digest="d1"), run(3, 1.0)]},
            "center-queries": {
                "parent": [run(1, 2.0), run(2, 2.0), run(3, 2.0)],
                "change": [run(1, 1.0), run(2, 1.0, False, 1), run(3, 1.0)]},
        }
        out = _bench_pairs().summarise(runs, {"wall_s": "lower"})
        assert out["verify-all"]["agreement"] == {
            "pairs": 3, "correct": 3, "attempted": 3, "failed": 3, "report_sha256": 2}
        assert out["center-queries"]["agreement"] == {
            "pairs": 3, "correct": 2, "attempted": 3, "failed": 2}
        assert out["verify-all"]["wall_s"]["pairs_change_better"] == 3
        assert out["center-queries"]["wall_s"]["ratio"] == 0.5

    def test_a_shared_wrong_answer_is_listed_by_seed(self):
        run = self._run
        runs = {
            "center-queries": {
                "parent": [run(1, 1.0), run(2, 1.0, False, 1), run(3, 1.0, False, 1)],
                "change": [run(1, 1.0), run(2, 1.0, False, 1), run(3, 1.0)]},
            "fit-certify": {"parent": [run(1, 1.0), run(2, 1.0)],
                            "change": [run(1, 1.0), run(2, 1.0)]},
        }
        out = _bench_pairs().summarise(runs, {"wall_s": "lower"})
        # seed 2 agrees on both sides, so agreement alone would hide it
        assert out["center-queries"]["agreement"]["correct"] == 2
        assert out["center-queries"]["incorrect_seeds"] == {"parent": [2, 3], "change": [2]}
        assert out["fit-certify"]["incorrect_seeds"] == {"parent": [], "change": []}

    def _judged(self, parent, change, better="lower", bound=0.2):
        runs = {"fit-certify": {
            "parent": [self._run(i, v) for i, v in enumerate(parent)],
            "change": [self._run(i, v) for i, v in enumerate(change)]}}
        out = _bench_pairs().summarise(runs, {"wall_s": better}, {"wall_s": bound})
        return out["fit-certify"]["wall_s"]

    PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]

    def test_nine_of_ten_beyond_the_iqr_meets_the_gain_rule(self):
        change = [0.9] * 9 + [1.2]
        judged = self._judged(self.PARENT, change)
        assert judged["pairs_change_better"] == 9
        assert judged["gain_rule_met"] is True and judged["within_bound"] is True

    def test_eight_of_ten_does_not(self):
        change = [0.9] * 8 + [1.2, 1.2]
        judged = self._judged(self.PARENT, change)
        assert judged["pairs_change_better"] == 8
        assert judged["gain_rule_met"] is False

    def test_ten_of_ten_within_the_iqr_does_not(self):
        change = [x - 0.001 for x in self.PARENT]
        judged = self._judged(self.PARENT, change)
        assert judged["pairs_change_better"] == 10
        assert judged["median_distance"] < judged["parent_iqr"]
        assert judged["gain_rule_met"] is False

    def test_ties_count_for_neither_side(self):
        judged = self._judged(self.PARENT, [0.9] * 8 + self.PARENT[8:])
        assert judged["pairs_change_better"] == 8
        assert judged["gain_rule_met"] is False

    def test_a_quarter_worse_is_beyond_a_bound_of_a_fifth(self):
        judged = self._judged(self.PARENT, [1.25 * x for x in self.PARENT])
        assert judged["ratio"] == 1.25
        assert judged["within_bound"] is False and judged["gain_rule_met"] is False
        higher = self._judged(self.PARENT, [0.75 * x for x in self.PARENT], "higher")
        assert higher["within_bound"] is False
        assert self._judged(self.PARENT, [1.15 * x for x in self.PARENT])["within_bound"]

    def test_higher_is_better(self):
        judged = self._judged(self.PARENT, [1.1] * 10, "higher")
        assert judged["gain_rule_met"] is True and judged["within_bound"] is True

    def test_no_bound_is_not_judged(self):
        run = self._run
        runs = {"verify-all": {"parent": [run(1, 1.0), run(2, 1.1)],
                               "change": [run(1, 2.0), run(2, 2.1)]}}
        out = _bench_pairs().summarise(runs, {"wall_s": "lower"})
        assert out["verify-all"]["wall_s"]["within_bound"] is None
