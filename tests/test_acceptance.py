"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
status lines.  Everything except the renderer criterion is exact (zero
tolerance); the full-scale runs use 100 seeded random triangles with
integer sides in [5, 80].
"""

import hashlib
import json
import re
import statistics
import sys
import time
from fractions import Fraction

import pytest

from tricurves import kernel
from tricurves.centers import (
    CenterId,
    TriangleKind,
    derived_triangle,
    eval_center,
    eval_center_in,
    random_triangle,
    validate_center_oracles,
)
from tricurves.cli import main
from tricurves.curves import (
    DegeneratePointSet,
    conic_through,
    cubic_through,
    homothety_matrix,
    pascal_check,
    transform_cubic,
    Conic,
)
from tricurves.kernel import (
    HomPoint,
    RefTriangle,
    VERTEX_A,
    VERTEX_B,
    VERTEX_C,
    midpoint,
)
from tricurves.linalg import rank_rational
from tricurves.scenarios import MUST, VERDICT, run_scenario

from reference import conic_second_intersection

TRIALS = 100
SEED = 42

# SHA-256 of the verify-all NDJSON (TRIALS, SEED) with elapsed_ms stripped;
# a refactor that changes any verdict, certificate or description shows here
REPORT_SHA256 = "080676e0f5c7e94223d5b5cc6959d6754ec3bc267362a11c6a7c4625dbb0636b"


def _strip_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":_', text)


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """Two complete CLI verification runs, for reuse across criteria."""
    tmp = tmp_path_factory.mktemp("acceptance")
    paths = [tmp / "run1.ndjson", tmp / "run2.ndjson"]
    codes = []
    for p in paths:
        codes.append(main(["verify", "all", "--trials", str(TRIALS),
                           "--seed", str(SEED), "--json", str(p)]))
    raw = [p.read_text() for p in paths]
    reports = {json.loads(line)["scenario"]: json.loads(line)
               for line in raw[0].strip().splitlines()}
    return {"codes": codes, "raw": raw, "reports": reports}


def _claims(full_runs, scenario):
    return {c["id"]: c for c in full_runs["reports"][scenario]["claims"]}


def test_criterion_01_center_oracles():
    for i in range(TRIALS):
        t = random_triangle(SEED + i)
        failed = [cid.value for cid, ok in validate_center_oracles(t) if not ok]
        assert not failed, (t, failed)
    print(f"\nACCEPTANCE 1: PASS - center oracles all-true on {TRIALS} triangles")


def test_criterion_02_classical_correspondences(full_runs):
    excentral = _claims(full_runs, "corr-excentral")
    for cid in ("incenter-is-excentral-orthocenter",
                "circumcenter-is-excentral-ninepoint",
                "bevan-is-excentral-circumcenter",
                "mittenpunkt-is-excentral-symmedian",
                "symmedian-of-excentral-orthic"):
        assert excentral[cid]["status"] == "pass", cid
    midarc = _claims(full_runs, "corr-midarc")
    assert midarc["orthocenter-to-incenter"]["status"] == "pass"
    assert midarc["circumcenter-fixed"]["status"] == "pass"
    for cid, claim in _claims(full_runs, "corr-medial").items():
        assert claim["status"] == "pass", cid
    for cid, claim in _claims(full_runs, "corr-euler").items():
        assert claim["status"] == "pass", cid
    print(f"ACCEPTANCE 2: PASS - classical correspondences {TRIALS}/{TRIALS}")


def test_criterion_03_excentral_conic_scenario(full_runs):
    claims = _claims(full_runs, "thm1-jerabek-excentral")
    assert claims["rectangular"]["status"] == "pass"
    assert claims["fit-consistency"]["status"] == "pass"
    assert claims["isogonal-characterization"]["status"] == "pass"
    for cid in ("contains-mittenpunkt", "contains-de-longchamps",
                "center-at-circumcenter", "isogonal-image-of-oi-line"):
        claim = claims[cid]
        assert claim["status"] in ("pass", "fail"), cid
        if claim["status"] == "fail":
            assert claim["failures"], cid
            for cert in claim["failures"]:
                assert set(cert) == {"triangle", "lhs", "rhs", "detail"}
    print(f"ACCEPTANCE 3: PASS - excentral conic rectangular {TRIALS}/{TRIALS}, "
          "definitive verdicts with certificates")


def test_criterion_04_orthic_cubic_oracles():
    for i in range(TRIALS):
        t = random_triangle(SEED + 1000 + i, require_acute=True)
        orthic = derived_triangle(t, TriangleKind.ORTHIC)
        feet = orthic.vertices
        h = eval_center(t, CenterId.X4)
        e = eval_center(t, CenterId.X5)
        o = eval_center(t, CenterId.X3)
        fit2 = cubic_through([VERTEX_A, VERTEX_B, VERTEX_C, *feet, h, e,
                              eval_center_in(orthic, CenterId.X2)])
        mids = (midpoint(feet[1], feet[2]), midpoint(feet[2], feet[0]),
                midpoint(feet[0], feet[1]))
        thomson_orthic = cubic_through([*feet, *mids,
                                        VERTEX_A, VERTEX_B, VERTEX_C])
        assert fit2 == thomson_orthic
        fit3 = cubic_through([VERTEX_A, VERTEX_B, VERTEX_C, *feet, h, e, o])
        darboux_orthic = cubic_through([
            *feet, VERTEX_A, VERTEX_B, VERTEX_C, h,
            eval_center_in(orthic, CenterId.X3),
            eval_center_in(orthic, CenterId.X20)])
        assert fit3 == darboux_orthic
    print(f"ACCEPTANCE 4: PASS - orthic cubic equalities {TRIALS}/{TRIALS} "
          "acute triangles")


def test_criterion_05_axis_conics(full_runs):
    claims = _claims(full_runs, "thm4-yff-medial")
    for cid in ("eccentricity-squared-is-four", "directrix-through-circumcenter",
                "base-eccentricity-squared-is-four",
                "base-directrix-through-ninepoint", "homothety-pushforward"):
        assert claims[cid]["status"] == "pass", cid
    print(f"ACCEPTANCE 5: PASS - squared eccentricity 4 and directrix "
          f"incidences {TRIALS}/{TRIALS}")


def test_criterion_06_pushforward_oracles(full_runs):
    assert _claims(full_runs, "thm5-darboux-medial")[
        "equals-darboux-pushforward"]["status"] == "pass"
    assert _claims(full_runs, "thm6-lucas-medial")[
        "equals-lucas-pushforward"]["status"] == "pass"
    assert _claims(full_runs, "thm7-darboux-euler")[
        "equals-darboux-pushforward"]["status"] == "pass"
    for i in range(TRIALS):
        t = random_triangle(SEED + 2000 + i)
        exc = derived_triangle(t, TriangleKind.EXCENTRAL)
        darb = cubic_through([
            VERTEX_A, VERTEX_B, VERTEX_C,
            eval_center(t, CenterId.X1), eval_center(t, CenterId.X3),
            eval_center(t, CenterId.X4), eval_center(t, CenterId.X20),
            eval_center(t, CenterId.X40), exc.v1])
        m = homothety_matrix(eval_center(t, CenterId.X3), Fraction(-1))
        assert transform_cubic(m, darb) == darb
    print(f"ACCEPTANCE 6: PASS - homothety push-forwards and central "
          f"symmetry {TRIALS}/{TRIALS}")


def test_criterion_07_pascal(full_runs):
    for sid in ("cor1", "cor2", "cor3", "cor4"):
        claims = _claims(full_runs, sid)
        assert claims["pascal-line"]["status"] == "pass", sid
        assert claims["hexagon-on-conic"]["status"] == "pass", sid
    import random as _random
    rng = _random.Random(99)
    done = 0
    while done < 50:
        t = random_triangle(rng.randrange(10 ** 6))
        circ = Conic(0, 0, 0, t.c2, t.b2, t.a2)
        pts = [VERTEX_A]
        k = 0
        while len(pts) < 6 and k < 60:
            k += 1
            q = HomPoint(1, rng.randrange(1, 40), rng.randrange(1, 40))
            try:
                p2 = conic_second_intersection(circ, VERTEX_A, q)
            except ValueError:
                continue
            if p2 not in pts:
                pts.append(p2)
        if len(pts) < 6:
            continue
        rng.shuffle(pts)
        p1, p2_, p3, p4, p5, p6 = pts
        pairs = (((p1, p2_), (p4, p5)), ((p2_, p3), (p5, p6)),
                 ((p3, p4), (p6, p1)))
        try:
            _, verdict = pascal_check(pairs)
        except kernel.GeometryError:
            continue
        assert verdict
        done += 1
    print(f"ACCEPTANCE 7: PASS - Pascal corollaries {TRIALS}/{TRIALS} and "
          "50/50 random hexagons")


def test_criterion_08_euler_line_component(full_runs):
    claims = _claims(full_runs, "cor5-euler-line-component")
    assert claims["euler-line-factorization"]["status"] == "pass"
    assert claims["hessian-membership"]["status"] == "pass"
    assert claims["euler-points-are-inflections"]["status"] in ("pass", "fail")
    print(f"ACCEPTANCE 8: PASS - Euler-line factorization and Hessian "
          f"membership {TRIALS}/{TRIALS}, smoothness reported")


def test_criterion_09_fitting_robustness():
    checked = 0
    rows_of_conic = lambda pts: [
        (p.x * p.x, p.y * p.y, p.z * p.z,
         2 * p.x * p.y, 2 * p.x * p.z, 2 * p.y * p.z) for p in pts]
    from tricurves.curves import CUBIC_MONOMIALS
    rows_of_cubic = lambda pts: [
        tuple(p.x ** i * p.y ** j * p.z ** k for (i, j, k) in CUBIC_MONOMIALS)
        for p in pts]

    def check_degenerate(points, fitter, rows_fn, needed):
        nonlocal checked
        with pytest.raises(DegeneratePointSet) as excinfo:
            fitter(points)
        exc = excinfo.value
        rows = rows_fn(points)
        assert exc.rank == rank_rational(rows) < needed
        sub = [rows[i] for i in exc.independent]
        assert len(sub) == exc.rank
        assert rank_rational(sub) == exc.rank
        checked += 1

    # repeated point
    for i in range(350):
        t = random_triangle(7000 + i)
        p = eval_center(t, CenterId.X9)
        check_degenerate([VERTEX_A, VERTEX_B, VERTEX_C, p, p],
                         conic_through, rows_of_conic, 5)
    # four collinear points force a line component and rank deficiency
    for i in range(350):
        k = i % 29 + 2
        pts = [VERTEX_A, VERTEX_B, HomPoint(1, k, 0), HomPoint(k, 1, 0),
               HomPoint(1, 1, 1)]
        check_degenerate(pts, conic_through, rows_of_conic, 5)
    # eight points on a conic admit a pencil of cubics through any ninth
    for i in range(30):
        t = random_triangle(8000 + i)
        circ = Conic(0, 0, 0, t.c2, t.b2, t.a2)
        pts = [VERTEX_A, VERTEX_B, VERTEX_C]
        k = 1
        while len(pts) < 8:
            p2 = conic_second_intersection(circ, VERTEX_A,
                                           HomPoint(1, k, k * k + 7))
            if p2 not in pts:
                pts.append(p2)
            k += 1
        for j in range(10):
            ninth = HomPoint(1 + j, 2, 3 + j)
            check_degenerate(pts + [ninth], cubic_through, rows_of_cubic, 9)
    assert checked == 1000
    print("ACCEPTANCE 9: PASS - 1000 rank-deficient fits rejected with "
          "cross-checked certificates")


def test_criterion_10_determinism(full_runs):
    assert full_runs["codes"][0] == full_runs["codes"][1]
    a, b = (_strip_elapsed(r) for r in full_runs["raw"])
    assert a == b
    print("ACCEPTANCE 10: PASS - verify-all NDJSON byte-identical "
          "(elapsed_ms excluded)")


def test_report_digest_pinned(full_runs):
    digest = hashlib.sha256(
        _strip_elapsed(full_runs["raw"][0]).encode()).hexdigest()
    assert digest == REPORT_SHA256


def test_criterion_11_performance():
    times = []
    for i in range(11):
        t0 = time.perf_counter()
        run_scenario("cor5-euler-line-component", 1, SEED + i)
        times.append(time.perf_counter() - t0)
    median_ms = statistics.median(times) * 1000
    assert median_ms < 200, f"median single-trial {median_ms:.1f} ms"
    kernel.reset_bit_high_water()
    run_scenario("cor5-euler-line-component", TRIALS, SEED)
    run_scenario("corr-excentral", TRIALS, SEED)
    bits = kernel.bit_high_water()
    assert bits < 4096, f"bit high water {bits}"
    print(f"ACCEPTANCE 11: PASS - median single trial {median_ms:.1f} ms, "
          f"max canonical integer {bits} bits")


def test_criterion_12_renderer(tmp_path, monkeypatch):
    import csv as _csv
    import math as _math
    from tricurves.render import RenderConfig, embed_triangle, sample_csv

    t = RefTriangle(3, 4, 6)
    corners = embed_triangle(t)
    (ax, ay), (bx, by), (cx, cy) = corners
    figure = {"points": [], "curves": [("circ", Conic(0, 0, 0, t.c2, t.b2,
                                                      t.a2))], "lines": []}
    path = tmp_path / "pts.csv"
    sample_csv(t, figure, RenderConfig(grid=512), str(path))
    d = 2 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    ux = ((bx ** 2 - ax ** 2 + by ** 2 - ay ** 2) * (cy - ay)
          - (cx ** 2 - ax ** 2 + cy ** 2 - ay ** 2) * (by - ay)) / d
    uy = ((cx ** 2 - ax ** 2 + cy ** 2 - ay ** 2) * (bx - ax)
          - (bx ** 2 - ax ** 2 + by ** 2 - ay ** 2) * (cx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    worst = 0.0
    with open(path) as fh:
        for row in _csv.DictReader(fh):
            x, y = float(row["x"]), float(row["y"])
            worst = max(worst, abs((x - ux) ** 2 + (y - uy) ** 2 - r2) / r2)
    assert worst <= 1e-6
    # verification is identical with the renderer unimportable
    before = run_scenario("corr-midarc", 3, 5).to_dict()
    before.pop("elapsed_ms")
    monkeypatch.setitem(sys.modules, "tricurves.render", None)
    after = run_scenario("corr-midarc", 3, 5).to_dict()
    after.pop("elapsed_ms")
    assert before == after
    print(f"ACCEPTANCE 12: PASS - renderer residual {worst:.2e} <= 1e-6, "
          "core independent of renderer")
