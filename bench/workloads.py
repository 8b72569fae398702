"""The four benchmark workloads: inputs, one pass of ops, output checks.

Every workload is a closed loop with one client.  A pass runs a fixed list
of ops, each through ``rec.call`` (a ``clock.Recorder``), which times it;
inputs are built and outputs are checked outside the pass, so neither is
timed.  ``per_op`` says whether the recorder calibrates around every op,
which the workloads whose ops take tens of milliseconds or more do.
``passes_per_s`` is how many passes, with their input building and
checks, one second of a run holds on the reference host; a run's pass
count is fixed from it and ``--seconds``.

``inputs(k)`` builds the inputs of pass ``k`` from (workload, seed, k)
alone.  Every pass gets fresh triangles, so no op shares work with an op
of an earlier pass and a process-wide memo could not make a later pass
cheaper; a run's median then also averages over many triangles.

``check(k, inputs, out)`` returns a ``Checked``.  An op that raised where
no refusal was expected is *failed*; an op that returned a wrong result is
failed and *wrong*.  Only wrong results make a run incorrect.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent


class Checked(NamedTuple):
    attempted: int
    failed: int
    wrong: int
    counts: dict
    notes: list


# ---------------------------------------------------------------------------
# verify-all


def report_digest(ndjson: str) -> str:
    """SHA-256 of NDJSON reports with the ``elapsed_ms`` field stripped."""
    stripped = re.sub(r',"elapsed_ms":\d+', "", ndjson)
    return hashlib.sha256(stripped.encode("utf-8")).hexdigest()


class VerifyAll:
    """``tricurves verify all`` through ``cli.main``; one op per scenario.

    Pass ``k`` runs ``verify all --trials N --seed S+k*N``: the passes of a
    run walk consecutive windows of the seeded triangles, and pass 0 is
    the user command for the workload seed ``S``.  A pass run twice must
    write the same report bytes.
    """

    name = "verify-all"
    trials = 20
    passes_per_s = 0.7
    trace_passes = 3
    per_op = True

    def __init__(self, mods, seed: int, out_dir: Path):
        self.mods = mods
        self.seed = seed
        self.path = out_dir / f"verify-all-{seed}.ndjson"
        with open(HERE / "expected_verdicts.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.digests = {}  # pass -> report digest

    @property
    def report_sha256(self) -> str | None:
        """The report digest of pass 0, the command for the workload seed."""
        return self.digests.get(0)

    def argv(self, scenario: str = "all", seed: int | None = None) -> list[str]:
        return ["verify", scenario, "--trials", str(self.trials),
                "--seed", str(self.seed if seed is None else seed),
                "--json", str(self.path)]

    def inputs(self, k: int) -> int:
        """The ``--seed`` of pass ``k``."""
        return self.seed + k * self.trials

    def warmup(self, seed) -> None:
        first = next(iter(self.mods.scenarios.REGISTRY))
        with redirect_stdout(io.StringIO()):
            self.mods.cli.main(self.argv(first, seed))

    def run(self, seed, rec):
        """One ``cli.main`` call; each ``run_scenario`` call it makes is an op.

        If the command raises, the remaining scenarios run one command
        each, so that the pass still does the work of a whole pass.
        """
        cli = self.mods.cli
        ops = []  # (scenario id, report or exception)
        inner = cli.run_scenario

        def op(sid, trials, seed):
            res = rec.call(inner, (sid, trials, seed))
            ops.append((sid, res))
            if isinstance(res, Exception):
                raise res
            return res

        cli.run_scenario = op
        try:
            with redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(self.argv(seed=seed))
                except Exception as exc:  # recorded per op in check()
                    code = exc
                    done = {sid for sid, _ in ops}
                    for sid in self.mods.scenarios.REGISTRY:
                        if sid not in done:
                            try:
                                cli.main(self.argv(sid, seed))
                            except Exception:
                                pass
        finally:
            cli.run_scenario = inner
        return code, ops

    def _wrong_claims(self, report) -> str | None:
        must = self.mods.scenarios.MUST
        claims = report.to_dict()["claims"]
        bad_must = [c["id"] for c in claims
                    if c["expectation"] == must and c["status"] != "pass"]
        errors = [c["id"] for c in claims if c["status"] == "error"]
        verdicts = sorted(c["id"] for c in claims
                          if c["expectation"] != must and c["status"] != "pass")
        if bad_must or errors or verdicts != sorted(self.expected.get(report.scenario, [])):
            return (f"{report.scenario}: must-pass failures {bad_must}, errors "
                    f"{errors}, verdict-only failures {verdicts}")
        return None

    def check(self, k, seed, out) -> Checked:
        code, ops = out
        raised = wrong = skipped = 0
        notes = []
        for sid, res in ops:
            if isinstance(res, Exception):
                raised += 1
                notes.append(f"{sid} raised {type(res).__name__}: {res}")
                continue
            skipped += res.skipped
            note = self._wrong_claims(res)
            if note:
                wrong += 1
                notes.append(note)
        counts = {"scenarios.skipped": skipped}
        if isinstance(code, Exception):
            # the command aborted, so there is no exit code or report file
            return Checked(len(ops), raised + wrong, wrong, counts, notes)
        pass_notes = []
        if code != 2:
            pass_notes.append(f"exit code {code}, expected 2")
        text = self.path.read_text(encoding="utf-8")
        if text.splitlines() != [self.mods.cli.report_json(r) for _, r in ops]:
            pass_notes.append("NDJSON differs from the reports run_scenario returned")
        digest = self.digests.setdefault(k, report_digest(text))
        if digest != report_digest(text):
            pass_notes.append(f"pass {k} wrote other report bytes when run again")
        if pass_notes:
            wrong = len(ops)
            notes.extend(pass_notes)
        return Checked(len(ops), raised + wrong, wrong, counts, notes)

    def steady_check(self) -> Checked:
        """Seed S+1 changes the report hash, not the must-pass outcomes."""
        other = self.seed + 1
        cli, must = self.mods.cli, self.mods.scenarios.MUST
        notes = []
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(self.argv(seed=other))
        except Exception as exc:
            notes.append(f"seed {other}: verify raised {type(exc).__name__}: {exc}")
            return Checked(1, 1, 0, {}, notes)
        text = self.path.read_text(encoding="utf-8")
        bad = [f"{r['scenario']}/{c['id']}"
               for r in map(json.loads, text.splitlines())
               for c in r["claims"]
               if c["expectation"] == must and c["status"] != "pass"]
        if code not in (0, 2) or bad:
            notes.append(f"seed {other}: exit code {code}, must-pass failures {bad}")
        if report_digest(text) == self.report_sha256:
            notes.append(f"seed {other} gave the report hash of seed {self.seed}")
        wrong = 1 if notes else 0
        return Checked(1, wrong, wrong, {}, notes)


# ---------------------------------------------------------------------------
# fit-certify

CONIC_ROW = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))
CONIC_WEIGHT = (1, 1, 1, 2, 2, 2)
CUBIC_ROW = ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
             (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))


def _monomials(triple, exps, weights):
    x, y, z = triple
    return [w * x**i * y**j * z**k for w, (i, j, k) in zip(weights, exps)]


def fit_rows(points):
    """Interpolation matrix of a 5-point conic or 9-point cubic fit."""
    if len(points) == 5:
        return [_monomials(p.triple, CONIC_ROW, CONIC_WEIGHT) for p in points]
    return [_monomials(p.triple, CUBIC_ROW, (1,) * 10) for p in points]


def line_times_conic(line, conic) -> list[int]:
    """Cubic coefficient vector of the product of a line and a conic form."""
    q11, q22, q33, q12, q13, q23 = conic.coeffs
    quad = {(2, 0, 0): q11, (0, 2, 0): q22, (0, 0, 2): q33,
            (1, 1, 0): 2 * q12, (1, 0, 1): 2 * q13, (0, 1, 1): 2 * q23}
    out = dict.fromkeys(CUBIC_ROW, 0)
    for var, coeff in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line.triple):
        for (i, j, k), c in quad.items():
            out[(i + var[0], j + var[1], k + var[2])] += coeff * c
    return [out[m] for m in CUBIC_ROW]


def circumcircle_points(t, count: int):
    """Points of the circumcircle: isogonal images of the points at
    infinity (u : 1 : -u-1), u = 1..count."""
    return [(t.a2 * (-u - 1), t.b2 * (-u - 1) * u, t.c2 * u)
            for u in range(1, count + 1)]


FIT_CENTERS = ("VertexA", "VertexB", "VertexC", "X1", "X2", "X3", "X4", "X6",
               "X7", "X8", "X9", "X10", "X20")
P_FIT, Q_FIT = 3, 4  # generic cubics through three points of the Euler line


class FitCertify:
    """Conic/cubic fits, rank certificates and cubic post-processing."""

    name = "fit-certify"
    triangles_per_pass = 6
    passes_per_s = 5.5
    trace_passes = 10
    per_op = False

    def __init__(self, mods, seed: int, out_dir: Path):
        self.mods = mods
        self.seed = seed

    def inputs(self, k: int):
        centers, kernel, curves = self.mods.centers, self.mods.kernel, self.mods.curves
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        cases = []
        for _ in range(self.triangles_per_pass):
            t = centers.random_triangle(rng.randrange(1 << 30))
            X = {name: centers.eval_center(t, centers.CenterId(name))
                 for name in FIT_CENTERS}
            A, B, C = X["VertexA"], X["VertexB"], X["VertexC"]
            circ = [kernel.HomPoint(*p) for p in circumcircle_points(t, 8)]
            # generic sets and rank-deficient ones: a repeated point, four
            # points of the Euler line, eight points of the circumcircle
            fits = [
                ("conic", [X["X1"], X["X2"], X["X3"], X["X6"], X["X7"]]),
                ("conic", [X["X1"], X["X2"], X["X3"], X["X6"], X["X1"]]),
                ("conic", [X["X2"], X["X3"], X["X4"], X["X20"], X["X1"]]),
                ("cubic", [X["X2"], X["X3"], X["X4"], A, B, C,
                           X["X1"], X["X6"], X["X7"]]),
                ("cubic", [X["X2"], X["X3"], X["X4"], A, B, C,
                           X["X8"], X["X9"], X["X10"]]),
                ("cubic", [*circ, X["X1"]]),
                ("cubic", [A, B, C, X["X1"], X["X2"], X["X3"], X["X4"],
                           X["X6"], X["X6"]]),
            ]
            cases.append({
                "fits": fits,
                "homothety": curves.homothety_matrix(X["X2"], Fraction(-1, 2)),
                "euler": kernel.join(X["X2"], X["X3"]),
            })
        return cases

    def warmup(self, cases) -> None:
        self.mods.curves.cubic_through(cases[0]["fits"][P_FIT][1])

    def run(self, cases, rec):
        curves = self.mods.curves
        fit = {"conic": curves.conic_through, "cubic": curves.cubic_through}
        out = []
        for case in cases:
            fits = [rec.call(fit[kind], (pts,), curves.DegeneratePointSet)
                    for kind, pts in case["fits"]]
            post = {}
            p, q = fits[P_FIT], fits[Q_FIT]
            if isinstance(p, curves.Cubic):
                post["transform"] = rec.call(
                    curves.transform_cubic, (case["homothety"], p))
                post["hessian"] = rec.call(curves.hessian, (p,))
                if isinstance(q, curves.Cubic):
                    post["pencil"] = rec.call(
                        curves.line_component, (p, q, case["euler"]))
            out.append((fits, post))
        return out

    def _fit_ok(self, pts, res) -> str | None:
        """None when the fit or its rank certificate is right, else why not."""
        curves = self.mods.curves
        rank_rational = self.mods.linalg.rank_rational
        rows = fit_rows(pts)
        rank, needed = rank_rational(rows), len(pts)
        if isinstance(res, curves.DegeneratePointSet):
            if (rank < needed and res.rank == rank and res.needed == needed
                    and len(res.independent) == rank
                    and rank_rational([rows[i] for i in res.independent]) == rank):
                return None
            return f"certificate {res.rank}/{res.needed} {res.independent}, rank {rank}"
        if rank == needed and all(res.evaluate(p) == 0 for p in pts):
            return None
        return f"fit {res!r} of a set of rank {rank}"

    def check(self, k, cases, out) -> Checked:
        curves = self.mods.curves
        attempted = raised = wrong = degenerate = 0
        notes = []

        def judge(label, res, why):
            nonlocal raised, wrong
            if isinstance(res, Exception):
                raised += 1
                notes.append(f"{label} raised {type(res).__name__}: {res}")
            elif why:
                wrong += 1
                notes.append(f"{label}: {why}")

        for case, (fits, post) in zip(cases, out):
            for (kind, pts), res in zip(case["fits"], fits):
                attempted += 1
                if isinstance(res, curves.DegeneratePointSet):
                    degenerate += 1
                    judge(f"{kind} fit", None, self._fit_ok(pts, res))
                else:
                    judge(f"{kind} fit", res, not isinstance(res, Exception)
                          and self._fit_ok(pts, res))
            attempted += len(post)
            p, matrix = fits[P_FIT], case["homothety"]
            image = post.get("transform")
            if "transform" in post:
                judge("transform_cubic", image, not isinstance(image, Exception)
                      and not all(image.evaluate(curves.transform_point(matrix, pt)) == 0
                                  for pt in case["fits"][P_FIT][1])
                      and f"image {image!r} misses the mapped points")
            if "hessian" in post:
                # the Hessian is a covariant: H(k o N) is H(k) o N up to scale
                hes = post["hessian"]
                judge("hessian", hes, not isinstance(hes, Exception) and (
                    not isinstance(hes, curves.Cubic)
                    or not isinstance(image, curves.Cubic)
                    or curves.hessian(image) != curves.transform_cubic(matrix, hes))
                    and f"{hes!r} is not covariant")
            if "pencil" in post:
                fact = post["pencil"]
                judge("line_component", fact, not isinstance(fact, Exception)
                      and curves.pencil_combination(p, fits[Q_FIT], fact.t)
                      != curves.Cubic(*line_times_conic(fact.line, fact.residual))
                      and f"{fact!r} does not factor the pencil member")
        counts = {"fits.degenerate": degenerate}
        return Checked(attempted, raised + wrong, wrong, counts, notes)


# ---------------------------------------------------------------------------
# center-queries

# centers whose rule needs unsquared sides, and the derived triangles whose
# sides are irrational: the pair is a documented refusal
ODD = ("X1", "X7", "X8", "X9", "X10", "X21", "X40", "X57", "X84", "X355")
WITHOUT_SIDES = ("excentral", "orthic", "midarc", "tangential")
DERIVED_KINDS = ("excentral", "medial", "orthic", "anticomplementary",
                 "euler", "midarc", "tangential")
# excentral-triangle centers that are classical base centers
EXCENTRAL_ROWS = {"X4": "X1", "X5": "X3", "X3": "X40", "X6": "X9"}


class CenterQueries:
    """Independent ``parse_center`` + ``eval_expr`` queries."""

    name = "center-queries"
    triangles_per_pass = 8       # half integer sides, half rational sides
    queries_per_triangle = 12
    passes_per_s = 6
    trace_passes = 10
    per_op = False

    def __init__(self, mods, seed: int, out_dir: Path):
        self.mods = mods
        self.seed = seed
        centers = mods.centers
        # aliases of catalog centers, and the catalog names themselves
        self.catalog = {name: e.cid.value for name, e in centers.ALIASES.items()
                        if isinstance(e, centers.Catalog)}
        self.catalog.update((c.value, c.value) for c in centers.CenterId)

    def _rational_triangle(self, rng):
        while True:
            a, b, c = sorted(Fraction(rng.randint(5, 80), rng.randint(2, 9))
                             for _ in range(3))
            if a == b or b == c or a + b <= c or a * a + b * b == c * c:
                continue
            return self.mods.kernel.RefTriangle(a, b, c)

    def inputs(self, k: int):
        centers = self.mods.centers
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        inner = [c.value for c in centers.CenterId if not c.value.startswith("Vertex")]
        derived = [c for c in inner if c != "X389"]
        names = sorted(self.catalog)
        cases = []
        for i in range(self.triangles_per_pass):
            if i % 2 == 0:
                t = centers.random_triangle(rng.randrange(1 << 30))
            else:
                t = self._rational_triangle(rng)
            queries = []
            for j in range(self.queries_per_triangle):
                form = j % 3
                if form == 0:
                    name = rng.choice(names)
                    queries.append((name, ("catalog", self.catalog[name])))
                elif form == 1:
                    kind, cid = rng.choice(DERIVED_KINDS), rng.choice(derived)
                    queries.append((f"center({kind},{cid})", ("center", kind, cid)))
                else:
                    kind = rng.choice(("base",) + DERIVED_KINDS)
                    cid = rng.choice(inner)
                    queries.append((f"isogonal({kind},{cid})", ("isogonal", kind, cid)))
            cases.append((t, queries))
        return cases

    def _query(self, t, text):
        centers = self.mods.centers
        return centers.eval_expr(t, centers.parse_center(text))

    def warmup(self, cases) -> None:
        t, queries = cases[0]
        self._query(t, queries[0][0])

    def run(self, cases, rec):
        refusal = self.mods.kernel.GeometryError
        return [[rec.call(self._query, (t, text), refusal)
                 for text, _ in queries] for t, queries in cases]

    def _expected(self, t, spec):
        """(expected refusal type name or None, expected point or a rule)."""
        centers, kernel = self.mods.centers, self.mods.kernel
        cid = centers.CenterId
        if spec[0] == "catalog":
            return None, centers.eval_center(t, cid(spec[1]))
        kind = centers.TriangleKind(spec[1])
        base = centers.eval_center(t, cid(spec[2]))
        if spec[0] == "center":
            if spec[1] in WITHOUT_SIDES and spec[2] in ODD:
                return "OddCenterWithoutSides", None
            if spec[1] == "medial":
                return None, centers.complement(base)
            if spec[1] == "anticomplementary":
                return None, centers.anticomplement(base)
            if spec[1] == "excentral" and spec[2] in EXCENTRAL_ROWS:
                return None, centers.eval_center(t, cid(EXCENTRAL_ROWS[spec[2]]))
            return None, "local"
        # isogonal conjugation is undefined on the sidelines of its triangle
        if kind is centers.TriangleKind.BASE:
            local = base
        else:
            sub = centers.derived_triangle(t, kind)
            local = kernel.local_coords(base, sub.v1, sub.v2, sub.v3)
        if 0 in local.triple:
            return "OnSideline", None
        return None, "involution"

    def _answer_ok(self, t, spec, res, want, oracles) -> bool:
        centers, kernel = self.mods.centers, self.mods.kernel
        cid = centers.CenterId
        if spec[0] == "catalog":
            return res == want and oracles[cid(spec[1])]
        if want == "local":
            sub = centers.derived_triangle(t, centers.TriangleKind(spec[1]))
            local = kernel.local_coords(res, sub.v1, sub.v2, sub.v3)
            return local == centers.eval_center(sub.metric(), cid(spec[2]))
        if want == "involution":
            point = centers.eval_center(t, cid(spec[2]))
            if spec[1] == "base":
                return centers.isogonal(t, res) == point
            sub = centers.derived_triangle(t, centers.TriangleKind(spec[1]))
            return centers.isogonal_in(t, sub, res) == point
        return res == want

    def check(self, k, cases, out) -> Checked:
        centers = self.mods.centers
        attempted = raised = wrong = refused = 0
        notes = []
        for (t, queries), results in zip(cases, out):
            oracles = dict(centers.validate_center_oracles(t))
            bad_oracles = [c.value for c, ok in oracles.items() if not ok]
            if bad_oracles:
                notes.append(f"oracles fail on {t!r}: {bad_oracles}")
            for (text, spec), res in zip(queries, results):
                attempted += 1
                refusal, want = self._expected(t, spec)
                if refusal is not None and type(res).__name__ == refusal:
                    refused += 1
                    continue
                if isinstance(res, Exception):
                    raised += 1
                elif refusal is None and self._answer_ok(t, spec, res, want, oracles):
                    continue
                else:
                    wrong += 1
                notes.append(f"{text} on {t!r} gave {res!r}"
                             + (f", expected {refusal}" if refusal else ""))
        counts = {"queries.refused": refused}
        return Checked(attempted, raised + wrong, wrong, counts, notes)


# ---------------------------------------------------------------------------
# figures


def embed(t):
    """Cartesian corners: A at the origin, B on the x-axis, C above it."""
    a2, b2, c2 = float(t.a2), float(t.b2), float(t.c2)
    c = math.sqrt(c2)
    cx = (b2 + c2 - a2) / (2 * c)
    return (0.0, 0.0), (c, 0.0), (cx, math.sqrt(max(b2 - cx * cx, 0.0)))


def relative_residual(coeffs, bary) -> float:
    """|F(p)| over sum |c_i| * max(|x|, |y|, |z|)**degree.

    The backward error of ``p`` as a point of ``F``.  Unlike a sum over
    F's terms at ``p`` it stays well-conditioned where every term vanishes,
    as at a vertex the curve passes through.
    """
    if len(coeffs) == 6:
        exps, weights, degree = CONIC_ROW, CONIC_WEIGHT, 2
    else:
        exps, weights, degree = CUBIC_ROW, (1,) * 10, 3
    value = sum(float(c) * m for c, m in zip(coeffs, _monomials(bary, exps, weights)))
    scale = (sum(abs(float(c)) * w for c, w in zip(coeffs, weights))
             * max(abs(v) for v in bary) ** degree)
    return abs(value) / scale


class Figures:
    """``build_figure`` + ``sample_csv`` for every curve-bearing scenario."""

    name = "figures"
    grid = 64
    max_residual = 1e-6
    passes_per_s = 1.1
    trace_passes = 3
    per_op = True

    def __init__(self, mods, seed: int, out_dir: Path):
        self.mods = mods
        self.seed = seed
        self.out_dir = out_dir
        self.config = mods.render.RenderConfig(grid=self.grid)

    def inputs(self, k: int):
        """One seeded triangle; every scenario whose figure has a curve.

        A scenario whose figure cannot be built on the triangle (the
        ``render`` command exits 65 there) is left out and counted.
        """
        centers, scenarios = self.mods.centers, self.mods.scenarios
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        t = centers.random_triangle(rng.randrange(1 << 30))
        ops, refused = [], 0
        for sid in scenarios.REGISTRY:
            try:
                figure = scenarios.build_figure(sid, t)
            except self.mods.kernel.GeometryError:
                refused += 1
                continue
            if figure["curves"]:
                ops.append(sid)
        return t, ops, refused

    def _path(self, i: int) -> Path:
        return self.out_dir / f"figure-{i}.csv"

    def _figure(self, t, sid, path):
        figure = self.mods.scenarios.build_figure(sid, t)
        return figure, self.mods.render.sample_csv(t, figure, self.config, str(path))

    def warmup(self, inputs) -> None:
        t, ops, _ = inputs
        self._figure(t, ops[0], self._path(0))

    def run(self, inputs, rec):
        t, ops, _ = inputs
        return [rec.call(self._figure, (t, sid, self._path(i)))
                for i, sid in enumerate(ops)]

    def check(self, k, inputs, out) -> Checked:
        t, ops, refused = inputs
        (ax, ay), (bx, by), (cx, cy) = embed(t)
        det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        raised, wrong, total_rows, notes = 0, 0, 0, []
        for i, (sid, res) in enumerate(zip(ops, out)):
            if isinstance(res, Exception):
                raised += 1
                notes.append(f"{sid} raised {type(res).__name__}: {res}")
                continue
            figure, rows = res
            curves = {label: c.coeffs for label, c in figure["curves"]}
            path = self._path(i)
            lines = path.read_text(encoding="utf-8").splitlines()
            worst = 0.0
            for line in lines[1:]:
                label, x, y = line.split(",")
                px, py = float(x), float(y)
                l2 = ((px - ax) * (cy - ay) - (cx - ax) * (py - ay)) / det
                l3 = ((bx - ax) * (py - ay) - (px - ax) * (by - ay)) / det
                worst = max(worst, relative_residual(
                    curves[label], (1.0 - l2 - l3, l2, l3)))
            path.unlink()
            total_rows += rows
            if len(lines) != rows + 1 or worst > self.max_residual:
                wrong += 1
                notes.append(f"{sid}: {rows} rows reported, {len(lines) - 1} "
                             f"written, worst residual {worst:.3g}")
        counts = {"render.rows": total_rows, "figures.refused": refused}
        return Checked(len(ops), raised + wrong, wrong, counts, notes)


WORKLOADS = {w.name: w for w in (VerifyAll, FitCertify, CenterQueries, Figures)}
