"""Negative controls generated from what a claim reads.

A must-pass claim that reads "100/100" shows something only if its check can
fail.  For each must-pass point equality of the correspondence scenarios,
and thm7's antipode check, a recording Trial logs the names the check reads;
the last one is the right-hand name.  Preset in a fresh Trial to a different
catalog point, it must make the claim fail with a certificate on each of
seeds 0-4.  For each must-pass membership (the fit-consistency rows, the
isogonal characterizations and the members of the base curves), the first
curve the check reads is preset to another curve of the same degree, which
must make the claim fail the same way.
"""

import pytest

from tricurves.centers import random_triangle
from tricurves.curves import Conic, Cubic
from tricurves.kernel import GeometryError
from tricurves.scenarios import MUST, REGISTRY, Failure, Trial, evaluate

CORRESPONDENCES = ("corr-excentral", "corr-medial", "corr-euler", "corr-midarc")
SUBSTITUTES = ("H", "O", "M", "I", "K", "E", "L", "X7", "X8")
SEEDS = range(5)

POINT_EQUALITIES = [(sid, claim.id) for sid in CORRESPONDENCES
                    for claim in REGISTRY[sid].claims
                    if claim.expectation == MUST and claim.kind == "point-equality"]
# point equalities outside the correspondences, checked the same way
OTHER_POINT_EQUALITIES = [("thm7-darboux-euler", "antipode-consistency")]

MEMBERSHIPS = [(sid, claim.id) for sid, sc in REGISTRY.items() for claim in sc.claims
               if claim.expectation == MUST and claim.kind == "membership"]
# the curves a preset takes its value from, by degree
CURVE_SUBSTITUTES = {
    Conic: ("exc_conic", "midarc_conic", "jerabek"),
    Cubic: ("thomson", "darboux", "lucas", "thm2_cubic", "thm3_cubic", "thm5_cubic",
            "thm6_cubic", "thm7_cubic"),
}


class Recorder(Trial):
    """A Trial that logs each name read through it, in the order the reads
    finish, so a read's nested reads come before it."""

    def __init__(self, t):
        super().__init__(t)
        self.reads = []

    def __getitem__(self, name):
        value = super().__getitem__(name)
        self.reads.append(name)
        return value


def _outcome(sid: str, cid: str, tr: Trial):
    """The claim's outcome on ``tr``, or the refusal of a setup that cannot
    take the preset value (M3 := H in thm7 repeats a point of its fit)."""
    sc = REGISTRY[sid]
    try:
        outcomes = evaluate(sc, tr)
    except GeometryError as exc:
        return exc
    return dict(zip((c.id for c in sc.claims), outcomes))[cid]


def _breaks(outcome) -> bool:
    return isinstance(outcome, Failure) and bool(outcome.lhs) and bool(outcome.rhs)


def _preset(t, name: str, substitute: str) -> Trial:
    """A fresh Trial of ``t`` whose ``name`` holds the value of ``substitute``."""
    tr = Trial(t)
    tr[name] = Trial(t)[substitute]
    return tr


def test_every_correspondence_point_equality_is_covered():
    assert len(POINT_EQUALITIES) == 22


def _reads(sid: str, cid: str, t) -> Recorder:
    """A Recorder of ``t`` after the scenario's setup and one passing check,
    holding the names that check read."""
    sc = REGISTRY[sid]
    recorder = Recorder(t)
    sc.setup(recorder)
    del recorder.reads[:]
    assert next(c for c in sc.claims if c.id == cid).check(recorder) is None
    return recorder


def _ids(rows):
    return [f"{sid}:{cid}" for sid, cid in rows]


@pytest.mark.parametrize("sid, cid", POINT_EQUALITIES + OTHER_POINT_EQUALITIES,
                         ids=_ids(POINT_EQUALITIES + OTHER_POINT_EQUALITIES))
def test_preset_right_hand_name_fails_the_claim(sid, cid):
    for seed in SEEDS:
        t = random_triangle(seed)
        rhs = _reads(sid, cid, t).reads[-1]
        assert any(_breaks(_outcome(sid, cid, _preset(t, rhs, substitute)))
                   for substitute in SUBSTITUTES), (seed, rhs)


def test_every_must_pass_membership_is_covered():
    others = [row for row in MEMBERSHIPS if row[1] != "fit-consistency"]
    assert len(MEMBERSHIPS) - len(others) == 7
    assert others == [
        ("thm1-jerabek-excentral", "isogonal-characterization"),
        ("thm8-jerabek-midarc", "isogonal-characterization"),
        ("defs-sanity", "isogonal-conic-members"),
        ("defs-sanity", "isogonal-conic-characterization"),
        ("defs-sanity", "median-cubic-members"),
        ("defs-sanity", "reflection-cubic-members")]


@pytest.mark.parametrize("sid, cid", MEMBERSHIPS, ids=_ids(MEMBERSHIPS))
def test_preset_curve_fails_the_membership(sid, cid):
    for seed in SEEDS:
        t = random_triangle(seed)
        recorder = _reads(sid, cid, t)
        curve = next(name for name in recorder.reads
                     if isinstance(recorder[name], (Conic, Cubic)))
        others = CURVE_SUBSTITUTES[type(recorder[curve])]
        assert any(_breaks(_outcome(sid, cid, _preset(t, curve, substitute)))
                   for substitute in others if substitute != curve), (seed, curve)
