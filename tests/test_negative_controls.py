"""Negative controls generated from what a claim reads.

A must-pass claim that reads "100/100" shows something only if its check can
fail.  For each must-pass point equality of the correspondence scenarios, a
recording Trial logs the names the check reads; the last one is the
right-hand name.  Preset in a fresh Trial to a different catalog point, it
must make the claim fail with a certificate on each of seeds 0-4.
"""

import pytest

from tricurves.centers import random_triangle
from tricurves.scenarios import MUST, REGISTRY, Failure, Trial, evaluate

CORRESPONDENCES = ("corr-excentral", "corr-medial", "corr-euler", "corr-midarc")
SUBSTITUTES = ("H", "O", "M", "I", "K", "E", "L", "X7", "X8")
SEEDS = range(5)

POINT_EQUALITIES = [(sid, claim.id) for sid in CORRESPONDENCES
                    for claim in REGISTRY[sid].claims
                    if claim.expectation == MUST and claim.kind == "point-equality"]


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
    sc = REGISTRY[sid]
    return dict(zip((c.id for c in sc.claims), evaluate(sc, tr)))[cid]


def _breaks(outcome) -> bool:
    return isinstance(outcome, Failure) and bool(outcome.lhs) and bool(outcome.rhs)


def _preset(t, name: str, substitute: str) -> Trial:
    """A fresh Trial of ``t`` whose ``name`` holds the value of ``substitute``."""
    tr = Trial(t)
    tr[name] = Trial(t)[substitute]
    return tr


def test_every_correspondence_point_equality_is_covered():
    assert len(POINT_EQUALITIES) == 22


@pytest.mark.parametrize("sid, cid", POINT_EQUALITIES,
                         ids=[f"{sid}:{cid}" for sid, cid in POINT_EQUALITIES])
def test_preset_right_hand_name_fails_the_claim(sid, cid):
    sc = REGISTRY[sid]
    claim = next(c for c in sc.claims if c.id == cid)
    for seed in SEEDS:
        t = random_triangle(seed)
        recorder = Recorder(t)
        sc.setup(recorder)
        del recorder.reads[:]
        assert claim.check(recorder) is None, seed
        rhs = recorder.reads[-1]
        assert any(_breaks(_outcome(sid, cid, _preset(t, rhs, substitute)))
                   for substitute in SUBSTITUTES), (seed, rhs)
