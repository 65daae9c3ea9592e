"""Golden digests: outputs that must not change when the crystal kernels
are reworked.  Each digest is the sha256 of an output as it stood before
the kernels moved from integer factor ids to factor weights, or, for the
Schutzenberger maps over A3, C3, B3 and the E6 sample, before the descent
to a component's bottom became the dual of the ascent; a change that
moves one of them changes what the package computes."""
import hashlib
import io
import random

import pytest

from minuscule import battery, crystals
from minuscule.cli import run
from minuscule.paths import WeightSequence
from minuscule.rootsys import build_root_system


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_schutzenberger_over_the_whole_d4_crystal():
    D4 = build_root_system("D", 4)
    seq = WeightSequence(D4, (D4.fundamental_weight(1),) * 4)
    sample = list(crystals.all_elements(seq))
    assert len(sample) == 4096
    images = [b.factors for b in crystals.schutzenberger_all(sample)]
    assert sha256(repr(images)) == (
        "9c1c89693b4f7d6cd158dd6404c2da48109fe43facc49215f1a6eda00b73d478")


@pytest.mark.parametrize("family, rank, indices, size, digest", [
    ("A", 3, (2, 2, 2, 2), 1296,
     "7dd590302f5beb20410a2a296f6bbe541532e580217fa65e978b9c7f4466eebd"),
    ("C", 3, (1, 1, 1, 1), 1296,
     "6ac638298e7c2b21dc2f5dd1fe628482000b90b8f17e62aa81e96546b001e2b9"),
    ("B", 3, (3, 3, 3, 3), 4096,
     "480b12176632557ed3093fe5546c29e94309137a86df7f0ce974aa2db5552760"),
])
def test_schutzenberger_over_a_whole_crystal(family, rank, indices, size, digest):
    rs = build_root_system(family, rank)
    seq = WeightSequence(rs, tuple(rs.fundamental_weight(i) for i in indices))
    sample = list(crystals.all_elements(seq))
    assert len(sample) == size
    assert sha256(repr([b.factors for b in crystals.schutzenberger_all(sample)])) == digest


def test_schutzenberger_over_the_e6_battery_sample():
    # the invariants and the seeded random sample that the crystal-coherence
    # suite draws for E6 (1,6,1,6), the one case past the exhaustive limit
    E6 = build_root_system("E", 6)
    w1, w6 = E6.fundamental_weight(1), E6.fundamental_weight(6)
    sample, whole = battery._crystal_sample(WeightSequence(E6, (w1, w6, w1, w6)), random.Random(0))
    assert len(sample) == 303 and not whole
    images = [b.factors for b in crystals.schutzenberger_all(sample)]
    assert sha256(repr(images)) == (
        "45f9eed5daa6c605c0a194d81914f5e0178306b062c7cbebc478053208751ab6")


def test_commutor_over_the_invariants_of_every_registry_case():
    rotated = [(battery.describe(seq),
                [crystals.commutor_rotate(b).factors for b in crystals.invariant_elements(seq)])
               for seq in battery.standard_battery()]
    assert sha256(repr(rotated)) == (
        "ff41891e1ba8f99afc6f8a9c79687894f2044c7ede5c099f98ac7822e44d04ba")


def test_full_battery_json_stdout():
    out, err = io.StringIO(), io.StringIO()
    code = run(["battery", "--scope", "full", "--format", "json"], stdout=out, stderr=err,
               stdin=io.StringIO(""))
    assert (code, err.getvalue()) == (0, "")
    assert sha256(out.getvalue()) == (
        "28a705313b083fb6487e2bff8fd509197e7f0e39d02350a62db88cdebda3fa12")
