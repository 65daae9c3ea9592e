"""Golden digests: outputs that must not change when the crystal kernels
are reworked.  Each digest is the sha256 of an output as it stood before
the kernels moved from integer factor ids to factor weights; a change that
moves one of them changes what the package computes."""
import hashlib
import io

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
