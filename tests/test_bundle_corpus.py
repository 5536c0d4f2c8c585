"""Bundle-corpus regression: golden verdicts, serial and sharded.

Every bundle under ``examples/bundles/`` carries an ``"expected"``
object with its golden verdicts (``load_bundle`` ignores the extra
key).  The corpus test decides each bundle at ``workers ∈ {1, 2}`` and
asserts the verdict — and the counterexample answer, which the
parallel drivers guarantee is the serial-first witness — against the
goldens, so a regression in either the deciders or the sharding layer
shows up as a golden mismatch on real example data.

The ``audit`` golden is optional per bundle: the §2.3 cascade includes
an RCQP search that is prohibitively slow for some of the shipped
scenarios, so only cheap bundles pin the audit verdict.
"""

import json
from pathlib import Path

import pytest

from repro.core.rcdp import decide_rcdp
from repro.io.json_io import load_bundle
from repro.mdm.audit import CompletenessAudit

# The pool is this suite's subject: hand every search at workers > 1
# to it at the first candidate instead of finishing in-process.
pytestmark = pytest.mark.usefixtures("no_head_start")

BUNDLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples"
     / "bundles").glob("*.json"))


def _expected(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert "expected" in payload, (
        f"{path.name} lacks the golden 'expected' block")
    return payload["expected"]


def test_corpus_is_nonempty():
    assert BUNDLES, "examples/bundles/ should ship golden bundles"


def test_every_generator_family_has_a_pinned_golden():
    """One seed-pinned generated scenario per domain family rides in the
    corpus (exported by ``examples/export_bundles.py``); its ``corpus``
    block records the generator coordinates that reproduce it."""
    from repro.corpus import FAMILIES
    by_name = {path.name: path for path in BUNDLES}
    for family in FAMILIES:
        name = f"gen_{family}_golden.json"
        assert name in by_name, f"missing generated golden for {family}"
        with open(by_name[name], encoding="utf-8") as handle:
            payload = json.load(handle)
        corpus = payload.get("corpus")
        assert corpus is not None, f"{name} lacks its 'corpus' block"
        assert corpus["family"] == family
        assert corpus["seed"] == 9
        assert "rcdp" in payload["expected"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "path", BUNDLES, ids=[path.stem for path in BUNDLES])
def test_rcdp_verdict_matches_golden(path, workers):
    expected = _expected(path)
    bundle = load_bundle(str(path))
    result = decide_rcdp(bundle["query"], bundle["database"],
                         bundle["master"], bundle["constraints"],
                         workers=workers)
    assert result.status.value == expected["rcdp"], (
        f"{path.name} at workers={workers}: "
        f"{result.status.value} != {expected['rcdp']}")
    if "new_answer" in expected:
        assert result.certificate is not None
        assert (list(result.certificate.new_answer)
                == expected["new_answer"])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "path",
    [path for path in BUNDLES if "audit" in _expected(path)],
    ids=[path.stem for path in BUNDLES if "audit" in _expected(path)])
def test_audit_verdict_matches_golden(path, workers):
    expected = _expected(path)
    bundle = load_bundle(str(path))
    audit = CompletenessAudit(
        master=bundle["master"], constraints=bundle["constraints"],
        schema=bundle["schema"], workers=workers)
    report = audit.assess(bundle["query"], bundle["database"])
    assert report.verdict.value == expected["audit"], (
        f"{path.name} at workers={workers}: "
        f"{report.verdict.value} != {expected['audit']}")
