"""The work ledger: the pass work of each registry claim's check, pinned.

``tests/data/work_ledger.json`` maps each registry claim, in registry order,
to the pass work (``counting.pass_work``) of ``claims.verify(claim)`` at the
claim's default order, with the mock cache emptied first.  The mock cache is
the package's only series cache, so each count is deterministic.  A count
may fall below its pin; a change that raises one re-pins it.  Regenerate
the ledger with

    PYTHONPATH=src python tests/test_work_ledger.py > tests/data/work_ledger.json
"""

import json
from pathlib import Path

import pytest

from qseries import mock as mock_mod
from qseries.claims import registry, verify
from counting import pass_work

LEDGER = Path(__file__).parent / "data" / "work_ledger.json"


def claim_work(claim) -> int:
    """The pass work of ``verify(claim)`` from an empty mock cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mock_mod, "_cache", {})
        return pass_work(verify, claim)


@pytest.fixture(scope="module")
def pinned() -> dict[str, int]:
    return json.loads(LEDGER.read_text())


def test_the_ledger_pins_every_registry_claim(pinned):
    assert list(pinned) == [c.id for c in registry()]


@pytest.mark.parametrize("claim", registry(), ids=lambda c: c.id)
def test_a_claim_does_no_more_work_than_its_pin(claim, pinned):
    assert claim_work(claim) <= pinned[claim.id]


if __name__ == "__main__":
    print(json.dumps({c.id: claim_work(c) for c in registry()}, indent=1))
