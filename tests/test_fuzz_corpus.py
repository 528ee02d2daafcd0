"""Replay every persisted fuzz find (``tests/corpus/``) through the oracle.

Each corpus entry is a shrunk scenario spec that once diverged (written by
``repro fuzz run`` on failure, or hand-seeded from a fuzz session).  Tier-1
replays the whole directory forever: an ``expect: ok`` entry must pass all
six invariants now that its bug is fixed; an ``expect: invalid`` entry
records a spec combination the harness has since learned to reject at
construction.  Committing a fuzz find is all it takes to pin it.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro._compat import HAVE_NUMPY
from repro.fuzz import check_invariants
from repro.harness.scenario import Scenario

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
ENTRIES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_is_nonempty():
    assert ENTRIES, f"no corpus entries under {CORPUS_DIR}"


@pytest.mark.parametrize("path", ENTRIES,
                         ids=[os.path.basename(p) for p in ENTRIES])
def test_corpus_entry_stays_fixed(path):
    entry = _load(path)
    spec = entry["scenario"]
    assert entry["failed"], "corpus entries must record what diverged"
    if entry.get("expect", "ok") == "invalid":
        with pytest.raises(ValueError):
            Scenario.from_dict(spec)
        return
    if spec["dataset"].get("generator", "sbm") == "sbm" and not HAVE_NUMPY:
        pytest.skip("sbm dataset generator needs numpy")
    report = check_invariants(Scenario.from_dict(spec))
    assert report.ok, (
        f"{os.path.basename(path)} regressed: "
        + "; ".join(f"{o.invariant}: {o.detail}" for o in report.failures))
