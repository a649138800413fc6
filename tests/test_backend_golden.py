"""Golden outcomes of the hand-written backends.

``tests/test_figure2_matrix.py`` pins each backend's *verdicts*; this
file pins the rest of every outcome — status, rendered type, error class
and error message — on the Figure-2 rows for the six baselines and on
the tc211 rows for the two policy-axis baselines under every policy.  A
refactor of the shared backend machinery must leave all of them alone.

The expected file was generated by this module and is identical under
``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1``.  Regenerate it (only for
an intended behaviour change, listed in CHANGES.md) with::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_backend_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.baselines.registry import SYSTEMS, SystemOutcome
from repro.core.policy import POLICIES
from repro.evalsuite.figure2 import FIGURE2, figure2_env
from repro.evalsuite.policies import TC211

GOLDEN = Path(__file__).parent / "golden" / "backend_outcomes.json"
BASELINES = ("HM", "HMF", "HMF-N", "RankN", "FreezeML", "QuickLook")
POLICY_BASELINES = ("RankN", "QuickLook")


def _entry(outcome: SystemOutcome) -> dict:
    return {
        "status": outcome.status.value,
        "type": None if outcome.type_ is None else str(outcome.type_),
        "error": outcome.error,
        "detail": outcome.detail,
    }


def collect() -> dict[str, dict]:
    """``{"<corpus>/<row>/<system>[/<policy>]": outcome entry}``."""
    env = figure2_env()
    outcomes: dict[str, dict] = {}
    for name in BASELINES:
        for example in FIGURE2:
            outcome = SYSTEMS[name].run(example.term, env)
            outcomes[f"figure2/{example.key}/{name}"] = _entry(outcome)
    for policy in POLICIES:
        for name in POLICY_BASELINES:
            for example in TC211:
                outcome = SYSTEMS[name].run(example.term, env, policy=policy)
                outcomes[f"tc211/{example.key}/{name}/{policy.name}"] = _entry(outcome)
    return outcomes


def test_backend_outcomes_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = collect()
    assert actual.keys() == expected.keys()
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, {key: (expected[key], actual[key]) for key in changed[:5]}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
