"""Summary pins: every summary path must print what it printed when pinned.

``tests/data/summary-pins.json`` holds, for a few small runs, the full
``summary()`` values (each :class:`~repro.analysis.stats.TrialAggregate` as
its ``repr``, so every field and every bit counts) and the
``format_summary()`` text:

* comparisons with and without the physical layer (the physical metrics
  appear only when a run simulated it);
* a two-tenant run and a serving run;
* a study whose policies axis leaves one entry out at one point, tabulated
  over metrics that include ``fairness`` and ``delivered_success_rate``.

It also pins the sha256 of the ``record`` section (without ``meta``) of
``repro figure fig3|fig4 --scale tiny --trials 1 --json``, in its schema-2
view (``conftest.v2_view``): the layout the record was saved in when the
digest was taken.

To regenerate after an intended change to a summary::

    PYTHONPATH=src python tests/test_summary_pins.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from conftest import v2_view
from repro import api, cli

PINS_PATH = Path(__file__).parent / "data" / "summary-pins.json"

#: Record pins: one small run per summary shape.
RECORD_CASES = {
    "comparison": lambda: api.Scenario.tiny().with_trials(2),
    "comparison-physical": lambda: api.Scenario.tiny().with_trials(2).with_physical(),
    "multiuser": lambda: api.Scenario.tiny()
    .with_trials(2)
    .with_user("a")
    .with_user("b", "myopic-fixed"),
    "serving": lambda: api.Scenario.tiny().with_trials(2).with_serving(arrival_rate=1.0),
}

#: Study metrics: a derived one (fairness) and a physical one.
STUDY_METRICS = ("average_success_rate", "total_cost", "fairness", "delivered_success_rate")


def _study() -> api.Study:
    return (
        api.Study("pins")
        .base(api.Scenario.tiny().with_trials(1).with_physical())
        .over_policies(["oscar", "myopic-fixed"], ["oscar"])
    )


def _summary_reprs(summary) -> dict:
    return {
        name: {metric: repr(aggregate) for metric, aggregate in metrics.items()}
        for name, metrics in summary.items()
    }


def record_pin(stem: str) -> dict:
    """The summary values and table of record case ``stem``."""
    record = RECORD_CASES[stem]().run()
    return {
        "summary": _summary_reprs(record.summary()),
        "format_summary": record.format_summary(),
    }


def study_pin() -> dict:
    """The per-point summaries and the axis-aware table of the study case."""
    result = _study().run()
    return {
        "summaries": [_summary_reprs(summary) for summary in result.summaries()],
        "format_summary": result.format_summary(metrics=STUDY_METRICS),
    }


def figure_record_sha256(name: str) -> str:
    """sha256 of the ``record`` section, ``meta`` left out, of ``figure --json``,
    in the schema-2 layout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["figure", name, "--scale", "tiny", "--trials", "1", "--json"])
    assert code == 0
    record = v2_view(json.loads(stdout.getvalue())["record"])
    record.pop("meta")
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def all_pins() -> dict:
    return {
        "records": {stem: record_pin(stem) for stem in sorted(RECORD_CASES)},
        "study": study_pin(),
        "figure_records": {name: figure_record_sha256(name) for name in ("fig3", "fig4")},
    }


@pytest.fixture
def pins(monkeypatch):
    monkeypatch.delenv("REPRO_GUARD", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("stem", sorted(RECORD_CASES))
def test_record_summary_matches_pin(stem, pins):
    assert record_pin(stem) == pins["records"][stem]


def test_study_summary_matches_pin(pins):
    assert study_pin() == pins["study"]


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_figure_json_record_matches_pin(name, pins):
    assert figure_record_sha256(name) == pins["figure_records"][name]


if __name__ == "__main__":
    os.environ.pop("REPRO_GUARD", None)
    os.environ.pop("REPRO_TELEMETRY", None)
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else PINS_PATH
    target.write_text(json.dumps(all_pins(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}", file=sys.stderr)
