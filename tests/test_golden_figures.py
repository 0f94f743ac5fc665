"""Golden figure tables: fig3–fig11 at ``tiny`` scale must stay byte-identical.

Each golden file under ``tests/data/golden/`` is the ``format_tables()``
report of one figure, built exactly as ``repro figure <name> --scale tiny
--trials 1`` builds it.  fig3 and fig6 are pinned a second time in replay
mode (``dual_tolerance=0``), the kernel's fixed subgradient schedule; the
ablations are pinned once.  ``figure-json-pins.json`` holds the sha256 of
the same run's ``figure --json`` payload, with its wall-clock
``elapsed_seconds`` set to 0.

The tables only pin summaries.  ``slot-pins.json`` pins every driver's
per-slot output on small one-trial scenarios (:data:`SLOT_PIN_CASES`):
the sha256 of the serialised trial records and the merged kernel, physical,
event, serving and fault stats.  They catch per-slot and timestamp changes
the summaries average away.

Both digests hash the schema-2 view of the saved records
(``conftest.figure_payload_v2`` and ``conftest.v2_view``): the saved
payload goes through JSON, is decoded and is laid out one object per slot,
as the records were saved when the digests were taken.

To regenerate after an intended change to a figure::

    PYTHONPATH=src python tests/test_golden_figures.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from conftest import figure_payload_v2, v2_view
from repro import api
from repro.experiments import ablations, figures
from repro.experiments.config import ExperimentConfig

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

#: (golden file stem, figure, dual_tolerance override or None).
CASES = [(name, name, None) for name in figures.FIGURES] + [
    ("fig3-replay", "fig3", 0.0),
    ("fig6-replay", "fig6", 0.0),
    ("ablations", "ablations", None),
]

JSON_PINS = GOLDEN_DIR / "figure-json-pins.json"


def figure_result(name: str, dual_tolerance=None):
    """The tiny-scale, one-trial result of figure ``name``."""
    config = ExperimentConfig.tiny().with_overrides(trials=1)
    if dual_tolerance is not None:
        config = config.with_overrides(dual_tolerance=dual_tolerance)
    if name == "ablations":
        return ablations.run_all_report(config, workers=1)
    return figures.run(name, config, workers=1)


def json_digest(result) -> str:
    """sha256 of the ``figure --json`` payload in the schema-2 layout, its
    elapsed time set to 0."""
    payload = figure_payload_v2(result.to_dict())
    for key in ("record", "study"):
        meta = (payload.get(key) or {}).get("meta", {})
        if "elapsed_seconds" in meta:
            meta["elapsed_seconds"] = 0
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("stem,name,dual_tolerance", CASES, ids=[c[0] for c in CASES])
def test_figure_tables_match_golden(stem, name, dual_tolerance):
    result = figure_result(name, dual_tolerance)
    assert result.format_tables() == (GOLDEN_DIR / f"{stem}.txt").read_text()
    assert json_digest(result) == json.loads(JSON_PINS.read_text())[stem]


def _event_faults(aware: bool) -> api.Scenario:
    return (
        api.Scenario.tiny()
        .with_backend("event", latency=0.002)
        .with_physical(purify_rounds=1)
        .with_faults(edge_mtbf=20.0, mttr=3.0, aware=aware)
    )


def _serving(**overrides) -> api.Scenario:
    fields = {"arrival_rate": 1.0, **overrides}
    return api.Scenario.tiny().with_serving(**fields)


#: Physical settings under which purification and swapping each fail some
#: deliveries of a tiny run and the fidelity target rejects some.
_CHAIN_STAGES = dict(
    purify_rounds=2, swap_success=0.8, cutoff_fidelity=0.6, fidelity_target=0.7
)


#: Per-slot pins: one small one-trial scenario per driver and layer mix.
SLOT_PIN_CASES = {
    "slotted-physical": lambda: api.Scenario.tiny().with_physical(),
    "slotted-blind-faults": lambda: api.Scenario.tiny()
    .with_physical()
    .with_faults(edge_mtbf=20.0, mttr=3.0, aware=False),
    "event-aware-faults": lambda: _event_faults(aware=True),
    "event-blind-faults": lambda: _event_faults(aware=False),
    "multiuser-physical": lambda: api.Scenario.tiny()
    .with_user("a")
    .with_user("b", "myopic-fixed")
    .with_physical(),
    "serving-faults": lambda: api.Scenario.tiny()
    .with_serving(arrival_rate=1.0)
    .with_faults(edge_mtbf=20.0, mttr=3.0),
    "serving-renewals": lambda: _serving(session_lifetime=3, renew_probability=0.9),
    "serving-token-bucket": lambda: _serving(
        arrival_rate=1.5, admission="token-bucket", token_rate=0.2, token_burst=1.0
    ),
    "serving-trace": lambda: _serving(arrival_kind="trace", arrival_trace=[2, 0, 1]),
    # Admission binds and sees state up to four slots old; the long-lived
    # sessions leave requests queued at departure (partial FIFO service).
    "serving-stale-admission": lambda: api.Scenario.small()
    .with_workload(horizon=300)
    .with_serving(
        arrival_rate=2.0,
        session_rate=4.0,
        admission="backlog-threshold",
        admission_threshold=50,
        merge_every=5,
    ),
    # Above rate 10 numpy draws Poisson counts with a different algorithm.
    "serving-high-rate": lambda: _serving(session_rate=12),
    # Capacity is 0 or 1 per slot, so the backlog grows.
    "serving-starved": lambda: _serving(session_budget=2),
    "serving-availability-gate": lambda: _serving(
        arrival_rate=1.5, session_rate=2.5, admission="availability-gate"
    ).with_faults(node_mtbf=15.0, edge_mtbf=15.0, mttr=3.0),
    "serving-silent": lambda: _serving(session_rate=0),
    # Every stage of the chain fires, the memory cutoff too: stored pairs
    # decay below it over their measured event-timed dwell.
    "event-cutoff": lambda: api.Scenario.tiny()
    .with_backend("event", latency=0.004)
    .with_physical(memory_time=0.5, **_CHAIN_STAGES),
    # One- to three-hop routes: swap messages, heralds past the deadline and
    # latency misses, with one edge slower than the rest.
    "event-multihop": lambda: api.Scenario.tiny()
    .with_topology(num_nodes=12)
    .with_workload(horizon=30)
    .with_policies("shortest-uniform")
    .with_backend("event", latency=0.05, edge_latencies={"2|7": 0.2})
    .with_physical(memory_time=1.0),
    "slotted-purify-swap": lambda: api.Scenario.tiny().with_physical(
        memory_time=1.0, **_CHAIN_STAGES
    ),
    # Slots with more requests than exhaustive search takes: Gibbs
    # proposals reach the per-combination solve, beside batched slots.
    "small-gibbs": lambda: api.Scenario.small()
    .with_workload(horizon=20)
    .with_physical(),
    # The same Gibbs path in replay mode (the fixed schedule from zero).
    "small-gibbs-replay": lambda: api.Scenario.small()
    .with_workload(horizon=12)
    .with_config(dual_tolerance=0.0),
}

#: Record fields a multi-user pin leaves out: the tenants' slot records
#: historically left them empty.
_MULTIUSER_UNPINNED = ("realized_fidelities", "queue_length")


def slot_pins(stem: str) -> dict:
    """The per-slot digest and merged layer stats of pin case ``stem``."""
    record = SLOT_PIN_CASES[stem]().with_trials(1).run()
    trials = v2_view(record.to_dict())["trials"]
    if record.kind == "multiuser":
        for trial in trials:
            for result in trial.values():
                for entry in result["records"]:
                    for key in _MULTIUSER_UNPINNED:
                        entry.pop(key, None)
    digest = hashlib.sha256(json.dumps(trials, sort_keys=True).encode()).hexdigest()
    return {
        "trials_sha256": digest,
        "kernel": record.stats("kernel"),
        "physical": record.stats("physical"),
        "event": record.stats("eventsim"),
        "serving": record.stats("serving"),
        "fault": record.stats("faults"),
    }


def _golden_slot_pins() -> dict:
    return json.loads((GOLDEN_DIR / "slot-pins.json").read_text())


@pytest.mark.parametrize("stem", sorted(SLOT_PIN_CASES))
def test_slot_pins_match_golden(stem, monkeypatch):
    monkeypatch.delenv("REPRO_GUARD", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    assert slot_pins(stem) == _golden_slot_pins()[stem]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    json_pins = {}
    for stem, name, dual_tolerance in CASES:
        result = figure_result(name, dual_tolerance)
        (GOLDEN_DIR / f"{stem}.txt").write_text(result.format_tables())
        json_pins[stem] = json_digest(result)
        print(f"wrote {stem}", file=sys.stderr)
    JSON_PINS.write_text(json.dumps(json_pins, indent=2, sort_keys=True) + "\n")
    pins = {stem: slot_pins(stem) for stem in sorted(SLOT_PIN_CASES)}
    (GOLDEN_DIR / "slot-pins.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print("wrote slot-pins", file=sys.stderr)
