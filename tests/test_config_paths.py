"""Config paths: one name table, one setter, one loader.

``tests/data/config-name-pins.json`` was generated before the layer models
became config fields, when every layer was a group of flat, prefixed
fields.  It holds the flat ``dataclasses.asdict`` config each CLI layer
flag (``compare``, ``figure``, ``sweep``, ``serve`` at ``--scale tiny``),
each Study axis spelling and each benchmark workload yielded then, stored
as the difference from ``ExperimentConfig.tiny()``.  The tests here rebuild
every one through today's code, flatten the result back through
:data:`~repro.experiments.config.CONFIG_PATHS` and require equality, so no
name changed its meaning.  A removed knob (a spelling the table maps to
``None``) is left out of the comparison.  The pins that set one alone
(``--physical-engine`` and the ``physical.engine`` axis spellings) selected
something that is gone, so they are checked to be refused, not replayed: a
removed flag or swept knob fails loudly instead of being ignored.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro import api, cli
from repro.api import records
from repro.experiments.config import (
    CONFIG_PATHS,
    LAYERS,
    ConfigError,
    ExperimentConfig,
    resolve_path,
)

REPO = Path(__file__).resolve().parent.parent
PINS = json.loads((REPO / "tests" / "data" / "config-name-pins.json").read_text())


def flatten(config: ExperimentConfig) -> dict:
    """The flat field dictionary of earlier releases, read through the table.

    The flat names are the table's spellings without a dot.  A layer that
    is off reads its model's defaults, with its switch off.
    """
    flat = {}
    for spelling, path in CONFIG_PATHS.items():
        if path is None or "." in spelling or spelling in LAYERS:
            continue
        layer, _, key = path.partition(".")
        if not key:
            flat[spelling] = getattr(config, path)
            continue
        model = getattr(config, layer)
        if key == "enabled":
            flat[spelling] = model is not None
        elif model is None:
            default = LAYERS[layer][0]
            flat[spelling] = "off" if key == "level" else getattr(default(), key)
        else:
            flat[spelling] = getattr(model, key)
    # Scripted outages were [kind, element, start, duration] lists, or None.
    flat["fault_outages"] = [
        [o.kind, o.element, o.start, o.duration] for o in flat["fault_outages"]
    ] or None
    return json.loads(json.dumps(flat))


def expected(diff: dict) -> dict:
    pinned = {**PINS["tiny"], **diff}
    return {name: value for name, value in pinned.items() if CONFIG_PATHS[name] is not None}


def _sets_a_live_knob(pin: dict) -> bool:
    """Whether a pin exercises a knob that still exists."""
    if "path" in pin:
        return resolve_path(pin["path"]) is not None
    return "--physical-engine" not in pin["argv"]


CLI_PINS = [pin for pin in PINS["cli"] if _sets_a_live_knob(pin)]
AXIS_PINS = [pin for pin in PINS["axes"] if _sets_a_live_knob(pin)]
REMOVED_CLI_PINS = [pin for pin in PINS["cli"] if not _sets_a_live_knob(pin)]
REMOVED_AXIS_PINS = [pin for pin in PINS["axes"] if not _sets_a_live_knob(pin)]


class _Captured(BaseException):
    pass


@pytest.fixture
def capture_cli(monkeypatch):
    """Run a CLI command up to the config it hands to its runner."""
    seen = {}

    def grab(config):
        seen["config"] = config
        raise _Captured

    monkeypatch.setattr(api, "compare", lambda config, **kw: grab(config))
    monkeypatch.setattr(api, "run_scenario", lambda scenario, **kw: grab(scenario.config))
    monkeypatch.setattr(api.Study, "run", lambda self, **kw: grab(self._base_scenario().config))
    monkeypatch.setattr(cli.figures, "run", lambda name, config, **kw: grab(config))
    monkeypatch.setattr(cli.ablations, "run_all_report", lambda config, **kw: grab(config))

    def run(argv):
        with pytest.raises(_Captured):
            cli.main(list(argv))
        return seen["config"]

    return run


def test_flat_names_are_the_flat_fields_of_earlier_releases():
    flat = {s for s, p in CONFIG_PATHS.items() if p and "." not in s and s not in LAYERS}
    assert flat == set(expected({}))
    assert flatten(ExperimentConfig.tiny()) == expected({})


#: The flags each figure's sweep sets at every point.
SWEPT_FLAGS = {
    "fig10": ("--backend", "--signaling-latency"),
    "fig11": ("--edge-mtbf", "--fault-blind"),
}


@pytest.mark.parametrize("pin", CLI_PINS, ids=[" ".join(p["argv"]) for p in CLI_PINS])
def test_cli_flags_yield_the_pinned_config(pin, capture_cli, capsys):
    argv = pin["argv"]
    if argv[0] == "figure" and set(argv) & set(SWEPT_FLAGS.get(argv[1], ())):
        # The sweep would overwrite the flag, so the figure refuses it; the
        # same flags are pinned through fig3 and fig9.
        assert cli.main(list(argv)) == 2
        assert f"which {argv[1]} sweeps" in capsys.readouterr().err
        return
    assert flatten(capture_cli(argv)) == expected(pin["config"])


@pytest.mark.parametrize(
    "pin", AXIS_PINS, ids=[f"{p['path']}={p['value']}" for p in AXIS_PINS]
)
def test_study_axis_spellings_yield_the_pinned_config(pin):
    base = api.Scenario.from_config(
        ExperimentConfig.from_dict(expected(PINS["axis_base"])), name="pins"
    )
    point = api.Study("pins").base(base).over(pin["path"], [pin["value"]]).points()[0]
    assert flatten(point.scenario.config) == expected(pin["config"])


@pytest.mark.parametrize(
    "pin", REMOVED_CLI_PINS, ids=[" ".join(p["argv"]) for p in REMOVED_CLI_PINS]
)
def test_removed_cli_flags_are_refused(pin, capture_cli, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(list(pin["argv"]))
    assert exited.value.code == 2
    assert "unrecognized arguments: --physical-engine" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pin", REMOVED_AXIS_PINS, ids=[f"{p['path']}={p['value']}" for p in REMOVED_AXIS_PINS]
)
def test_removed_axis_spellings_are_refused(pin):
    with pytest.raises(ConfigError, match="is a removed setting; it cannot be swept"):
        api.Study("pins").over(pin["path"], [pin["value"]])


@pytest.mark.parametrize("name", sorted(PINS["workloads"]))
def test_benchmark_workloads_yield_the_pinned_config(name):
    sys.path.insert(0, str(REPO / "e2ebench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO / "e2ebench"))
    config = workloads.build_scenario(name, workloads.DEFAULT_SEED).config
    assert flatten(config) == expected(PINS["workloads"][name])


def test_flat_configs_load_through_the_table():
    flat = expected(PINS["workloads"]["event-faults"])
    config = ExperimentConfig.from_dict(flat)
    assert config.timing.backend == "event"
    assert config.faults.edge_mtbf == 40.0
    assert config.physical.purify_rounds == 1
    assert config.serving is None and config.telemetry is None
    assert flatten(config) == flat


def test_a_flat_layer_switched_off_loads_as_none_whatever_it_holds():
    flat = dict(PINS["tiny"], physical_swap_success=0.5, fault_mttr=-1.0,
                serving_arrival_rate=3.0, telemetry_span_ring=7)
    config = ExperimentConfig.from_dict(flat)
    assert (config.physical, config.faults, config.serving, config.telemetry) == (
        None, None, None, None
    )


def test_nested_configs_round_trip():
    config = ExperimentConfig.tiny().with_overrides(
        **{
            "faults.outages": [["node", "3", 2, 3]],
            "serving.arrival_trace": [1, 0, 2],
            "timing.edge_latencies": {"0|1": 0.002},
            "telemetry.level": "full",
            "physical.fidelity_constrained": True,
        }
    )
    payload = json.loads(json.dumps(dataclasses.asdict(config)))
    assert ExperimentConfig.from_dict(payload) == config


class TestSetter:
    def test_every_spelling_resolves_to_one_path(self):
        assert resolve_path("topology.kind") == "topology_kind"
        assert resolve_path("config.fault_edge_mtbf") == "faults.edge_mtbf"
        assert resolve_path("faults.fault_node_mtbf") == "faults.node_mtbf"
        assert resolve_path("timing.latency") == "timing.signaling_latency_s"
        assert resolve_path("slot_guard_time_s") == "timing.guard_time"
        assert resolve_path("serving.shards") is None
        assert resolve_path("physical.engine") is None
        assert resolve_path("physical_engine") is None

    def test_unknown_paths_raise_with_a_suggestion(self):
        with pytest.raises(ConfigError, match="did you mean 'faults.edge_mtbf'"):
            resolve_path("faults.edge_mtfb")
        with pytest.raises(ConfigError):
            api.Study("s").over("serving.shards", [1])

    def test_switches_apply_after_the_fields(self):
        config = ExperimentConfig.tiny()
        off = config.with_overrides(physical_enabled=False, physical_swap_success=0.9)
        assert off.physical is None
        assert config.with_overrides(telemetry_span_ring=9, telemetry_level="off").telemetry is None
        on = config.with_overrides(**{"physical.enabled": True})
        assert on.physical == LAYERS["physical"][0]()
        assert on.with_overrides(**{"physical.enabled": True}) == on


class TestStoreKey:
    def test_key_covers_the_record_schema(self, monkeypatch):
        scenario = api.Scenario.tiny()
        before = api.ResultStore.key_for(scenario)
        monkeypatch.setattr(records, "SCHEMA_VERSION", records.SCHEMA_VERSION + 1)
        assert api.ResultStore.key_for(scenario) != before

    def test_entry_of_an_older_schema_is_recomputed(self, tmp_path, monkeypatch):
        study = api.Study("s").base(api.Scenario.tiny().with_policies("oscar"))
        study.over("horizon", [4])
        assert study.run(store=tmp_path).meta["points_cached"] == 0
        assert study.run(store=tmp_path).meta["points_cached"] == 1
        monkeypatch.setattr(records, "SCHEMA_VERSION", records.SCHEMA_VERSION + 1)
        assert study.run(store=tmp_path).meta["points_cached"] == 0
