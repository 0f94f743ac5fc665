"""Guard and telemetry at ``off`` build nothing, on every driver.

The structural form of the off-overhead contract: with both levels off and
``REPRO_GUARD``/``REPRO_TELEMETRY`` unset, a run never constructs an
:class:`~repro.guard.InvariantGuard`, a :class:`~repro.telemetry.Tracer` or
a :class:`~repro.guard.FlightRecorder`, so the off path costs one level
check per run and nothing per slot.  The test patches the three
constructors to raise and runs one tiny trial of each driver.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.guard.invariants import InvariantGuard
from repro.guard.recorder import FlightRecorder
from repro.telemetry.tracer import Tracer

DRIVERS = {
    "slotted": lambda base: base,
    "event": lambda base: base.with_backend("event", latency=0.002),
    "multiuser": lambda base: base.with_user("a").with_user("b", "myopic-fixed"),
    "serving": lambda base: base.with_serving(arrival_rate=1.0),
}


class ConstructorCalled(AssertionError):
    """A guard, tracer or flight recorder was built at level ``off``."""


@pytest.fixture
def forbid_construction(monkeypatch):
    monkeypatch.delenv("REPRO_GUARD", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    for cls in (InvariantGuard, Tracer, FlightRecorder):

        def refuse(self, *args, _name=cls.__name__, **kwargs):
            raise ConstructorCalled(f"{_name} built with guard and telemetry off")

        monkeypatch.setattr(cls, "__init__", refuse)


def _scenario(driver: str) -> api.Scenario:
    base = api.Scenario.tiny().with_workload(horizon=4).with_trials(1)
    return DRIVERS[driver](base)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_off_builds_no_guard_tracer_or_recorder(driver, forbid_construction):
    scenario = _scenario(driver)
    assert scenario.config.guard_level == "off"
    assert scenario.config.telemetry is None
    record = scenario.run()
    assert record.num_trials == 1
    assert record.stats("guard") is None
    assert record.stats("telemetry") is None


@pytest.mark.parametrize(
    "arm", [lambda s: s.with_guard("cheap"), lambda s: s.with_telemetry("light")],
    ids=["guard", "telemetry"],
)
def test_armed_level_trips_the_patch(arm, forbid_construction):
    # The control: the patch does catch a construction when a level is on.
    with pytest.raises(ConstructorCalled):
        arm(_scenario("slotted")).run()
