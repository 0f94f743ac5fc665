"""Scenario execution: serial or process-parallel trials, streamed events.

A :class:`Session` runs the trials of a :class:`~repro.api.scenario.Scenario`
and returns a :class:`~repro.api.records.RunRecord`.  Each trial is a pure
function of ``(scenario, trial_index)``: its topology, trace and simulation
streams are derived from the scenario's base seed with
:func:`repro.utils.rng.derive_seed`, exactly as the serial runner has always
done — so running with ``workers > 1`` in a process pool produces results
bit-identical to a serial run of the same scenario.

While trials execute, the session emits the event stream documented in
:mod:`repro.api.events` to its observers (progress reporting, live metrics,
early stop).  In parallel mode, per-slot events are replayed in trial order
once each trial's results arrive, so observer invocation order is
deterministic in both modes.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig

from repro.api.events import (
    EarlyStop,
    RunCompleted,
    RunEvent,
    RunObserver,
    RunStarted,
    SlotCompleted,
    TrialCompleted,
    TrialStarted,
)
from repro.api.records import RunRecord
from repro.api.scenario import Scenario, check_driver_combination
from repro.core.multiuser import MultiUserSimulator, ProviderSlotRecord
from repro.faults import PoolSupervisor, RunCheckpoint, WorkerPoolError, checkpoint_key
from repro.guard.invariants import GUARD_ENV_VAR, GUARD_LEVELS, InvariantViolation
from repro.guard.recorder import FlightRecorder, dump_bundle
from repro.serving.scheduler import SERVING_LINEUP_NAME
from repro.simulation.engine import build_simulator
from repro.telemetry import hooks as telemetry_hooks
from repro.simulation.results import SimulationResult
from repro.utils.rng import derive_seed
from repro.utils.validation import effective_level

#: One executed trial: line-up results plus provider records (multi-user only).
TrialOutcome = Tuple[Dict[str, SimulationResult], Tuple[ProviderSlotRecord, ...]]


def execute_trial(
    scenario: Scenario,
    trial: int,
    on_slot: Optional[Callable[[str, object], Optional[bool]]] = None,
) -> TrialOutcome:
    """Run one trial of ``scenario`` (the unit of parallelism).

    The trial is wired by :func:`build_trial`, whose seed derivation
    mirrors the historical serial runner slot for slot — results therefore
    do not depend on which process executes the trial.

    With the invariant guard armed (``guard_level`` or ``REPRO_GUARD`` not
    ``"off"``), a flight recorder shadows the trial and any invariant breach
    or unhandled exception dumps a content-addressed repro bundle before
    re-raising — ``repro replay <bundle>`` re-executes the trial
    deterministically (:mod:`repro.guard.replay`).  Guard off runs the
    historical path with zero extra work.
    """
    level = effective_level(scenario.config.guard_level, GUARD_ENV_VAR, GUARD_LEVELS)
    if level == "off":
        return _execute_trial_inner(scenario, trial, on_slot)
    recorder = FlightRecorder()
    # Forget any previous trial's tracer in this worker process, so a crash
    # bundle only ever attaches the span ring of the trial that crashed.
    telemetry_hooks.reset()

    def recording_slot(name: str, record: object) -> Optional[bool]:
        recorder.record(name, record)
        return on_slot(name, record) if on_slot is not None else None

    try:
        return _execute_trial_inner(scenario, trial, recording_slot)
    except EarlyStop:
        # An observer-requested stop is a clean wind-down, not a failure.
        raise
    except BaseException as exc:
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        # The recorder is best-effort: a failure while snapshotting the
        # scenario or writing the bundle must never mask the real error.
        try:
            # The simulator's activation has already unwound by now; the
            # hooks keep the crashed trial's tracer reachable so its span
            # ring rides the bundle (outside the content key — span
            # timings are wall-clock and must not perturb replay identity).
            tracer = telemetry_hooks.last()
            spans = tracer.tail() if tracer is not None else None
            path = dump_bundle(
                scenario.to_dict(),
                trial,
                level,
                recorder=recorder,
                error=exc,
                telemetry=spans,
            )
        except Exception as dump_error:
            # Not a warning: under ``-W error`` a warning raised here would
            # mask the original exception all over again.
            print(
                f"[guard] could not dump a repro bundle for {exc!r}: "
                f"{dump_error!r}",
                file=sys.stderr,
            )
        else:
            if isinstance(exc, InvariantViolation):
                exc.bundle_path = path
                exc.details["bundle_path"] = path
        raise


def build_trial(scenario: Scenario, trial: int) -> Tuple[object, int]:
    """The simulator of trial ``trial`` of ``scenario`` and the seed of its run.

    The one place a trial is wired, for every driver: the graph, fault
    schedule and trace come from ``derive_seed(base, "graph"|"faults"|
    "trace", trial)``, and the run seed is ``derive_seed(base, "run"|
    "multiuser"|"serving", trial)`` — so results never depend on which
    process builds the trial.  Comparisons return the backend's simulator;
    its run seed is split over the line-up with ``spawn_rngs``.
    """
    config = scenario.config
    check_driver_combination(config, len(scenario.users))
    seed = config.base_seed
    graph = config.build_graph(seed=derive_seed(seed, "graph", trial))
    # The fault schedule draws from its own spawned stream, so enabling it
    # perturbs no other stream; fault-free runs skip this branch entirely.
    faults = None
    if config.faults is not None:
        faults = config.build_faults(graph, derive_seed(seed, "faults", trial))
    timing = config.timing
    clock = timing.slot_clock(graph.attempts_per_slot)
    layers = dict(
        faults=faults,
        guard_level=config.guard_level,
        telemetry=config.telemetry,
    )
    routes = dict(
        num_candidate_routes=config.num_candidate_routes,
        max_extra_hops=config.max_extra_hops,
    )
    if scenario.is_serving:
        from repro.serving.scheduler import ServingSimulator

        simulator = ServingSimulator(
            graph=graph,
            model=config.serving,
            horizon=config.horizon,
            total_budget=config.total_budget,
            initial_queue=config.initial_queue,
            clock=clock,
            **routes,
            **layers,
        )
        return simulator, derive_seed(seed, "serving", trial)
    if scenario.is_multiuser:
        simulator = MultiUserSimulator(
            graph=graph,
            users=scenario.build_users(),
            horizon=config.horizon,
            realize=config.realize,
            physical=config.physical,
            clock=clock,
            **routes,
            **layers,
        )
        return simulator, derive_seed(seed, "multiuser", trial)
    simulator = build_simulator(
        graph,
        config.build_trace(graph, seed=derive_seed(seed, "trace", trial)),
        total_budget=config.total_budget,
        realize=config.realize,
        physical=config.physical,
        timing=timing,
        **layers,
    )
    return simulator, derive_seed(seed, "run", trial)


def _execute_trial_inner(
    scenario: Scenario,
    trial: int,
    on_slot: Optional[Callable[[str, object], Optional[bool]]] = None,
) -> TrialOutcome:
    simulator, seed = build_trial(scenario, trial)
    if scenario.is_serving:
        serving_cb = None
        if on_slot is not None:
            serving_cb = lambda record: on_slot(SERVING_LINEUP_NAME, record)
        result = simulator.run(seed=seed, on_slot=serving_cb)
        return {result.policy_name: result}, ()
    if scenario.is_multiuser:
        provider_cb = None
        if on_slot is not None:
            provider_cb = lambda record: on_slot("provider", record)
        outcome = simulator.run(seed=seed, on_slot=provider_cb)
        return dict(outcome.user_results), tuple(outcome.provider_records)
    results = simulator.run_lineup(scenario.build_policies(), seed=seed, on_slot=on_slot)
    return results, ()


def _execute_trial_for_pool(scenario: Scenario, trial: int) -> TrialOutcome:
    """Top-level pool target (observers cannot cross process boundaries)."""
    return execute_trial(scenario, trial, on_slot=None)


@dataclass
class Session:
    """Executes scenarios and streams run events to observers.

    Parameters
    ----------
    workers:
        Number of worker processes for trial execution.  ``1`` (default)
        runs serially in-process; results are identical either way.
    observers:
        :class:`~repro.api.events.RunObserver` instances receiving the event
        stream.  Any observer may raise
        :class:`~repro.api.events.EarlyStop` to end the run cleanly.
    stream_slots:
        Emit per-slot events.  With ``workers > 1`` the slot events of a
        trial are replayed after the trial completes.  Disable for very
        large runs where only trial-level progress matters.
    checkpoint:
        Optional :class:`~repro.faults.RunCheckpoint`.  Completed trials
        are periodically snapshotted to disk, and a fresh run of the same
        scenario resumes from the snapshot instead of recomputing —
        resumed results are byte-identical because every trial is a pure
        function of ``(scenario, trial_index)``.
    stop_flag:
        Optional zero-argument callable polled between trials (e.g.
        :meth:`~repro.faults.InterruptGuard.stop_requested`).  When it
        returns ``True`` the run winds down cleanly after the current
        trial, marking the record ``stopped_early``.
    max_retries / worker_timeout_s:
        Supervision knobs for parallel runs (see
        :class:`~repro.faults.PoolSupervisor`): retry rounds after worker
        deaths, and the optional progress deadline that turns a hung
        worker into a retriable failure.
    """

    workers: int = 1
    observers: Sequence[RunObserver] = ()
    stream_slots: bool = True
    checkpoint: Optional[RunCheckpoint] = None
    stop_flag: Optional[Callable[[], bool]] = None
    max_retries: int = 3
    worker_timeout_s: Optional[float] = None

    def run(self, scenario: Scenario) -> RunRecord:
        """Execute every trial of ``scenario`` and return the unified record."""
        scenario.validate()
        trials = scenario.config.trials
        started = time.perf_counter()
        self._emit(
            RunStarted(
                scenario=scenario.name,
                trials=trials,
                workers=self.workers,
                kind=scenario.kind,
                lineup=tuple(scenario.lineup_names()),
            )
        )

        key: Optional[str] = None
        completed: List[TrialOutcome] = []
        if self.checkpoint is not None:
            key = checkpoint_key(scenario.to_dict())
            completed.extend(self.checkpoint.load(key)[:trials])
        resumed = len(completed)

        stopped_early = False
        recoveries = 0
        try:
            # Both modes append into `completed` as trials finish, so the
            # trials completed before an EarlyStop are preserved.
            if self.workers > 1 and trials - resumed > 1:
                recoveries = self._run_parallel(scenario, trials, completed, key)
            else:
                self._run_serial(scenario, trials, completed, key)
        except EarlyStop:
            stopped_early = True
        if self._stop_requested():
            stopped_early = True

        if self.checkpoint is not None and key is not None:
            if stopped_early or len(completed) < trials:
                self.checkpoint.save(key, completed)
            else:
                self.checkpoint.clear()

        meta = {
            "workers": self.workers,
            "requested_trials": trials,
            "completed_trials": len(completed),
            "stopped_early": stopped_early,
            "elapsed_seconds": time.perf_counter() - started,
        }
        if self.checkpoint is not None:
            meta["resumed_trials"] = resumed
        if recoveries:
            meta["worker_recoveries"] = recoveries
        record = RunRecord(
            scenario=scenario.to_dict(),
            kind=scenario.kind,
            trials=[outcome[0] for outcome in completed],
            provider_trials=[outcome[1] for outcome in completed if outcome[1]],
            meta=meta,
        )
        self._emit(
            RunCompleted(
                scenario=scenario.name,
                trials_completed=len(completed),
                elapsed_seconds=record.meta["elapsed_seconds"],
                stopped_early=stopped_early,
            ),
            swallow_early_stop=True,
        )
        return record

    # ------------------------------------------------------------------ #
    # Execution modes
    # ------------------------------------------------------------------ #
    def _stop_requested(self) -> bool:
        return self.stop_flag is not None and bool(self.stop_flag())

    def _checkpoint_progress(self, key: Optional[str], completed: List[TrialOutcome]) -> None:
        if self.checkpoint is not None and key is not None:
            self.checkpoint.maybe_save(key, completed)

    def _run_serial(
        self,
        scenario: Scenario,
        trials: int,
        completed: List[TrialOutcome],
        key: Optional[str] = None,
    ) -> None:
        for trial in range(len(completed), trials):
            if self._stop_requested():
                return
            self._emit(TrialStarted(scenario=scenario.name, trial=trial))
            outcome = execute_trial(
                scenario, trial, on_slot=self._live_slot_callback(scenario, trial)
            )
            completed.append(outcome)
            self._checkpoint_progress(key, completed)
            self._emit_trial_completed(scenario, trial, outcome)

    def _run_parallel(
        self,
        scenario: Scenario,
        trials: int,
        completed: List[TrialOutcome],
        key: Optional[str] = None,
    ) -> int:
        first = len(completed)
        tasks = [(scenario, trial) for trial in range(first, trials)]
        # Unordered completion is buffered and released as a contiguous
        # prefix, so the event stream (and any early-stop cut-off) is as
        # deterministic as the historical in-order collection.
        buffered: Dict[int, TrialOutcome] = {}
        next_index = 0
        try:
            with PoolSupervisor(
                max_workers=min(self.workers, len(tasks)),
                max_retries=self.max_retries,
                timeout_s=self.worker_timeout_s,
            ) as supervisor:
                for index, outcome in supervisor.run_unordered(
                    _execute_trial_for_pool, tasks
                ):
                    buffered[index] = outcome
                    while next_index in buffered:
                        trial = first + next_index
                        outcome = buffered.pop(next_index)
                        self._emit(TrialStarted(scenario=scenario.name, trial=trial))
                        if self.stream_slots:
                            self._replay_slots(scenario, trial, outcome)
                        completed.append(outcome)
                        self._checkpoint_progress(key, completed)
                        self._emit_trial_completed(scenario, trial, outcome)
                        next_index += 1
                    if self._stop_requested():
                        break
                return supervisor.recoveries
        except WorkerPoolError as exc:
            # Supervisor-retry exhaustion: the workers are gone, so no
            # recorder tail exists here — dump a meta-only bundle (scenario,
            # first unfinished trial, error) so the failure is still
            # replayable deterministically.
            level = effective_level(scenario.config.guard_level, GUARD_ENV_VAR, GUARD_LEVELS)
            if level != "off":
                dump_bundle(
                    scenario.to_dict(), first + next_index, level, error=exc
                )
            raise

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #
    def _emit(self, event: RunEvent, swallow_early_stop: bool = False) -> None:
        for observer in self.observers:
            try:
                observer.on_event(event)
            except EarlyStop:
                if not swallow_early_stop:
                    raise

    def _live_slot_callback(self, scenario: Scenario, trial: int):
        if not self.stream_slots or not self.observers:
            return None

        def on_slot(policy_name: str, record: object) -> Optional[bool]:
            # EarlyStop propagates out of the engine through here.
            self._emit(
                SlotCompleted(
                    scenario=scenario.name,
                    trial=trial,
                    policy=policy_name,
                    record=record,
                    replayed=False,
                )
            )
            return None

        return on_slot

    def _replay_slots(self, scenario: Scenario, trial: int, outcome: TrialOutcome) -> None:
        results, provider_records = outcome
        if provider_records:
            for record in provider_records:
                self._emit(
                    SlotCompleted(
                        scenario=scenario.name,
                        trial=trial,
                        policy="provider",
                        record=record,
                        replayed=True,
                    )
                )
            return
        for name, result in results.items():
            for record in result.records:
                self._emit(
                    SlotCompleted(
                        scenario=scenario.name,
                        trial=trial,
                        policy=name,
                        record=record,
                        replayed=True,
                    )
                )

    def _emit_trial_completed(
        self, scenario: Scenario, trial: int, outcome: TrialOutcome
    ) -> None:
        results, _ = outcome
        self._emit(
            TrialCompleted(
                scenario=scenario.name,
                trial=trial,
                results={name: result.summary() for name, result in results.items()},
            )
        )


def run_scenario(
    scenario: Scenario,
    workers: int = 1,
    observers: Sequence[RunObserver] = (),
    **session_options,
) -> RunRecord:
    """Run ``scenario`` with a throwaway :class:`Session` (the one-liner API)."""
    session = Session(workers=workers, observers=tuple(observers), **session_options)
    return session.run(scenario)


def compare(
    config: Optional["ExperimentConfig"] = None,
    policies: Sequence = ("oscar", "myopic-adaptive", "myopic-fixed"),
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    observers: Sequence[RunObserver] = (),
    name: str = "comparison",
    **session_options,
) -> RunRecord:
    """Run a multi-trial policy comparison in one call; returns its :class:`RunRecord`.

    Every trial draws a fresh topology and trace, and every policy runs on
    the identical trace.  ``trials`` and ``seed`` override the config's.
    ``policies`` accepts anything :meth:`Scenario.with_policies` does.
    Extra keyword arguments become :class:`Session` fields (``checkpoint``,
    ``stop_flag``, ``max_retries``, ...).
    """
    from repro.experiments.config import ExperimentConfig

    config = config if config is not None else ExperimentConfig.paper()
    config = config.with_run_overrides(trials, seed)
    scenario = Scenario.from_config(config, name=name).with_policies(*policies)
    return run_scenario(
        scenario, workers=workers, observers=observers, **session_options
    )
