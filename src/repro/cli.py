"""Command-line interface.

``python -m repro <command>`` exposes the most common workflows without
writing any Python (all built on the :mod:`repro.api` facade):

* ``python -m repro info`` — print the paper's default configuration and the
  derived quantities (per-slot budget, link success probabilities).
* ``python -m repro figure fig3 --scale small`` — regenerate one figure
  (``fig3`` … ``fig8`` of the paper, the physical-layer ``fig9``, the
  timing study ``fig10``, the resilience study ``fig11``, or
  ``ablations``) and optionally save the plain-text report with
  ``--output``.  Every command accepts the physical-layer flags
  (``--physical``, ``--swap-p``, ``--decoherence-t2``,
  ``--purify-rounds``, ``--fidelity-target``, ``--fidelity-constrained``),
  the timing flags (``--backend``, ``--signaling-latency``) and the
  fault-injection flags (``--faults``, ``--node-mtbf``, ``--edge-mtbf``,
  ``--mttr``, ``--fault-blind``, ``--solve-deadline``).
* ``python -m repro compare --scale tiny`` — run a policy comparison and
  print the summary table; ``--policies`` picks any registered policies,
  ``--workers`` parallelises the trials, ``--progress`` streams progress,
  ``--json`` emits the full :class:`~repro.api.records.RunRecord` payload.
  ``--checkpoint PATH`` makes long runs resumable, and a single
  ``SIGINT``/``SIGTERM`` winds the run down gracefully (finish the current
  trial, flush, exit 130) on ``compare``, ``sweep`` and ``serve``.
* ``python -m repro sweep --axis budget.total_budget --values 3000 5000 8000``
  — run a declarative :class:`~repro.api.study.Study`: any number of
  ``--axis``/``--values`` pairs (plus ``--topologies``) expand into a grid
  whose point × policy × trial units drain one worker pool; ``--store DIR``
  makes the sweep resumable, ``--json`` prints the StudyResult payload.
* ``python -m repro serve --scale tiny --arrival-rate 1.0`` — run the
  open-system serving layer (streaming session arrivals, online admission,
  a columnar session table) and print the serving metrics table;
  ``--merge-every`` sets how many slots admission's view may lag.
* ``python -m repro policies`` — list the policy registry.
* ``python -m repro trace run.json -o trace.json`` — export a saved run or
  study's span events (recorded with ``--telemetry full``) as a Chrome
  trace-event file loadable in Perfetto; ``python -m repro top run.json``
  prints the hottest spans instead.  Every command accepts ``--telemetry
  {off,light,full}``; ``compare`` and ``serve`` accept ``--metrics-out``
  (Prometheus text exposition), and ``serve`` additionally
  ``--metrics-every N`` (periodic JSONL snapshots while streaming).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from repro import api
from repro.experiments import ablations, figures
from repro.experiments.config import ConfigError, ExperimentConfig, with_physical_defaults
from repro.experiments.reporting import format_table
from repro.network.channels import per_slot_success
from repro.simulation.results import SUMMARY_METRICS
from repro.version import __version__

SCALES = {
    "paper": ExperimentConfig.paper,
    "small": ExperimentConfig.small,
    "tiny": ExperimentConfig.tiny,
}


def _config_paths(arguments: argparse.Namespace) -> Dict[str, object]:
    """The config values set on the command line, by config path.

    Every config flag's ``dest`` is its config path (``--swap-p`` is
    ``physical.swap_success``), so the flags go through the same setter as
    ``Scenario.with_config`` and ``Study.over``: a field of a layer that is
    off turns the layer on.  A signaling latency implies the event backend
    unless ``--backend`` is given.
    """
    paths = {
        dest: value
        for dest, value in vars(arguments).items()
        if "." in dest and value is not None
    }
    if "timing.signaling_latency_s" in paths:
        paths.setdefault("timing.backend", "event")
    return paths


def _config_from_args(arguments: argparse.Namespace) -> ExperimentConfig:
    """Build the experiment configuration selected on the command line."""
    return SCALES[arguments.scale]().with_overrides(**_config_paths(arguments))


def command_info(arguments: argparse.Namespace) -> int:
    """Print the selected configuration and its derived quantities."""
    config = _config_from_args(arguments)
    rows = [[key, value] for key, value in sorted(config.describe().items())]
    print(format_table(["parameter", "value"], rows, title=f"repro {__version__} — configuration ({arguments.scale})"))
    print()
    slot_p = per_slot_success(config.attempt_success, config.attempts_per_slot)
    derived = [
        ["per-slot budget C/T", config.per_slot_budget],
        ["single-channel slot success p_e", round(slot_p, 4)],
        ["edge success with 3 channels", round(1 - (1 - slot_p) ** 3, 4)],
    ]
    print(format_table(["derived quantity", "value"], derived))
    return 0


def command_figure(arguments: argparse.Namespace) -> int:
    """Regenerate one of the paper's figures, or the ablations."""
    config = _config_from_args(arguments)
    spec = figures.FIGURES.get(arguments.name)
    if spec is not None:
        # A flag the sweep sets would be overwritten at every point.
        for path in spec.swept:
            if getattr(arguments, path, None) is not None:
                raise ConfigError(
                    f"{arguments.flags[path]} sets {path}, which {arguments.name} sweeps"
                )
        # The flags given keep their values; the figure's layer defaults fill the rest.
        config = with_physical_defaults(config, spec.layers, explicit=_config_paths(arguments))
    started = time.time()
    if spec is None:
        result = ablations.run_all_report(config, workers=arguments.workers)
    else:
        result = figures.run(arguments.name, config, workers=arguments.workers)
    elapsed = time.time() - started
    report = result.format_tables()
    if arguments.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(report)
        # The timing line goes to stderr so stdout is the report alone,
        # comparable byte for byte across runs.
        print(f"\n[{arguments.name} at scale={arguments.scale} in {elapsed:.1f} s]",
              file=sys.stderr)
    if arguments.output:
        path = Path(arguments.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report if report.endswith("\n") else report + "\n")
        print(f"[report written to {path}]", file=sys.stderr if arguments.json else sys.stdout)
    return 0


def _kernel_stats_fragment(stats) -> Optional[str]:
    """The solver half of the health line (kernel reuse + solver exactness)."""
    if not stats:
        return None
    binds = stats.get("binds", 0)
    compiles = stats.get("structure_compiles", 0)
    solves = stats.get("solves", 0)
    reused = (
        stats.get("cache_hits", 0)
        + stats.get("memo_hits", 0)
        + stats.get("pruned", 0)
    )
    iterations = stats.get("dual_iterations", 0)
    fragment = (
        f"kernel {solves} solve(s), {reused} reused/pruned, "
        f"{binds} bind(s) from {compiles} compiled structure(s), "
        f"{iterations} dual iteration(s)"
    )
    exhaustive = stats.get("exhaustive_slots")
    if exhaustive is not None:
        fragment += (
            f"; {exhaustive} exhaustive / {stats.get('gibbs_slots', 0)} gibbs slot(s)"
        )
    return fragment


def _physical_stats_fragment(stats) -> Optional[str]:
    """The physical half of the health line (delivery chain accounting)."""
    if not stats:
        return None
    attempts = int(stats.get("attempts", 0))
    delivered = int(stats.get("delivered", 0))
    served = int(stats.get("fidelity_served", 0))
    mean_fidelity = (
        stats.get("fidelity_sum", 0.0) / delivered if delivered else 0.0
    )
    losses = (
        f"{int(stats.get('purify_failures', 0))} purify"
        f"/{int(stats.get('cutoff_discards', 0))} cutoff"
        f"/{int(stats.get('swap_failures', 0))} swap loss(es)"
    )
    return (
        f"physical {delivered}/{attempts} delivered (mean F {mean_fidelity:.3f}), "
        f"{served} fidelity-served, {losses}, "
        f"{int(stats.get('pairs_consumed', 0))} raw pair(s)"
    )


def _eventsim_stats_fragment(stats) -> Optional[str]:
    """The event-backend third of the health line (signaling accounting)."""
    if not stats:
        return None
    events = int(stats.get("events", 0))
    delivered = int(stats.get("delivered", 0))
    messages = int(stats.get("messages", 0))
    round_trips = messages / delivered if delivered else 0.0
    return (
        f"eventsim {events} event(s), {delivered} delivered "
        f"({round_trips:.2f} msg(s)/delivery), "
        f"{int(stats.get('deadline_misses', 0))} deadline miss(es), "
        f"{int(stats.get('cutoff_expired_pairs', 0))} cutoff-expired pair(s)"
    )


def _serving_stats_fragment(stats) -> Optional[str]:
    """The serving quarter of the health line (open-system accounting)."""
    if not stats:
        return None
    from repro.serving.scheduler import (
        jain_fairness,
        mean_sojourn_slots,
        serving_requests_per_second,
    )

    served = int(stats.get("requests_served", 0))
    arrived = int(stats.get("requests_arrived", 0))
    admitted = int(stats.get("sessions_admitted", 0))
    rejected = int(stats.get("sessions_rejected", 0))
    rate = serving_requests_per_second(stats)
    sojourn = mean_sojourn_slots(stats)
    return (
        f"serving {served}/{arrived} request(s) served "
        f"({0.0 if rate is None else rate:.1f} req/s simulated), "
        f"{admitted} admitted/{rejected} rejected session(s), "
        f"mean sojourn {0.0 if sojourn is None else sojourn:.2f} slot(s), "
        f"Jain {jain_fairness(stats):.3f}"
    )


def _fault_stats_fragment(stats) -> Optional[str]:
    """The resilience fragment of the health line (outage accounting)."""
    if not stats:
        return None
    availability = api.fault_availability(stats)
    return (
        f"faults {1.0 if availability is None else availability:.3f} availability, "
        f"{int(stats.get('node_failures', 0))} node/"
        f"{int(stats.get('edge_failures', 0))} edge outage(s), "
        f"{int(stats.get('requests_unservable', 0))} unservable/"
        f"{int(stats.get('requests_interrupted', 0))} interrupted request(s)"
    )


def _guard_stats_fragment(stats) -> Optional[str]:
    """The invariant-guard fragment of the health line (check accounting)."""
    if not stats:
        return None
    return (
        f"guard {int(stats.get('checks', 0))} check(s) over "
        f"{int(stats.get('slots', 0))} slot(s), "
        f"{int(stats.get('breaches', 0))} breach(es)"
    )


def _telemetry_stats_fragment(stats) -> Optional[str]:
    """The telemetry fragment of the health line (span/profile accounting)."""
    if not stats:
        return None
    spans = int(stats.get("spans", 0))
    tracers = int(stats.get("tracers", 0))
    wall = sum(
        float(value)
        for key, value in stats.items()
        if key.startswith("span.") and key.endswith(".wall_s")
    )
    return (
        f"telemetry {spans} span(s) from {tracers} tracer(s), "
        f"{wall:.2f} s traced wall"
    )


#: The [health] table: one fragment renderer per stats layer, in
#: ``STATS_LAYERS`` order.  Each turns a layer's merged stats into a
#: fragment, or ``None`` when the layer has nothing to report.
_HEALTH_FRAGMENTS: Dict[str, Callable] = {
    "kernel": _kernel_stats_fragment,
    "physical": _physical_stats_fragment,
    "eventsim": _eventsim_stats_fragment,
    "serving": _serving_stats_fragment,
    "faults": _fault_stats_fragment,
    "guard": _guard_stats_fragment,
    "telemetry": _telemetry_stats_fragment,
}


def _render_health_line(stats_by_layer: Mapping[str, Optional[Mapping]]) -> Optional[str]:
    """Render the [health] line from per-layer stats mappings (table order)."""
    fragments = []
    for layer, renderer in _HEALTH_FRAGMENTS.items():
        fragment = renderer(stats_by_layer.get(layer))
        if fragment:
            fragments.append(fragment)
    if not fragments:
        return None
    return "[health] " + " | ".join(fragments)


def _health_line(source) -> Optional[str]:
    """One line summarising every layer's health, from a record or a study."""
    return _render_health_line({layer: source.stats(layer) for layer in _HEALTH_FRAGMENTS})


def _write_metrics_out(arguments: argparse.Namespace, source) -> None:
    """Write the final Prometheus exposition when ``--metrics-out`` is given.

    The exposition holds the telemetry stats plus every other layer's
    stats as ``counter.<layer>.<key>`` events.
    """
    path = getattr(arguments, "metrics_out", None)
    if not path:
        return
    from repro.telemetry import render_prometheus

    stats = dict(source.stats("telemetry") or {})
    for layer in api.STATS_LAYERS:
        if layer != "telemetry":
            for key, value in (source.stats(layer) or {}).items():
                stats[f"counter.{layer}.{key}"] = value
    Path(path).write_text(render_prometheus(stats))
    print(f"[metrics written to {path}]", file=sys.stderr, flush=True)


@contextmanager
def _metrics_flush_env(arguments: argparse.Namespace) -> Iterator[None]:
    """Arm the periodic JSONL metrics flush for the duration of a run.

    ``--metrics-out X --metrics-every N`` makes every tracer (including the
    ones inside trial workers, which inherit the environment) append a snapshot line to ``X.jsonl`` every N merged
    slots.  The variables are restored afterwards so nothing leaks into
    subsequent in-process runs.
    """
    from repro.telemetry import METRICS_EVERY_ENV_VAR, METRICS_JSONL_ENV_VAR

    path = getattr(arguments, "metrics_out", None)
    every = getattr(arguments, "metrics_every", None)
    if not path or not every:
        yield
        return
    jsonl = str(Path(path).with_suffix(Path(path).suffix + ".jsonl"))
    saved = {
        key: os.environ.get(key)
        for key in (METRICS_JSONL_ENV_VAR, METRICS_EVERY_ENV_VAR)
    }
    os.environ[METRICS_JSONL_ENV_VAR] = jsonl
    os.environ[METRICS_EVERY_ENV_VAR] = str(every)
    try:
        yield
    finally:
        for key, previous in saved.items():
            if previous is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = previous


def _session_resilience_options(arguments: argparse.Namespace, guard) -> dict:
    """``Session`` options wiring ``--checkpoint`` and the interrupt guard."""
    options = {"stop_flag": guard.stop_requested}
    checkpoint = getattr(arguments, "checkpoint", None)
    if checkpoint:
        options["checkpoint"] = api.RunCheckpoint(Path(checkpoint))
    return options


def _interrupt_notice(arguments: argparse.Namespace) -> int:
    """Report a graceful wind-down (always exits with the SIGINT code)."""
    checkpoint = getattr(arguments, "checkpoint", None)
    where = f"checkpoint {checkpoint}" if checkpoint else "the partial record"
    print(
        f"[interrupted] wound down after the current trial; completed work "
        f"flushed to {where}",
        file=sys.stderr,
    )
    return 130


def command_compare(arguments: argparse.Namespace) -> int:
    """Run a policy comparison through the facade and print the summary."""
    config = _config_from_args(arguments)
    observers = [api.ProgressObserver()] if arguments.progress else []
    try:
        with api.InterruptGuard() as guard:
            record = api.compare(
                config,
                policies=tuple(arguments.policies),
                workers=arguments.workers,
                observers=observers,
                name=f"compare/{arguments.scale}",
                **_session_resilience_options(arguments, guard),
            )
    except (api.UnknownPolicyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        print("hint: `python -m repro policies` lists the registry", file=sys.stderr)
        return 2
    if arguments.progress:
        line = _health_line(record)
        if line:
            print(line, file=sys.stderr, flush=True)
    _write_metrics_out(arguments, record)
    if arguments.json:
        print(json.dumps(record.to_dict(), indent=2))
    else:
        print(record.format_summary(title="Policy comparison (mean over trials)"))
    if arguments.output:
        path = record.save(Path(arguments.output))
        print(f"[comparison written to {path}]", file=sys.stderr if arguments.json else sys.stdout)
    if guard.triggered:
        return _interrupt_notice(arguments)
    return 0


def _parse_axis_value(text: str):
    """Interpret one --values token as bool, int, float or string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def command_sweep(arguments: argparse.Namespace) -> int:
    """Run a declarative study over the flattened point×policy×trial queue."""
    config = _config_from_args(arguments)
    axes = arguments.axis or []
    value_groups = arguments.values or []
    if len(axes) != len(value_groups):
        print(
            f"error: {len(axes)} --axis flag(s) but {len(value_groups)} --values "
            "group(s); give one --values group per --axis",
            file=sys.stderr,
        )
        return 2
    if not axes and not arguments.topologies:
        print("error: declare at least one axis (--axis/--values or --topologies)",
              file=sys.stderr)
        return 2
    unknown_metrics = sorted(set(arguments.metrics) - set(SUMMARY_METRICS))
    if unknown_metrics:
        print(
            f"error: unknown metric(s) {', '.join(unknown_metrics)}; "
            f"choose from {', '.join(SUMMARY_METRICS)}",
            file=sys.stderr,
        )
        return 2

    scenario = api.Scenario.from_config(config, name=f"sweep/{arguments.scale}")
    try:
        if arguments.policies:
            scenario = scenario.with_policies(*arguments.policies)
        study = api.Study(f"sweep/{arguments.scale}").base(scenario)
        for path, group in zip(axes, value_groups):
            study.over(path, [_parse_axis_value(value) for value in group])
        if arguments.topologies:
            study.over_topology(*arguments.topologies)
        on_progress = None
        if arguments.progress:
            on_progress = lambda message: print(
                f"[sweep] {message}", file=sys.stderr, flush=True
            )
        with api.InterruptGuard() as guard:
            result = study.run(
                workers=arguments.workers,
                store=arguments.store,
                on_progress=on_progress,
                stop_flag=guard.stop_requested,
            )
    except (api.UnknownPolicyError, ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The guard wound the queue down after the in-flight units; every
        # completed point is already persisted when --store is given.
        where = (
            f"store {arguments.store}; re-run with the same --store to resume"
            if arguments.store
            else "nowhere (give --store DIR to make interrupted sweeps resumable)"
        )
        print(f"[interrupted] completed points flushed to {where}", file=sys.stderr)
        return 130
    if arguments.progress:
        line = _health_line(result)
        if line:
            print(line, file=sys.stderr, flush=True)
    if arguments.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.format_summary(metrics=tuple(arguments.metrics)))
        meta = result.meta
        print(
            f"\n[{meta['points']} point(s), {meta['points_cached']} from store, "
            f"{meta['tasks_executed']} unit(s) on {meta['workers']} worker(s) "
            f"in {meta['elapsed_seconds']:.1f} s]"
        )
    if arguments.output:
        path = result.save(Path(arguments.output))
        print(f"[study written to {path}]", file=sys.stderr if arguments.json else sys.stdout)
    return 0


def _format_serving_report(record) -> str:
    """The serving metrics table (deterministic — CI diffs it across layouts)."""
    from repro.serving.scheduler import (
        jain_fairness,
        mean_sojourn_slots,
        serving_requests_per_second,
    )

    stats = record.stats("serving") or {}
    rate = serving_requests_per_second(stats)
    sojourn = mean_sojourn_slots(stats)
    wall = record.wall_time_s()
    rows = [
        ["sessions arrived", int(stats.get("sessions_arrived", 0))],
        ["sessions admitted", int(stats.get("sessions_admitted", 0))],
        ["sessions rejected", int(stats.get("sessions_rejected", 0))],
        ["sessions departed", int(stats.get("sessions_departed", 0))],
        ["sessions renewed", int(stats.get("sessions_renewed", 0))],
        ["requests arrived", int(stats.get("requests_arrived", 0))],
        ["requests served", int(stats.get("requests_served", 0))],
        ["requests realized", int(stats.get("requests_realized", 0))],
        ["requests dropped", int(stats.get("requests_dropped", 0))],
        ["requests backlogged", int(stats.get("requests_backlog", 0))],
        ["qubits spent", f"{stats.get('cost_spent', 0.0):.1f}"],
        ["mean sojourn (slots)", f"{0.0 if sojourn is None else sojourn:.3f}"],
        ["Jain fairness", f"{jain_fairness(stats):.4f}"],
        ["requests/s (simulated)", f"{0.0 if rate is None else rate:.2f}"],
        ["simulated seconds", f"{0.0 if wall is None else wall:.2f}"],
    ]
    return format_table(["serving metric", "value"], rows, title="Serving run")


def command_serve(arguments: argparse.Namespace) -> int:
    """Run the open-system serving layer and print the serving metrics."""
    observers = [api.ProgressObserver()] if arguments.progress else []
    try:
        # The setter validates eagerly (unknown admission policy, negative
        # rates, ...), so it sits inside the error envelope too.
        config = _config_from_args(arguments)
        scenario = api.Scenario.from_config(config, name=f"serve/{arguments.scale}")
        with api.InterruptGuard() as guard, _metrics_flush_env(arguments):
            record = api.run_scenario(
                scenario,
                workers=arguments.workers,
                observers=observers,
                **_session_resilience_options(arguments, guard),
            )
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if arguments.progress:
        line = _health_line(record)
        if line:
            print(line, file=sys.stderr, flush=True)
    _write_metrics_out(arguments, record)
    if arguments.json:
        print(json.dumps(record.to_dict(), indent=2))
    else:
        print(record.format_summary(title="Serving line-up (mean over trials)"))
        print()
        print(_format_serving_report(record))
    if arguments.output:
        path = record.save(Path(arguments.output))
        print(f"[serving record written to {path}]", file=sys.stderr if arguments.json else sys.stdout)
    if guard.triggered:
        return _interrupt_notice(arguments)
    return 0


def command_policies(arguments: argparse.Namespace) -> int:
    """List every policy registered in the facade's registry."""
    rows = [[name, text] for name, text in api.default_registry.describe().items()]
    print(format_table(["name", "description"], rows, title="Registered policies"))
    return 0


def command_replay(arguments: argparse.Namespace) -> int:
    """Re-execute the trial captured in a repro bundle and re-assert the failure."""
    from repro.guard.replay import replay_bundle

    try:
        result = replay_bundle(arguments.bundle)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.describe())
    return 0 if result.matched else 1


def _load_run_or_study(path: str):
    """Load a saved RunRecord or StudyResult JSON file, detecting the schema."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a repro result payload")
    if "points" in payload and "axes" in payload:
        return api.StudyResult.from_dict(payload)
    return api.RunRecord.from_dict(payload)


def _result_label(source) -> str:
    """A human-readable label for a loaded result (trace/metadata naming)."""
    name = getattr(source, "name", None)
    if isinstance(name, str) and name:
        return name
    scenario = getattr(source, "scenario", None)
    if isinstance(scenario, Mapping):
        return str(scenario.get("name", "run"))
    return "run"


def command_trace(arguments: argparse.Namespace) -> int:
    """Export a saved run/study's span events as a Chrome trace-event file."""
    from repro.telemetry import write_chrome_trace

    try:
        source = _load_run_or_study(arguments.result)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spans = source.telemetry_spans()
    if not spans:
        print(
            f"error: {arguments.result} carries no span events; re-run the "
            "scenario with --telemetry full (or REPRO_TELEMETRY=full) and "
            "save it again",
            file=sys.stderr,
        )
        return 1
    count = write_chrome_trace(spans, arguments.output, label=_result_label(source))
    pids = {span.get("pid") for span in spans if span.get("pid") is not None}
    print(
        f"[trace] {count} span(s) from {len(pids)} process(es) written to "
        f"{arguments.output} (load in Perfetto / chrome://tracing)"
    )
    return 0


def command_top(arguments: argparse.Namespace) -> int:
    """Print the hottest spans of a saved run/study, by total wall time."""
    from repro.telemetry import summarize_spans

    try:
        source = _load_run_or_study(arguments.result)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = summarize_spans(source.stats("telemetry"))
    if not rows:
        print(
            f"error: {arguments.result} carries no telemetry; re-run the "
            "scenario with --telemetry light or full",
            file=sys.stderr,
        )
        return 1
    limit = arguments.limit if arguments.limit and arguments.limit > 0 else len(rows)
    table = [
        [
            row["name"],
            f"{row['count']:g}",
            f"{row['wall_s']:.4f}",
            f"{row['cpu_s']:.4f}",
            f"{row['mean_us']:.1f}",
            f"{row['share'] * 100:.1f}%",
        ]
        for row in rows[:limit]
    ]
    print(
        format_table(
            ["span", "count", "wall s", "cpu s", "mean µs", "share"],
            table,
            title=f"Hottest spans — {_result_label(source)}",
        )
    )
    return 0


def command_diff_check(arguments: argparse.Namespace) -> int:
    """Run the lockstep differential pairs and report the first divergence."""
    from repro.guard.differential import run_all

    config = _config_from_args(arguments)
    try:
        reports = run_all(config=config, trial=arguments.trial)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for report in reports:
        print(report.describe())
    diverged = [report for report in reports if not report.identical]
    if diverged:
        print(f"[diff-check] {len(diverged)}/{len(reports)} pair(s) diverged",
              file=sys.stderr)
        return 1
    print(f"[diff-check] {len(reports)} pair(s) identical")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Adaptive User-Centric Entanglement Routing in Quantum Data Networks' (ICDCS 2024)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        # Every config flag's dest is its config path (see _config_paths).
        sub.add_argument("--scale", default="small", choices=sorted(SCALES.keys()),
                         help="experiment scale (default: small)")
        sub.add_argument("--trials", type=int, default=None, dest="config.trials",
                         help="override the number of trials")
        sub.add_argument("--seed", type=int, default=None, dest="config.base_seed",
                         help="override the base random seed")
        sub.add_argument("--dual-tolerance", type=float, default=None,
                         dest="solver.dual_tolerance",
                         help="kernel duality-gap early-stop tolerance "
                              "(0 selects replay mode: the full fixed "
                              "iteration schedule)")
        sub.add_argument("--physical", action="store_const", const=True,
                         dest="physical.enabled",
                         help="simulate the physical delivery chain "
                              "(swap/purify/decohere) under every realised EC")
        sub.add_argument("--swap-p", type=float, default=None, dest="physical.swap_success",
                         help="Bell-state-measurement success probability "
                              "(implies --physical)")
        sub.add_argument("--decoherence-t2", type=float, default=None,
                         dest="physical.memory_time",
                         help="memory decoherence time constant in seconds "
                              "(implies --physical)")
        sub.add_argument("--purify-rounds", type=int, default=None,
                         dest="physical.purify_rounds",
                         help="requested BBPSSW recurrence rounds per link, "
                              "clipped by each edge's channel allocation "
                              "(implies --physical)")
        sub.add_argument("--fidelity-target", type=float, default=None,
                         dest="physical.fidelity_target",
                         help="delivered-fidelity target (implies --physical)")
        sub.add_argument("--fidelity-constrained", action="store_const", const=True,
                         dest="physical.fidelity_constrained",
                         help="only count a request as served when its route "
                              "can deliver the fidelity target (re-ranks "
                              "candidate routes; implies --physical)")
        sub.add_argument("--backend", default=None,
                         choices=["slotted", "event"], dest="timing.backend",
                         help="simulation backend: the slot-batched engine "
                              "or the event-driven engine with classical "
                              "signaling (default: slotted)")
        sub.add_argument("--signaling-latency", type=float, default=None,
                         dest="timing.signaling_latency_s",
                         help="classical one-way signaling latency per edge "
                              "in seconds (implies --backend event)")
        sub.add_argument("--faults", action="store_const", const=True,
                         dest="faults.enabled",
                         help="inject seeded node/edge outages (transient "
                              "failures with MTBF/MTTR; schedules are "
                              "byte-identical across worker layouts)")
        sub.add_argument("--node-mtbf", type=float, default=None, dest="faults.node_mtbf",
                         help="mean slots between failures per node "
                              "(0 disables node outages; implies --faults)")
        sub.add_argument("--edge-mtbf", type=float, default=None, dest="faults.edge_mtbf",
                         help="mean slots between failures per edge "
                              "(0 disables edge outages; implies --faults)")
        sub.add_argument("--mttr", type=float, default=None, dest="faults.mttr",
                         help="mean slots to repair a failed element "
                              "(implies --faults)")
        sub.add_argument("--fault-blind", action="store_const", const=False,
                         dest="faults.aware",
                         help="hide outages from the policies: routes are "
                              "chosen on the healthy topology and served "
                              "requests crossing a down element are "
                              "interrupted (implies --faults)")
        sub.add_argument("--solve-deadline", type=int, default=None,
                         dest="solver.solve_deadline",
                         help="per-slot solve budget in combination "
                              "evaluations; over budget the solver degrades "
                              "exhaustive -> gibbs -> greedy (0 = unlimited)")
        sub.add_argument("--guard", default=None,
                         choices=["off", "cheap", "strict"], dest="guard.guard_level",
                         help="runtime invariant guard: off compiles to "
                              "no-ops, cheap checks per-slot accounting, "
                              "strict replays constraint rows and queue "
                              "recursions (results are byte-identical at "
                              "every level)")
        sub.add_argument("--telemetry", default=None,
                         choices=["off", "light", "full"], dest="telemetry.level",
                         help="observability level: off builds no tracer, "
                              "light aggregates per-span profiles and "
                              "metrics, full adds the span-event ring for "
                              "Chrome-trace export (results are "
                              "byte-identical at every level)")

    info = subparsers.add_parser("info", help="print the configuration and derived quantities")
    add_common(info)
    info.set_defaults(handler=command_info)

    figure = subparsers.add_parser("figure", help="regenerate one figure of the paper")
    figure.add_argument("name", choices=sorted([*figures.FIGURES, "ablations"]))
    figure.add_argument("--output", default=None, help="write the plain-text report to this file")
    figure.add_argument("--workers", type=int, default=1,
                        help="worker processes for trial execution (default: 1)")
    figure.add_argument("--json", action="store_true",
                        help="print the figure payload as JSON instead of tables")
    add_common(figure)
    # ``flags`` names the flag of each config path, for the sweep's refusal.
    figure.set_defaults(
        handler=command_figure,
        flags={action.dest: action.option_strings[0]
               for action in figure._actions if action.option_strings},
    )

    compare = subparsers.add_parser("compare", help="run a policy comparison")
    compare.add_argument("--output", default=None,
                         help="write the full run record (JSON) to this file")
    compare.add_argument("--policies", nargs="+", default=["oscar", "ma", "mf"],
                         help="registered policy names to compare (default: oscar ma mf)")
    compare.add_argument("--workers", type=int, default=1,
                         help="worker processes for trial execution (default: 1)")
    compare.add_argument("--progress", action="store_true",
                         help="stream per-trial progress to stderr")
    compare.add_argument("--json", action="store_true",
                         help="print the run record as JSON instead of the summary table")
    compare.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="checkpoint completed trials to this JSON file; "
                              "an interrupted run re-invoked with the same "
                              "flags resumes from it (byte-identical result)")
    compare.add_argument("--metrics-out", default=None, metavar="PATH",
                         dest="metrics_out",
                         help="write the run's merged layer stats as Prometheus "
                              "text exposition to this file (spans need "
                              "--telemetry light or full)")
    add_common(compare)
    compare.set_defaults(handler=command_compare)

    sweep = subparsers.add_parser(
        "sweep", help="run a declarative parameter sweep (Study) over a work queue"
    )
    sweep.add_argument("--axis", action="append", metavar="PATH", default=None,
                       help="config field to sweep, e.g. budget.total_budget or "
                            "topology.num_nodes (repeatable; one --values group each)")
    sweep.add_argument("--values", action="append", nargs="+", metavar="VALUE",
                       default=None,
                       help="values of the matching --axis (repeatable)")
    sweep.add_argument("--topologies", nargs="+", default=None,
                       help="add a topology-family axis (waxman grid ring star line complete)")
    sweep.add_argument("--policies", nargs="+", default=None,
                       help="policy line-up at every point (default: oscar ma mf)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes draining the point×policy×trial queue")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="content-hash result store: completed points are "
                            "persisted and re-runs resume from it")
    sweep.add_argument("--metrics", nargs="+",
                       default=["average_success_rate", "total_cost"],
                       help="summary metrics to tabulate (text output)")
    sweep.add_argument("--output", default=None,
                       help="write the full study result (JSON) to this file")
    sweep.add_argument("--json", action="store_true",
                       help="print the study result as JSON instead of the table")
    sweep.add_argument("--progress", action="store_true",
                       help="stream per-point progress to stderr")
    add_common(sweep)
    sweep.set_defaults(handler=command_sweep)

    serve = subparsers.add_parser(
        "serve", help="run the open-system serving layer (streaming sessions)"
    )
    serve.set_defaults(**{"serving.enabled": True})
    serve.add_argument("--horizon", type=int, default=None, dest="workload.horizon",
                       help="override the number of simulated slots")
    serve.add_argument("--arrival-kind", default=None, choices=["poisson", "trace"],
                       dest="serving.arrival_kind",
                       help="session arrival process (default: poisson)")
    serve.add_argument("--arrival-rate", type=float, default=None, dest="serving.arrival_rate",
                       help="mean session joins per slot (poisson arrivals)")
    serve.add_argument("--session-rate", type=float, default=None, dest="serving.session_rate",
                       help="mean EC requests per session per slot")
    serve.add_argument("--session-lifetime", type=float, default=None,
                       dest="serving.session_lifetime",
                       help="mean session lifetime in slots (geometric)")
    serve.add_argument("--renew-probability", type=float, default=None,
                       dest="serving.renew_probability",
                       help="probability a session renews at expiry")
    serve.add_argument("--session-budget", type=float, default=None,
                       dest="serving.session_budget",
                       help="qubit budget one session may spend per slot")
    serve.add_argument("--admission", default=None, dest="serving.admission",
                       help="admission policy (always, backlog-threshold, token-bucket)")
    serve.add_argument("--admission-threshold", type=float, default=None,
                       dest="serving.admission_threshold",
                       help="virtual-queue backlog above which sessions are rejected")
    serve.add_argument("--token-rate", type=float, default=None, dest="serving.token_rate",
                       help="token-bucket refill per slot")
    serve.add_argument("--token-burst", type=float, default=None, dest="serving.token_burst",
                       help="token-bucket capacity")
    serve.add_argument("--merge-every", type=int, default=None, dest="serving.merge_every",
                       help="slots per admission window (admission sees the "
                            "state at the window start)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes for trial execution (default: 1)")
    serve.add_argument("--progress", action="store_true",
                       help="stream per-trial progress and the [health] line to stderr")
    serve.add_argument("--json", action="store_true",
                       help="print the run record as JSON instead of the tables")
    serve.add_argument("--output", default=None,
                       help="write the full run record (JSON) to this file")
    serve.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="checkpoint completed trials to this JSON file; "
                            "an interrupted run re-invoked with the same "
                            "flags resumes from it (byte-identical result)")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       dest="metrics_out",
                       help="write the run's merged layer stats as Prometheus "
                            "text exposition to this file (spans need "
                            "--telemetry light or full)")
    serve.add_argument("--metrics-every", type=int, default=None,
                       dest="metrics_every", metavar="N",
                       help="additionally append a JSONL metrics snapshot to "
                            "<metrics-out>.jsonl every N merged slots while "
                            "the run streams (needs --metrics-out)")
    add_common(serve)
    serve.set_defaults(handler=command_serve)

    policies = subparsers.add_parser("policies", help="list the policy registry")
    policies.set_defaults(handler=command_policies)

    replay = subparsers.add_parser(
        "replay", help="re-execute the trial captured in a repro bundle"
    )
    replay.add_argument("bundle", help="path to a repro bundle (JSON) dumped on failure")
    replay.set_defaults(handler=command_replay)

    trace = subparsers.add_parser(
        "trace",
        help="export a saved run/study's spans as a Chrome trace-event file",
    )
    trace.add_argument("result", help="a RunRecord or StudyResult JSON file "
                                      "(saved with --output / .save())")
    trace.add_argument("-o", "--output", default="trace.json",
                       help="Chrome trace-event JSON output path "
                            "(default: trace.json)")
    trace.set_defaults(handler=command_trace)

    top = subparsers.add_parser(
        "top", help="print the hottest spans of a saved run/study result"
    )
    top.add_argument("result", help="a RunRecord or StudyResult JSON file "
                                    "(saved with --output / .save())")
    top.add_argument("-n", "--limit", type=int, default=15,
                     help="rows to print (default: 15; 0 = all)")
    top.set_defaults(handler=command_top)

    diff_check = subparsers.add_parser(
        "diff-check",
        help="run lockstep implementation pairs and report the first divergence",
    )
    diff_check.add_argument("--horizon", type=int, default=None, dest="workload.horizon",
                            help="override the number of simulated slots")
    diff_check.add_argument("--trial", type=int, default=0,
                            help="trial index to compare (default: 0)")
    add_common(diff_check)
    diff_check.set_defaults(handler=command_diff_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ConfigError as error:
        # Flag values are validated as the config is built, before any run.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # ``repro top run.json | head`` closes stdout early; that is not
        # an error.  Detach so the interpreter-exit flush cannot re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
