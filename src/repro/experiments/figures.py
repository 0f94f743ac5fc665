"""The paper's figures, each described as data, and the one runner for them.

Sec. V evaluates OSCAR against the myopic baselines MA and MF in two views
of one run (Figs. 3 and 4) and four one-parameter sweeps (Figs. 5–8); the
reproduction adds three sweeps of its own layers (Figs. 9–11).  Each is a
:class:`Figure` in :data:`FIGURES`, and :func:`run` turns any of them into
a :class:`FigureResult`, whose ``to_dict()`` is the ``repro figure --json``
payload and whose ``format_tables()`` is the plain-text report.  fig3 and
fig4 keep their :class:`~repro.api.records.RunRecord` as ``.record``, the
sweeps their :class:`~repro.api.study.StudyResult` as ``.study``.

The findings each figure reproduces:

fig3 — running-average utility and EC success rate, and cumulative qubit
usage, over the slots of one run.  OSCAR ends with the highest utility and
success rate (≈0.9 in the paper) while spending about the full budget; MF
under-spends and ends lowest (≈0.83); MA eventually spends as much as
OSCAR, but its conservative early slots depress its averages (≈0.875).

fig4 — the distribution of per-SD-pair success rates, with Jain's fairness
index.  Under OSCAR the rates concentrate at high values; the myopic
baselines (MA in particular) spread wider, with a heavier low tail.

fig5 — the qubit budget C.  Every method improves with a larger budget,
OSCAR leads at every level, and its lead narrows as resources stop being
the bottleneck.

fig6 — the network size, with the Waxman parameters keeping the average
degree near 4 under the same budget.  Success rates drop as routes grow
longer, and OSCAR stays ahead at every size.

fig7 — the Lyapunov control parameter V, for OSCAR alone (the baselines
have no V).  A larger V buys utility at the price of a larger budget
violation, as Theorems 1 and 2 predict; the Theorem-1 violation bound is
printed beside the measurement.

fig8 — the initial virtual-queue length q0, for OSCAR alone.  A larger q0
spends less in the early slots and one too large costs utility; a small
positive q0 (the paper's 10) saves budget at almost no utility loss.

fig9 — beyond the paper: the budget sweep with the physical layer on, where
a delivery counts only at or above the fidelity target.  (a) Mean
delivered fidelity and (b) the fidelity-constrained service rate rise with
the budget, which pays for more purification rounds per link.

fig10 — beyond the paper: the classical signaling latency, on the slotted
and the event-driven backend, for OSCAR.  The slotted series is flat; the
event series matches it at zero latency and decays as confirmations miss
the slot deadline.  Pairs decohere over their actual dwell times, so
latency costs fidelity before it costs throughput.

fig11 — beyond the paper: the per-edge outage rate, with outages visible to
the policy (aware: routes crossing a down element are filtered) or hidden
from it (blind: served requests crossing one are interrupted), for OSCAR.
The gap between the two is the value of degradation-aware routing; at rate
zero both equal the fault-free run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import api
from repro.analysis.metrics import jain_fairness_index, success_rate_histogram
from repro.analysis.stats import aggregate_series, downsample
from repro.analysis.theory import (
    delta_optimality_gap,
    drift_constant_bound,
    theorem1_violation_bound,
)
from repro.experiments.config import ExperimentConfig, with_physical_defaults
from repro.experiments.reporting import format_series_table
from repro.network.channels import ATTEMPT_DURATION_S


@dataclass(frozen=True)
class Series:
    """One payload entry: its key, what it reads and its table title.

    ``metric`` names a summary metric, averaged over the trials of each
    line-up entry, or a reducer of :data:`REDUCERS`.  ``title`` formats
    with the run's config as ``c``; ``None`` leaves the entry out of the
    report.
    """

    key: str
    metric: str
    title: Optional[str] = None


@dataclass
class FigureResult:
    """One figure's run: its payload entries and the run they were read from.

    ``data`` holds the entries in payload order: the x values, the series
    and, for fig9–fig11, one layer's stats merged over the grid.
    """

    name: str
    config: ExperimentConfig
    data: Dict[str, object]
    record: Optional[api.RunRecord] = field(default=None, repr=False)
    study: Optional[api.StudyResult] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """The ``figure --json`` payload; the run uses the RunRecord or StudyResult schema."""
        key, run = ("record", self.record) if self.study is None else ("study", self.study)
        return {
            "figure": self.name,
            "config": dataclasses.asdict(self.config),
            **self.data,
            key: run.to_dict(),
        }

    def format_tables(self) -> str:
        """The figure's plain-text report."""
        return "\n\n".join(FIGURES[self.name].tables(self))


def _panels(result: FigureResult) -> List[str]:
    """One table per titled series, the line-up entries as columns."""
    spec = FIGURES[result.name]
    return [
        format_series_table(
            spec.x_title,
            result.data[spec.x_key],
            result.data[series.key],
            title=series.title.format(c=result.config),
        )
        for series in spec.series
        if series.title
    ]


def _columns(result: FigureResult) -> List[str]:
    """One table with a column per series (of the figure's one policy)."""
    spec = FIGURES[result.name]
    columns = {series.title: result.data[series.key] for series in spec.series}
    return [
        format_series_table(
            spec.x_title,
            result.data[spec.x_key],
            columns,
            title=spec.title.format(c=result.config),
        )
    ]


#: Time points of fig3's series tables.
REPORT_POINTS = 11


def _slot_panels(result: FigureResult) -> List[str]:
    """fig3: one table per series, sampled at :data:`REPORT_POINTS` slots."""
    points = min(REPORT_POINTS, len(result.data["slots"]))
    slots = [int(slot) for slot in downsample(result.data["slots"], points)]
    return [
        format_series_table(
            "slot",
            slots,
            {name: downsample(values, points) for name, values in result.data[series.key].items()},
            title=series.title.format(c=result.config),
        )
        for series in FIGURES["fig3"].series
        if series.title
    ]


def _histogram_tables(result: FigureResult) -> List[str]:
    """fig4: the success-rate histogram and the fairness index per policy."""
    edges, fairness = result.data["bin_edges"], result.data["fairness"]
    bins = [f"[{low:.1f},{high:.1f})" for low, high in zip(edges, edges[1:])]
    return [
        format_series_table(
            "bin",
            bins,
            result.data["histograms"],
            title="Fig. 4 Success-rate distribution (fraction of SD pairs per bin)",
        ),
        format_series_table(
            "policy",
            list(fairness),
            {"jain_fairness": list(fairness.values())},
            title="Jain's fairness index of per-request success rates",
        ),
    ]


@dataclass(frozen=True)
class Figure:
    """What one figure sweeps, runs and reports.

    A figure without ``path`` is a view of one comparison run: its series
    are reducers over the run's record.  A sweep sets ``path`` to each of
    ``values(config)`` (or the caller's values), stored in the payload
    under ``x_key`` as ``cast`` makes them and set on the axis as ``axis``
    maps them.  ``outer`` is an axis ``(path, label, values, tag)`` swept
    around it: each series entry then names its line-up entry and the
    ``tag`` of its outer value.  ``layers`` are the layer defaults by config
    path (see :func:`~repro.experiments.config.with_physical_defaults`),
    ``stats`` the ``(payload key, layer)`` of the stats the payload carries.
    ``policies`` narrows the line-up, ``tables`` lays out the report and
    ``title`` heads it when one table holds every series.
    """

    x_key: str
    x_title: str
    series: Tuple[Series, ...]
    tables: Callable[[FigureResult], List[str]] = _panels
    path: Optional[str] = None
    label: str = ""
    values: Optional[Callable[[ExperimentConfig], Sequence]] = None
    cast: Callable = float
    axis: Callable = float
    policies: Tuple[str, ...] = ()
    layers: Mapping[str, object] = field(default_factory=dict)
    outer: Optional[Tuple[str, str, Tuple, Callable]] = None
    stats: Optional[Tuple[str, str]] = None
    title: Optional[str] = None

    @property
    def swept(self) -> Tuple[str, ...]:
        """The config paths the figure's study sets at every point."""
        return tuple(path for path in (self.outer and self.outer[0], self.path) if path)


def _mean_series(method: str) -> Callable:
    """A run reducer: the across-trial mean of one per-slot series, per entry."""

    def reduce(config: ExperimentConfig, record: api.RunRecord,
               bins: int) -> Dict[str, List[float]]:
        return {
            name: aggregate_series(
                [getattr(result, method)() for result in record.results_for(name)]
            )[0]
            for name in record.lineup
        }

    return reduce


def _pools(record: api.RunRecord) -> Dict[str, List[float]]:
    """Every request's success probability, pooled over the trials, per entry."""
    return {
        name: [
            probability
            for result in record.results_for(name)
            for probability in result.all_success_probabilities(include_unserved=True)
        ]
        for name in record.lineup
    }


def _theorem1_bound(config: ExperimentConfig, record: api.RunRecord) -> float:
    """The Theorem-1 bound on OSCAR's time-averaged violation per slot at one V."""
    max_slot_cost = max(
        (max(result.per_slot_costs()) if result.records else 0.0)
        for result in record.results_for("OSCAR")
    )
    max_hops, p_min = 6, 0.3
    try:
        return theorem1_violation_bound(
            horizon=config.horizon,
            initial_queue=config.initial_queue,
            trade_off_v=config.trade_off_v,
            max_pairs=config.max_pairs,
            max_route_length=max_hops,
            min_slot_success=p_min,
            drift_constant=drift_constant_bound(max_slot_cost, config.per_slot_budget),
            delta=delta_optimality_gap(config.trade_off_v, config.max_pairs, max_hops, p_min),
        )
    except ValueError:
        return float("nan")


def _early_cost(config: ExperimentConfig, record: api.RunRecord) -> float:
    """OSCAR's mean spending over the first 10% of the slots."""
    early_slots = max(1, config.horizon // 10)
    early = [
        float(sum(result.per_slot_costs()[:early_slots]))
        for result in record.results_for("OSCAR")
    ]
    return sum(early) / len(early)


#: What a series reads when it is not a summary metric.  A run reducer
#: takes ``(config, record, bins)`` and returns the whole entry; a sweep
#: reducer takes one point's ``(config, record)`` and returns its value.
REDUCERS: Dict[str, Callable] = {
    "slots": lambda config, record, bins: list(range(config.horizon)),
    "running_utility": _mean_series("running_average_utility"),
    "running_success_rate": _mean_series("running_average_success_rate"),
    "cumulative_cost": _mean_series("cumulative_costs"),
    "bin_edges": lambda config, record, bins: success_rate_histogram((), bins)[0],
    "histograms": lambda config, record, bins: {
        name: success_rate_histogram(pool, bins)[1] for name, pool in _pools(record).items()
    },
    "fairness": lambda config, record, bins: {
        name: jain_fairness_index(pool) if pool else 1.0 for name, pool in _pools(record).items()
    },
    "theorem1_bound": _theorem1_bound,
    "early_cost": _early_cost,
}


def _budgets(config: ExperimentConfig) -> List[float]:
    """The paper's 3000…8000 budgets, scaled to the config's budget of 5000."""
    paper = (3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0)
    return [round(config.total_budget * (b / 5000.0), 2) for b in paper]


def mtbf_for_rate(rate: float) -> float:
    """Mean slots between failures for a per-slot failure probability."""
    return 0.0 if rate <= 0 else 1.0 / float(rate)


#: Physical setting of fig10 and fig11 when the config leaves the layer off:
#: near-deterministic swapping plus a memory-cutoff fidelity, so dwell-time
#: decoherence has a threshold to cross.
_CUTOFF_LAYER = {"physical.swap_success": 0.98, "physical.cutoff_fidelity": 0.25}

#: fig7 and fig8 tabulate these summary metrics of OSCAR, then one reducer.
_OSCAR_COLUMNS = (
    Series("average_utility", "average_utility", "avg_utility"),
    Series("average_success_rate", "average_success_rate", "avg_success_rate"),
    Series("total_cost", "total_cost", "total_qubit_usage"),
)

FIGURES: Dict[str, Figure] = {
    "fig3": Figure(
        "slots",
        "slot",
        (
            Series("slots", "slots"),
            Series("running_utility", "running_utility", "Fig. 3(a) Running-average utility"),
            Series("running_success_rate", "running_success_rate",
                   "Fig. 3(b) Running-average EC success rate"),
            Series("cumulative_cost", "cumulative_cost",
                   "Fig. 3(c) Cumulative qubit usage (budget C={c.total_budget:g})"),
        ),
        tables=_slot_panels,
    ),
    "fig4": Figure(
        "bin_edges",
        "bin",
        (
            Series("bin_edges", "bin_edges"),
            Series("histograms", "histograms"),
            Series("fairness", "fairness"),
        ),
        tables=_histogram_tables,
    ),
    "fig5": Figure(
        "budgets",
        "budget C",
        (
            Series("success_rate", "average_success_rate",
                   "Fig. 5(a) Average EC success rate vs. budget"),
            Series("total_cost", "total_cost", "Fig. 5(b) Average total qubit usage vs. budget"),
        ),
        path="budget.total_budget",
        label="C",
        values=_budgets,
    ),
    "fig6": Figure(
        "sizes",
        "nodes",
        (
            Series("success_rate", "average_success_rate",
                   "Fig. 6(a) Average EC success rate vs. network size"),
            Series("total_cost", "total_cost",
                   "Fig. 6(b) Average total qubit usage vs. network size"),
        ),
        path="topology.num_nodes",
        label="N",
        # The paper's 10…30 nodes, scaled to the config's size of 20.
        values=lambda c: sorted({max(6, int(round(c.num_nodes * (s / 20.0))))
                                 for s in (10, 15, 20, 25, 30)}),
        cast=int,
        axis=int,
    ),
    "fig7": Figure(
        "v_values",
        "V",
        (
            *_OSCAR_COLUMNS,
            Series("budget_violation", "budget_violation", "budget_violation"),
            Series("theorem1_bounds", "theorem1_bound", "thm1_violation_bound(avg/slot)"),
        ),
        tables=_columns,
        path="budget.trade_off_v",
        label="V",
        # The paper's V values, scaled to the config's V of 2500.
        values=lambda c: [v * (c.trade_off_v / 2500.0)
                          for v in (500.0, 1000.0, 2500.0, 5000.0, 10000.0)],
        policies=("oscar",),
        title="Fig. 7 Impact of the control parameter V "
              "(budget C={c.total_budget:g}, T={c.horizon})",
    ),
    "fig8": Figure(
        "q0_values",
        "q0",
        (
            *_OSCAR_COLUMNS,
            Series("early_cost", "early_cost", "early_qubit_usage(first 10% slots)"),
        ),
        tables=_columns,
        path="budget.initial_queue",
        label="q0",
        values=lambda c: [0.0, 10.0, 50.0, 100.0, 200.0],
        policies=("oscar",),
        title="Fig. 8 Impact of the initial virtual queue q0 "
              "(V={c.trade_off_v:g}, C={c.total_budget:g})",
    ),
    "fig9": Figure(
        "budgets",
        "budget C",
        (
            Series("delivered_fidelity", "mean_delivered_fidelity",
                   "Fig. 9(a) Mean delivered fidelity vs. budget"),
            Series("fidelity_throughput", "fidelity_served_rate",
                   "Fig. 9(b) Fidelity-constrained service rate vs. budget"),
            Series("delivered_rate", "delivered_success_rate"),
        ),
        path="budget.total_budget",
        label="C",
        values=_budgets,
        # Near-deterministic swapping, two purification rounds per link where
        # the allocation pays for them, and a hard 0.6 fidelity target.
        layers={
            "physical.swap_success": 0.98,
            "physical.purify_rounds": 2,
            "physical.fidelity_target": 0.6,
            "physical.fidelity_constrained": True,
        },
        stats=("physical_stats", "physical"),
    ),
    "fig10": Figure(
        "latencies",
        "latency (s)",
        (
            Series("throughput", "realized_success_rate",
                   "Fig. 10(a) Realized throughput vs. signaling latency"),
            Series("delivered_fidelity", "mean_delivered_fidelity",
                   "Fig. 10(b) Mean delivered fidelity vs. signaling latency"),
        ),
        path="timing.signaling_latency_s",
        label="latency_s",
        # Fractions of one slot's entanglement-attempt window, zero included.
        values=lambda c: [round(f * (c.attempts_per_slot * ATTEMPT_DURATION_S), 9)
                          for f in (0.0, 0.05, 0.1, 0.2, 0.4)],
        policies=("oscar",),
        layers=_CUTOFF_LAYER,
        outer=("timing.backend", "backend", ("slotted", "event"), str),
        stats=("event_stats", "eventsim"),
    ),
    "fig11": Figure(
        "outage_rates",
        "outage rate (1/slot)",
        (
            Series("throughput", "realized_success_rate",
                   "Fig. 11(a) Realized throughput vs. outage rate"),
            Series("delivered_fidelity", "mean_delivered_fidelity",
                   "Fig. 11(b) Mean delivered fidelity vs. outage rate"),
        ),
        path="faults.edge_mtbf",
        label="edge_mtbf",
        # Per-edge failure probabilities per slot, zero included.
        values=lambda c: [0.0, 0.005, 0.01, 0.02, 0.05],
        axis=mtbf_for_rate,
        policies=("oscar",),
        layers={**_CUTOFF_LAYER, "faults.enabled": True},
        outer=("faults.aware", "aware", (True, False), lambda aware: "aware" if aware else "blind"),
        stats=("fault_stats", "faults"),
    ),
}


def build_study(name: str, config: ExperimentConfig, values: Sequence) -> api.Study:
    """Sweep ``name`` over ``values`` as a :class:`~repro.api.study.Study`, without running it.

    ``config`` is taken as given: :func:`run` applies the layer defaults
    first.
    """
    spec = FIGURES[name]
    scenario = api.Scenario.from_config(config, name=name)
    if spec.policies:
        scenario = scenario.with_policies(*spec.policies)
    study = api.Study(name).base(scenario)
    if spec.outer:
        path, label, outer_values, _ = spec.outer
        study = study.over(path, list(outer_values), label=label)
    axis_values = [spec.axis(spec.cast(value)) for value in values]
    return study.over(spec.path, axis_values, label=spec.label)


def _summary_series(spec: Figure, study: api.StudyResult, metric: str) -> Dict[str, List[float]]:
    """Across-trial means of ``metric`` per line-up entry (and outer tag), in grid order."""
    series: Dict[str, List[float]] = {}
    for point, summary in zip(study.points, study.summaries()):
        tag = f" ({spec.outer[3](point.coordinates[spec.outer[1]])})" if spec.outer else ""
        for policy, metrics in summary.items():
            aggregate = metrics.get(metric)
            value = float(aggregate.mean) if aggregate is not None else float("nan")
            series.setdefault(policy + tag, []).append(value)
    return series


def run(
    name: str,
    config: Optional[ExperimentConfig] = None,
    values: Optional[Sequence] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    store: Union[None, str, api.ResultStore] = None,
    record: Optional[api.RunRecord] = None,
    bins: int = 10,
) -> FigureResult:
    """Run figure ``name`` and read its series.

    ``values`` replaces a sweep's default x values; ``record`` reuses a
    comparison run for fig3 or fig4, whose config then stands for
    ``config``; ``bins`` sizes fig4's histogram.
    """
    spec = FIGURES[name]
    config = (config or ExperimentConfig.paper()).with_run_overrides(trials, seed)
    config = with_physical_defaults(config, spec.layers)
    if spec.path is None:
        if record is None:
            record = api.compare(config, workers=workers, name=name)
        else:
            config = api.Scenario.from_dict(record.scenario).config
        data = {series.key: REDUCERS[series.metric](config, record, bins) for series in spec.series}
        return FigureResult(name, config, data, record=record)

    values = spec.values(config) if values is None else values
    study = build_study(name, config, values).run(workers=workers, store=store)
    data: Dict[str, object] = {spec.x_key: [spec.cast(value) for value in values]}
    for series in spec.series:
        if series.metric in REDUCERS:
            reduce = REDUCERS[series.metric]
            data[series.key] = [
                reduce(config.with_overrides(**{spec.path: spec.cast(value)}), point)
                for value, point in zip(values, study.records)
            ]
            continue
        data[series.key] = _summary_series(spec, study, series.metric)
        if spec.tables is _columns:
            (data[series.key],) = data[series.key].values()
    if spec.stats:
        data[spec.stats[0]] = study.stats(spec.stats[1])
    return FigureResult(name, config, data, study=study)


def final_values(result: FigureResult) -> Dict[str, Dict[str, float]]:
    """fig3's end-of-horizon utility, success rate and spending per policy."""
    data = result.data
    return {
        name: {
            "final_utility": data["running_utility"][name][-1],
            "final_success_rate": data["running_success_rate"][name][-1],
            "final_cost": data["cumulative_cost"][name][-1],
        }
        for name in data["running_utility"]
    }


def oscar_advantage(result: FigureResult, baseline: str = "MF") -> List[float]:
    """OSCAR-minus-``baseline`` success-rate gap at each budget of fig5 (should shrink)."""
    rates = result.data["success_rate"]
    return [oscar - other for oscar, other in zip(rates["OSCAR"], rates[baseline])]
