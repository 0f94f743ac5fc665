"""The experiment harness: the paper configuration and one module per figure.

Every figure runs through :mod:`repro.api` and keeps what it ran:
``fig3``/``fig4`` hold the run's :class:`~repro.api.records.RunRecord` as
``.record``, the sweeps (fig5–fig11) their
:class:`~repro.api.study.StudyResult` as ``.study``, whose ``records`` are
the runs of each point.  Tables and series are read from those records.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments import (
    fig3_time_evolving,
    fig4_distribution,
    fig5_budget,
    fig6_network_size,
    fig7_control_v,
    fig8_initial_queue,
    fig9_fidelity,
    fig10_timing,
    fig11_resilience,
    ablations,
)

__all__ = [
    "ExperimentConfig",
    "fig3_time_evolving",
    "fig4_distribution",
    "fig5_budget",
    "fig6_network_size",
    "fig7_control_v",
    "fig8_initial_queue",
    "fig9_fidelity",
    "fig10_timing",
    "fig11_resilience",
    "ablations",
]
