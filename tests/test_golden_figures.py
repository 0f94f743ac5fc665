"""Golden figure tables: fig3–fig11 at ``tiny`` scale must stay byte-identical.

Each golden file under ``tests/data/golden/`` is the ``format_tables()``
report of one figure, built exactly as ``repro figure <name> --scale tiny
--trials 1`` builds it.  fig3 and fig6 are pinned a second time in replay
mode (``dual_tolerance=0``), the kernel's fixed subgradient schedule.

To regenerate after an intended change to a figure::

    PYTHONPATH=src python tests/test_golden_figures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

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
)
from repro.experiments.config import ExperimentConfig

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

FIGURES = {
    "fig3": (fig3_time_evolving, None),
    "fig4": (fig4_distribution, None),
    "fig5": (fig5_budget, None),
    "fig6": (fig6_network_size, None),
    "fig7": (fig7_control_v, None),
    "fig8": (fig8_initial_queue, None),
    "fig9": (fig9_fidelity, fig9_fidelity.fig9_config),
    "fig10": (fig10_timing, fig10_timing.fig10_config),
    "fig11": (fig11_resilience, fig11_resilience.fig11_config),
}

#: (golden file stem, figure, dual_tolerance override or None).
CASES = [(name, name, None) for name in FIGURES] + [
    ("fig3-replay", "fig3", 0.0),
    ("fig6-replay", "fig6", 0.0),
]


def figure_tables(name: str, dual_tolerance=None) -> str:
    """The tiny-scale, one-trial report of figure ``name``."""
    module, figure_config = FIGURES[name]
    config = ExperimentConfig.tiny().with_overrides(trials=1)
    if dual_tolerance is not None:
        config = config.with_overrides(dual_tolerance=dual_tolerance)
    if figure_config is not None:
        config = figure_config(config, explicit=set())
    return module.run(config, workers=1).format_tables()


@pytest.mark.parametrize("stem,name,dual_tolerance", CASES, ids=[c[0] for c in CASES])
def test_figure_tables_match_golden(stem, name, dual_tolerance):
    expected = (GOLDEN_DIR / f"{stem}.txt").read_text()
    assert figure_tables(name, dual_tolerance) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stem, name, dual_tolerance in CASES:
        (GOLDEN_DIR / f"{stem}.txt").write_text(figure_tables(name, dual_tolerance))
        print(f"wrote {stem}", file=sys.stderr)
