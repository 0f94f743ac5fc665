"""Regenerate the paper's figures from the command line.

Usage::

    python examples/paper_experiments.py fig3 [--scale paper|small|tiny]
    python examples/paper_experiments.py all  --scale small --workers 4

``--scale paper`` uses the exact configuration of Section V-A (20 nodes,
T=200, C=5000, 5 trials) and takes a long time; ``small`` (default) keeps
the per-slot budget and all algorithm parameters but shrinks the horizon,
network and trial count so every figure regenerates in seconds to minutes;
``tiny`` is for smoke-testing the pipeline.  ``--workers N`` runs the
trials of each comparison in a process pool through the :mod:`repro.api`
session layer — results are bit-identical to a serial run.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import api
from repro.experiments import ablations, figures
from repro.experiments.config import ExperimentConfig

FIGURES = (*figures.FIGURES, "ablations")

#: Scale name → base scenario (the facade's presets mirror the config's).
SCALES = {
    "paper": api.Scenario.paper,
    "small": api.Scenario.small,
    "tiny": api.Scenario.tiny,
}


def config_for_scale(scale: str) -> ExperimentConfig:
    """The experiment configuration for a given --scale value."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return SCALES[scale]().config


def run_figure(name: str, config: ExperimentConfig, workers: int = 1) -> str:
    """Run one figure (or the ablations) and return its plain-text report."""
    if name == "ablations":
        return ablations.run_all(config, workers=workers)
    if name not in figures.FIGURES:
        raise ValueError(f"unknown figure {name!r}; choose from {FIGURES} or 'all'")
    return figures.run(name, config, workers=workers).format_tables()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("figure", choices=list(FIGURES) + ["all"],
                        help="which figure of the paper to regenerate")
    parser.add_argument("--scale", default="small", choices=sorted(SCALES.keys()),
                        help="experiment scale (default: small)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per comparison (default: 1)")
    arguments = parser.parse_args(argv)

    config = config_for_scale(arguments.scale)
    targets = list(FIGURES) if arguments.figure == "all" else [arguments.figure]
    for target in targets:
        started = time.time()
        print(f"=== {target} (scale={arguments.scale}) ===")
        print(run_figure(target, config, workers=arguments.workers))
        print(f"--- {target} done in {time.time() - started:.1f} s ---\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
