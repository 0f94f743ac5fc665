"""The experiment harness: the paper configuration, its figures and ablations.

:mod:`repro.experiments.figures` describes every figure as data and runs
any of them through :mod:`repro.api`; :mod:`repro.experiments.ablations`
holds the four ablation studies.  Neither is imported here, so importing
the configuration (as :mod:`repro.api` does) loads no figure code.
"""

from repro.experiments.config import ExperimentConfig

__all__ = ["ExperimentConfig"]
