"""Measurement and statistics layer.

Turns raw dynamics runs into the quantities the paper's claims are stated
in: consensus-time distributions over trial ensembles
(:mod:`repro.analysis.experiments`), confidence intervals and tail bounds
(:mod:`repro.analysis.stats`), growth-law fits distinguishing
``log log n`` from ``log n`` scaling (:mod:`repro.analysis.fitting`), and
monospace tables/plots for terminals and EXPERIMENTS.md
(:mod:`repro.analysis.tables`, :mod:`repro.analysis.asciiplot`).
"""

from repro.analysis.experiments import ConsensusEnsemble
from repro.analysis.fitting import (
    GrowthFit,
    fit_growth_models,
    geometric_growth_rate,
)
from repro.analysis.stats import (
    bootstrap_mean_ci,
    empirical_survival,
    wilson_interval,
)
from repro.analysis.tables import format_table
from repro.analysis.asciiplot import line_plot
from repro.analysis.trajectories import TrajectoryBundle, hitting_times

__all__ = [
    "ConsensusEnsemble",
    "TrajectoryBundle",
    "hitting_times",
    "wilson_interval",
    "bootstrap_mean_ci",
    "empirical_survival",
    "GrowthFit",
    "fit_growth_models",
    "geometric_growth_rate",
    "format_table",
    "line_plot",
]
