"""Baseline protocols from the paper's introduction.

Every protocol the paper positions Best-of-3 against, implemented on the
same :class:`repro.graphs.Graph` interface so E8/E11 comparisons are
apples-to-apples:

* :mod:`repro.baselines.voter` — Best-of-1 (the voter model) with its
  exact degree-proportional win-probability law.
* :mod:`repro.baselines.best_of_two` — Best-of-2 with both tie rules and
  the Cooper–Elsässer–Radzik [4] / Cooper et al. [5] sufficient
  conditions.
* :mod:`repro.baselines.best_of_k` — Best-of-k for odd ``k ≥ 5`` with the
  Abdullah–Draief [1] applicability predicate.
* :mod:`repro.baselines.plurality` — multi-opinion (q-colour) 3-majority
  with random tie-breaking, the Becchetti et al. [2] setting.

Deterministic full-neighbourhood majority, the classic contrast
protocol, is :class:`repro.core.protocols.LocalMajority`.
"""

from repro.baselines.best_of_k import abdullah_draief_applicable, best_of_k_dynamics
from repro.baselines.best_of_two import (
    best_of_two_dynamics,
    cooper_imbalance_threshold,
    satisfies_cooper_condition,
    satisfies_spectral_condition,
)
from repro.baselines.plurality import (
    becchetti_gap_threshold,
    random_plurality_opinions,
)
from repro.baselines.voter import voter_dynamics, voter_win_probability

__all__ = [
    "voter_dynamics",
    "voter_win_probability",
    "best_of_two_dynamics",
    "cooper_imbalance_threshold",
    "satisfies_cooper_condition",
    "satisfies_spectral_condition",
    "best_of_k_dynamics",
    "abdullah_draief_applicable",
    "random_plurality_opinions",
    "becchetti_gap_threshold",
]
