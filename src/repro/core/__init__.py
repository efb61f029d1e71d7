"""The paper's primary contribution: Best-of-Three voting and its analysis.

Layout (mirrors the paper):

* :mod:`repro.core.opinions` — opinion vectors and initial configurations
  (§2: i.i.d. blue with probability ``1/2 − δ``).
* :mod:`repro.core.dynamics` — the synchronous Best-of-k update rule and
  run loop (§2's Markov chain ``(ξ_t)``).
* :mod:`repro.core.protocols` — first-class protocol objects (Best-of-k
  and its noisy/zealot/async variants, voter, local majority,
  plurality) bundling batch step + count-chain transition + mean-field
  map for the ensemble engine (DESIGN.md §2.6).
* :mod:`repro.core.recursions` — equations (1)–(5) and the Lemma 4 phase
  decomposition; the Theorem 1 round-budget predictor.
* :mod:`repro.core.voting_dag` — the dual voting-DAG ``H(v₀, T)`` of §2.
* :mod:`repro.core.sprinkling` — the §3 Sprinkling process and the
  Proposition 3 majorization coupling.
* :mod:`repro.core.ternary` — Lemmas 5 and 6 (ternary-tree transforms).
* :mod:`repro.core.collisions` — Lemma 7 (collision-count majorant and
  tail bounds, eqs. (6)–(9)).
* :mod:`repro.core.theorem` — Theorem 1 hypotheses checking and
  Monte-Carlo verification.
"""

from repro.core.dynamics import (
    BestOfKDynamics,
    RunResult,
    TieRule,
    best_of_three,
    step_best_of_k,
)
from repro.core.ensemble import (
    EnsembleResult,
    build_initial_matrix,
    majority_win_probability,
    run_ensemble,
    step_best_of_k_batch,
)
from repro.core.kernels import (
    AdoptionLaw,
    CompleteKernel,
    CountChainKernel,
    MajorityLaw,
    MultipartiteKernel,
    NoisyLaw,
    TwoCliqueBridgeKernel,
    binomial_draw,
)
from repro.core.meanfield import (
    best_of_k_hitting_time,
    best_of_k_map,
    best_of_k_trajectory,
    noisy_best_of_k_map,
    plurality_map,
    zealot_best_of_k_map,
)
from repro.core.protocols import (
    AsyncSweepBestOfK,
    BestOfK,
    LocalMajority,
    NoisyBestOfK,
    NoisyZealotBestOfK,
    Plurality,
    Protocol,
    Voter,
    ZealotBestOfK,
)
from repro.core.opinions import (
    BLUE,
    RED,
    adversarial_opinions,
    blue_count,
    blue_fraction,
    consensus_value,
    exact_count_opinions,
    is_consensus,
    random_opinions,
)
from repro.core.recursions import (
    PhaseBreakdown,
    consensus_time_bound,
    epsilon_schedule,
    gap_step,
    ideal_fixed_points,
    ideal_hitting_time,
    ideal_step,
    ideal_trajectory,
    phase_lengths,
    sprinkled_step,
    sprinkled_step_tight,
    sprinkled_trajectory,
)
from repro.core.sprinkling import SprinkledDAG, sprinkle
from repro.core.ternary import (
    dag_to_ternary_leaves,
    evaluate_ternary_root,
    lemma5_min_blue_leaves,
)
from repro.core.theorem import Theorem1Certificate, check_hypotheses, verify_theorem1
from repro.core.voting_dag import VotingDAG

__all__ = [
    "BLUE",
    "RED",
    "random_opinions",
    "exact_count_opinions",
    "adversarial_opinions",
    "blue_count",
    "blue_fraction",
    "is_consensus",
    "consensus_value",
    "TieRule",
    "RunResult",
    "BestOfKDynamics",
    "best_of_three",
    "step_best_of_k",
    "EnsembleResult",
    "run_ensemble",
    "step_best_of_k_batch",
    "build_initial_matrix",
    "majority_win_probability",
    "binomial_draw",
    "AdoptionLaw",
    "MajorityLaw",
    "NoisyLaw",
    "CountChainKernel",
    "CompleteKernel",
    "MultipartiteKernel",
    "TwoCliqueBridgeKernel",
    "Protocol",
    "BestOfK",
    "Voter",
    "NoisyBestOfK",
    "ZealotBestOfK",
    "NoisyZealotBestOfK",
    "AsyncSweepBestOfK",
    "LocalMajority",
    "Plurality",
    "best_of_k_map",
    "best_of_k_trajectory",
    "best_of_k_hitting_time",
    "noisy_best_of_k_map",
    "zealot_best_of_k_map",
    "plurality_map",
    "ideal_step",
    "ideal_trajectory",
    "ideal_hitting_time",
    "ideal_fixed_points",
    "epsilon_schedule",
    "sprinkled_step",
    "sprinkled_step_tight",
    "sprinkled_trajectory",
    "gap_step",
    "PhaseBreakdown",
    "phase_lengths",
    "consensus_time_bound",
    "VotingDAG",
    "SprinkledDAG",
    "sprinkle",
    "evaluate_ternary_root",
    "lemma5_min_blue_leaves",
    "dag_to_ternary_leaves",
    "Theorem1Certificate",
    "check_hypotheses",
    "verify_theorem1",
]
