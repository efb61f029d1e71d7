"""The synchronous Best-of-k voting dynamics (§2 of the paper).

At every time step each vertex independently samples ``k`` neighbours
uniformly *with replacement* and adopts the majority opinion of the sample;
for even ``k`` a tie rule applies (§1: keep own opinion, or pick a random
one of the tied opinions).  ``k = 3`` is the paper's protocol;
``k = 1`` is the voter model and ``k = 2`` the Best-of-two baseline.

Implementation notes (hpc-parallel guide compliance):

* One round is one row of the batched round
  (:func:`repro.core.dense.step_best_of_k_batch`): one ``(1, n, k)``
  sample tensor + one gather + one vote reduction.  No Python-level loop
  over vertices; the per-round cost is a handful of vectorised NumPy
  kernels.
* :meth:`BestOfKDynamics.run` owns no loop: it is one replica of the
  ensemble engine's dense loop, so a run and an ``R = 1`` engine pass
  over the same generator are the same computation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.opinions import OPINION_DTYPE, RED
from repro.graphs.base import Graph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "TieRule",
    "RunResult",
    "step_best_of_k",
    "BestOfKDynamics",
    "best_of_three",
]


class TieRule(enum.Enum):
    """Tie-breaking for even sample sizes (paper §1).

    ``KEEP_SELF``: on a tie the vertex keeps its current opinion (rule (i)).
    ``RANDOM``: on a tie the vertex picks uniformly among the tied opinions
    (rule (ii)); with two opinions this is a fair coin.
    """

    KEEP_SELF = "keep_self"
    RANDOM = "random"


def step_best_of_k(
    graph: Graph,
    opinions: np.ndarray,
    k: int,
    rng: np.random.Generator,
    *,
    tie_rule: TieRule = TieRule.KEEP_SELF,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply one synchronous Best-of-k round and return the new opinions.

    One row of :func:`repro.core.dense.step_best_of_k_batch`: the round
    runs as an ``R = 1`` batch, so it consumes *rng* exactly as a
    one-replica ensemble round does.

    Parameters
    ----------
    graph:
        Host graph (any :class:`repro.graphs.Graph`).
    opinions:
        Current opinion vector of shape ``(n,)``, not modified; ``bool``,
        integer and float 0/1 vectors are read as ``uint8``.
    k:
        Sample size per vertex; odd values never tie.
    rng:
        Randomness for the neighbour draws (and tie coins if needed).
    tie_rule:
        Only consulted when ``k`` is even.
    out:
        Optional preallocated output buffer (shape ``(n,)``, uint8).  May
        *not* share memory with ``opinions`` — the update is synchronous.

    Returns
    -------
    numpy.ndarray
        New opinion vector (``out`` if given).
    """
    # Imported here: ``dense`` imports :class:`TieRule` from this module.
    from repro.core.dense import step_best_of_k_batch

    n = graph.num_vertices
    if opinions.shape != (n,):
        raise ValueError(
            f"opinions shape {opinions.shape} does not match graph n={n}"
        )
    if out is None:
        out = np.empty(n, dtype=OPINION_DTYPE)
    step_best_of_k_batch(
        graph,
        opinions.astype(OPINION_DTYPE, copy=False)[None],
        k,
        rng,
        tie_rule=tie_rule,
        out=out[None],
    )
    return out


@dataclass
class RunResult:
    """Outcome of a dynamics run.

    Attributes
    ----------
    converged:
        Whether consensus was reached within the step budget.
    winner:
        ``RED``/``BLUE`` if converged, else ``None``.
    steps:
        Rounds executed (equals the consensus time when converged).
    blue_trajectory:
        Blue-vertex counts ``[B_0, B_1, ..., B_steps]`` (length
        ``steps + 1``).
    final_opinions:
        The terminal opinion vector (present unless recording was
        disabled).
    n:
        Number of vertices of the host graph (recorded even when
        ``keep_final=False`` so fractions stay computable).
    """

    converged: bool
    winner: int | None
    steps: int
    blue_trajectory: np.ndarray
    final_opinions: np.ndarray | None = field(default=None, repr=False)
    n: int | None = None

    @property
    def red_wins(self) -> bool:
        """True iff the run converged to all-red (Theorem 1's prediction)."""
        return self.converged and self.winner == RED

    @property
    def blue_fractions(self) -> np.ndarray:
        """Blue fraction per round (trajectory / n)."""
        if self.n is not None:
            n = self.n
        elif self.final_opinions is not None:
            n = self.final_opinions.size
        else:
            raise ValueError(
                "blue_fractions needs the vertex count; this RunResult "
                "carries neither n nor final_opinions"
            )
        return self.blue_trajectory / n


class BestOfKDynamics:
    """Reusable runner for the synchronous Best-of-k process.

    Parameters
    ----------
    graph:
        Host graph.
    k:
        Sample size (3 reproduces the paper's protocol).
    tie_rule:
        Tie handling for even ``k``.

    Examples
    --------
    >>> from repro.graphs import CompleteGraph
    >>> from repro.core import random_opinions
    >>> g = CompleteGraph(500)
    >>> dyn = BestOfKDynamics(g, k=3)
    >>> result = dyn.run(random_opinions(500, delta=0.1, rng=1), seed=2)
    >>> result.converged and result.winner == 0  # red wins
    True
    """

    def __init__(
        self, graph: Graph, k: int = 3, *, tie_rule: TieRule = TieRule.KEEP_SELF
    ) -> None:
        self.graph = graph
        self.k = check_positive_int(k, "k")
        self.tie_rule = tie_rule

    def run(
        self,
        initial_opinions: np.ndarray,
        *,
        seed: SeedLike = None,
        max_steps: int = 10_000,
        keep_final: bool = True,
    ) -> RunResult:
        """Run until consensus or *max_steps*, recording the blue count.

        One replica of the engine's dense loop
        (:func:`repro.core.ensemble._run_batched`), driven by
        ``as_generator(seed)`` itself rather than by ``run_ensemble``'s
        spawned streams, so a seeded run draws exactly what one
        :func:`step_best_of_k` per round from that generator draws.
        """
        # Imported here: the engine imports :class:`TieRule` from this module.
        from repro.core.dense import DEFAULT_BATCH_BYTES
        from repro.core.ensemble import _run_batched
        from repro.core.protocols import BestOfK

        max_steps = check_positive_int(max_steps, "max_steps")
        n = self.graph.num_vertices
        if initial_opinions.shape != (n,):
            raise ValueError(
                f"initial_opinions shape {initial_opinions.shape} does not "
                f"match graph n={n}"
            )
        start = initial_opinions.astype(OPINION_DTYPE, copy=True)[None]
        res = _run_batched(
            self.graph, BestOfK(self.k, tie_rule=self.tie_rule), start,
            as_generator(seed), max_steps, True, keep_final,
            DEFAULT_BATCH_BYTES,
        )
        winner = int(res.winners[0])
        return RunResult(
            converged=bool(res.converged[0]),
            winner=winner if winner >= 0 else None,
            steps=int(res.steps[0]),
            blue_trajectory=res.blue_trajectories[0],
            final_opinions=res.final_opinions[0] if keep_final else None,
            n=n,
        )

    def step(
        self,
        opinions: np.ndarray,
        rng: np.random.Generator,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Single round (thin wrapper over :func:`step_best_of_k`)."""
        return step_best_of_k(
            self.graph, opinions, self.k, rng, tie_rule=self.tie_rule, out=out
        )


def best_of_three(graph: Graph) -> BestOfKDynamics:
    """The paper's protocol: :class:`BestOfKDynamics` with ``k = 3``."""
    return BestOfKDynamics(graph, k=3)
