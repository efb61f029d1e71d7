"""Seeded replay pins for every ensemble-engine route and per-trial path.

Each ``CASES`` entry runs :func:`run_ensemble` with a fixed seed and
compares sha256 digests of every result field — ``steps``, ``winners``,
``converged``, ``final_totals``, every trajectory and (where kept)
``final_opinions`` — against recorded values.  Each ``TRIAL_CASES``
entry pins the per-trial surface the same way: both samplers on every
host kind, the single-replica round and runner, the consensus summary,
the sampling duals, every kernel's initial state and the dense initial
matrix, digesting arrays with their dtypes.  A refactor of
the engine loop, the dense step, a sampler or the count chain must leave
all of them byte-identical; a deliberate stream change has to re-record
them here and say so.

Regenerate the table with::

    PYTHONPATH=src python tests/test_engine_replay.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.experiments import ConsensusEnsemble
from repro.core.dynamics import BestOfKDynamics, TieRule, step_best_of_k
from repro.core.ensemble import build_initial_matrix, run_ensemble
from repro.core.protocols import (
    AsyncSweepBestOfK,
    BestOfK,
    LocalMajority,
    NoisyBestOfK,
    Plurality,
    ZealotBestOfK,
)
from repro.core.voting_dag import VotingDAG
from repro.dual.coalescing import coalescing_random_walk
from repro.dual.cobra import cobra_walk
from repro.graphs.generators import (
    erdos_renyi,
    random_regular,
    two_clique_bridge,
)
from repro.graphs.implicit import (
    CompleteBipartiteGraph,
    CompleteGraph,
    CompleteMultipartiteGraph,
    RookGraph,
)


def _er():
    return erdos_renyi(300, 0.08, seed=7)


def _absorbed_rows(n: int) -> np.ndarray:
    """Six rows: two already unanimous (one per colour), four mixed."""
    rng = np.random.default_rng(3)
    rows = (rng.random((6, n)) < 0.4).astype(np.uint8)
    rows[1] = 0
    rows[4] = 1
    return rows


CASES = {
    "dense_csr_serial": lambda: run_ensemble(
        _er(), replicas=24, k=3, seed=11, delta=0.1, max_steps=400,
        threads=0,
    ),
    "dense_rook_serial": lambda: run_ensemble(
        RookGraph(14), replicas=20, k=3, seed=12, delta=0.08, max_steps=400,
    ),
    # The benchmark rook job's layout: threaded, three-replica blocks.
    "dense_rook_threads2": lambda: run_ensemble(
        RookGraph(32), replicas=48, k=3, seed=25, delta=0.05, max_steps=400,
        threads=2, max_batch_bytes=120_000, keep_final=True,
    ),
    "dense_rook_k5": lambda: run_ensemble(
        RookGraph(14), replicas=16, k=5, seed=26, delta=0.05, max_steps=400,
    ),
    "dense_even_k_keep_self": lambda: run_ensemble(
        RookGraph(14), replicas=12, k=4, tie_rule=TieRule.KEEP_SELF,
        seed=27, delta=0.1, max_steps=60, keep_final=True,
    ),
    "dense_even_k_random": lambda: run_ensemble(
        _er(), replicas=12, k=2, tie_rule=TieRule.RANDOM, seed=28,
        delta=0.1, max_steps=60, keep_final=True,
    ),
    "dense_rr_threads2": lambda: run_ensemble(
        random_regular(256, 16, seed=5), replicas=40, k=3, seed=13,
        delta=0.1, max_steps=400, threads=2, max_batch_bytes=4096,
    ),
    "dense_keep_final": lambda: run_ensemble(
        _er(), replicas=16, k=3, seed=14, delta=0.05, max_steps=400,
        keep_final=True,
    ),
    "dense_keep_final_threads2": lambda: run_ensemble(
        _er(), replicas=16, k=3, seed=14, delta=0.05, max_steps=400,
        keep_final=True, threads=2, max_batch_bytes=4096,
    ),
    "chain_complete": lambda: run_ensemble(
        CompleteGraph(10**6), replicas=64, k=3, seed=15, delta=0.01,
        max_steps=400,
    ),
    "chain_multipartite": lambda: run_ensemble(
        CompleteMultipartiteGraph([40, 60, 80]), replicas=48, k=3, seed=16,
        delta=0.05, max_steps=400,
    ),
    "noisy_chain_fixed_rounds": lambda: run_ensemble(
        CompleteGraph(4096), replicas=16, protocol=NoisyBestOfK(0.2),
        seed=17, delta=0.1, max_steps=60,
    ),
    "noisy_dense_fixed_rounds": lambda: run_ensemble(
        _er(), replicas=12, protocol=NoisyBestOfK(0.2), seed=18, delta=0.1,
        max_steps=40,
    ),
    "zealot_chain": lambda: run_ensemble(
        CompleteMultipartiteGraph([64] * 4), replicas=32,
        protocol=ZealotBestOfK(20), seed=19, delta=0.2, max_steps=400,
    ),
    "zealot_dense": lambda: run_ensemble(
        _er(), replicas=16, protocol=ZealotBestOfK(15), seed=20, delta=0.2,
        max_steps=400,
    ),
    "plurality_dense": lambda: run_ensemble(
        _er(), replicas=12, protocol=Plurality(3), seed=21,
        initializer=lambda n, g: g.integers(0, 3, size=n), max_steps=400,
    ),
    "local_majority_dense": lambda: run_ensemble(
        _er(), replicas=12, protocol=LocalMajority(), seed=22, delta=0.05,
        max_steps=50,
    ),
    "absorbed_at_round0_dense": lambda: run_ensemble(
        _er(), replicas=6, protocol=BestOfK(3), seed=23,
        initial_opinions=_absorbed_rows(300), max_steps=400,
        keep_final=True,
    ),
    "absorbed_at_round0_chain": lambda: run_ensemble(
        CompleteGraph(300), replicas=6, k=3, seed=24,
        initial_opinions=_absorbed_rows(300), max_steps=400,
    ),
    # Initial-state routes: every way a call draws its replicas' start.
    # K_{10^10} at δ = 0.05 starts in binomial_draw's Gaussian regime; at
    # δ = 0.4999999 the start's mean is ≈ 10³, its Poisson tail.
    "chain_complete_gaussian": lambda: run_ensemble(
        CompleteGraph(10**10), replicas=64, k=3, seed=32, delta=0.05,
        max_steps=400,
    ),
    "chain_complete_poisson_tail": lambda: run_ensemble(
        CompleteGraph(10**10), replicas=64, k=3, seed=33, delta=0.4999999,
        max_steps=400,
    ),
    "chain_complete_blue_counts": lambda: run_ensemble(
        CompleteGraph(5000), replicas=24, k=3, seed=34,
        initial_blue_counts=np.arange(24) * 50 + 1000, max_steps=400,
    ),
    "chain_multipartite_blue_counts": lambda: run_ensemble(
        CompleteMultipartiteGraph([40, 60, 80]), replicas=32, k=3, seed=35,
        initial_blue_counts=70, max_steps=400,
    ),
    "chain_bridge_blue_counts": lambda: run_ensemble(
        two_clique_bridge(30, bridges=2), replicas=32, k=3, seed=36,
        initial_blue_counts=25, max_steps=400,
    ),
    "chain_bridge_delta": lambda: run_ensemble(
        two_clique_bridge(30, bridges=1), replicas=32, k=3, seed=37,
        delta=0.1, max_steps=400,
    ),
    "chain_complete_initializer": lambda: run_ensemble(
        CompleteGraph(500), replicas=16, k=3, seed=38,
        initializer=lambda n, g: g.random(n) < 0.4, max_steps=400,
    ),
    "zealot_chain_complete": lambda: run_ensemble(
        CompleteGraph(2000), replicas=32, protocol=ZealotBestOfK(50),
        seed=39, delta=0.2, max_steps=400,
    ),
    "zealot_chain_complete_blue_counts": lambda: run_ensemble(
        CompleteGraph(2000), replicas=32, protocol=ZealotBestOfK(50),
        seed=41, initial_blue_counts=900, max_steps=400,
    ),
    "zealot_chain_multipartite_blue_counts": lambda: run_ensemble(
        CompleteMultipartiteGraph([64] * 4), replicas=32,
        protocol=ZealotBestOfK(20), seed=42, initial_blue_counts=110,
        max_steps=400,
    ),
    "zealot_chain_bridge": lambda: run_ensemble(
        two_clique_bridge(30, bridges=1), replicas=32,
        protocol=ZealotBestOfK(3), seed=43, delta=0.1, max_steps=400,
    ),
    "zealot_chain_initializer": lambda: run_ensemble(
        CompleteMultipartiteGraph([64] * 4), replicas=16,
        protocol=ZealotBestOfK(20), seed=44,
        initializer=lambda n, g: g.random(n) < 0.3, max_steps=400,
    ),
    # Kernel rounds the cases above miss: even-k KEEP_SELF (the own
    # colour enters the law), the noisy law, the Gaussian regime of a
    # multipartite round, the bridge's unsorted slot order under
    # projection, and a pinned bridge endpoint.
    "chain_multipartite_k4_keep_self": lambda: run_ensemble(
        CompleteMultipartiteGraph([40, 60, 80]), replicas=24, k=4,
        tie_rule=TieRule.KEEP_SELF, seed=47, delta=0.1, max_steps=400,
    ),
    "chain_bridge_k4_keep_self": lambda: run_ensemble(
        two_clique_bridge(30, bridges=2), replicas=24, k=4,
        tie_rule=TieRule.KEEP_SELF, seed=48, delta=0.1, max_steps=400,
    ),
    "noisy_chain_multipartite": lambda: run_ensemble(
        CompleteMultipartiteGraph([40, 60, 80]), replicas=16,
        protocol=NoisyBestOfK(0.2), seed=49, delta=0.1, max_steps=60,
    ),
    "noisy_chain_bridge": lambda: run_ensemble(
        two_clique_bridge(30, bridges=2), replicas=16,
        protocol=NoisyBestOfK(0.2), seed=55, delta=0.1, max_steps=60,
    ),
    "chain_multipartite_gaussian": lambda: run_ensemble(
        CompleteMultipartiteGraph([30, 50, 3 * 10**9]), replicas=32, k=3,
        seed=56, delta=0.05, max_steps=400,
    ),
    "chain_bridge3_initial_opinions": lambda: run_ensemble(
        two_clique_bridge(20, bridges=3), replicas=16, k=3, seed=57,
        initial_opinions=(
            np.random.default_rng(4).random((16, 40)) < 0.45
        ).astype(np.uint8),
        max_steps=400,
    ),
    "zealot_chain_bridge_endpoint": lambda: run_ensemble(
        two_clique_bridge(30, bridges=2), replicas=32,
        protocol=ZealotBestOfK(1), seed=58, delta=0.1, max_steps=400,
    ),
    "dense_blue_counts": lambda: run_ensemble(
        _er(), replicas=16, k=3, seed=45, initial_blue_counts=110,
        max_steps=400, keep_final=True,
    ),
    "dense_initializer": lambda: run_ensemble(
        RookGraph(12), replicas=12, k=3, seed=46,
        initializer=lambda n, g: (g.random(n) < 0.4).astype(np.uint8),
        max_steps=400, keep_final=True,
    ),
}

# The benchmark's five count-chain jobs, at 64 replicas.
for _i, (_job, _make, _protocol, _steps) in enumerate((
    ("K_2^16", lambda: CompleteGraph(2**16), None, 10_000),
    ("K_10^7", lambda: CompleteGraph(10**7), None, 10_000),
    ("K_10^10", lambda: CompleteGraph(10**10), None, 10_000),
    ("noisy0.2_K_2^16", lambda: CompleteGraph(2**16), NoisyBestOfK(0.2), 80),
    ("zealot64_multipartite8x2^13",
     lambda: CompleteMultipartiteGraph([2**13] * 8), ZealotBestOfK(64),
     10_000),
)):
    CASES[f"perf_chain_{_job}"] = (
        lambda m=_make, p=_protocol, s=_steps, i=_i: run_ensemble(
            m(), replicas=64, protocol=p, seed=50 + i,
            delta=(0.1, 0.05, 0.02)[i % 3], max_steps=s,
        )
    )

# Bipartite and multipartite hosts forced onto the dense path (their
# ``auto`` route is the count chain).
for _host, _make in (
    ("bipartite", lambda: CompleteBipartiteGraph(12, 20)),
    ("multipartite", lambda: CompleteMultipartiteGraph([7, 11, 13])),
):
    CASES[f"dense_{_host}_best_of_k"] = lambda m=_make: run_ensemble(
        m(), replicas=10, protocol=BestOfK(3), seed=29, delta=0.1,
        max_steps=200, method="batched", keep_final=True,
    )
    CASES[f"dense_{_host}_plurality"] = lambda m=_make: run_ensemble(
        m(), replicas=8, protocol=Plurality(3), seed=30,
        initializer=lambda n, g: g.integers(0, 3, size=n), max_steps=200,
        method="batched",
    )
    CASES[f"dense_{_host}_async"] = lambda m=_make: run_ensemble(
        m(), replicas=8, protocol=AsyncSweepBestOfK(3), seed=31, delta=0.1,
        max_steps=200, method="batched",
    )

# ----------------------------------------------------------------------
# Per-trial paths: samplers, single-replica rounds, summaries and duals
# ----------------------------------------------------------------------

HOSTS = {
    "complete": lambda: CompleteGraph(40),
    "bipartite": lambda: CompleteBipartiteGraph(12, 20),
    "multipartite": lambda: CompleteMultipartiteGraph([7, 11, 13]),
    "rook": lambda: RookGraph(6),
    "rr": lambda: random_regular(60, 8, seed=5),
    "er": lambda: erdos_renyi(80, 0.15, seed=7),
}

# Repeated and unsorted: repeats must get independent draws.
SUBSET = np.array([5, 0, 5, 29, 3, 3, 1, 17], dtype=np.int64)


def _samplers(host: str, k: int) -> dict[str, np.ndarray]:
    g = HOSTS[host]()
    return {
        "single": g.sample_neighbors(SUBSET, k, np.random.default_rng(40 + k)),
        "batch4": g.sample_neighbors_batch(
            SUBSET, k, np.random.default_rng(50 + k), 4
        ),
    }


def _rounds(host: str, k: int, tie_rule: TieRule) -> dict[str, np.ndarray]:
    g = HOSTS[host]()
    n = g.num_vertices
    x = (np.random.default_rng(60 + k).random(n) < 0.45).astype(np.uint8)
    rng = np.random.default_rng(70 + k)
    steps = [x]
    for _ in range(3):
        steps.append(step_best_of_k(g, steps[-1], k, rng, tie_rule=tie_rule))
    res = BestOfKDynamics(g, k, tie_rule=tie_rule).run(
        x, seed=80 + k, max_steps=50
    )
    return {
        "steps": np.stack(steps),
        "run_trajectory": res.blue_trajectory,
        "run_final": res.final_opinions,
    }


def _input_dtypes() -> dict[str, np.ndarray]:
    """The per-trial round takes bool, int and float opinions, emits uint8."""
    g = HOSTS["er"]()
    x = np.random.default_rng(90).random(g.num_vertices) < 0.45
    return {
        name: step_best_of_k(g, x.astype(dtype), 2, np.random.default_rng(91))
        for name, dtype in (("bool", np.bool_), ("int64", np.int64),
                            ("float64", np.float64))
    }


def _duals(host: str) -> dict[str, np.ndarray]:
    g = HOSTS[host]()
    walk = cobra_walk(g, [3, 0, 3], 4, k=3, rng=100)
    coal = coalescing_random_walk(g, rng=101, max_steps=500)
    dag = VotingDAG.sample(g, 2, 3, rng=102)
    return {
        "cobra": np.concatenate(walk.occupied),
        "coalescing": np.concatenate(
            [coal.cluster_trajectory, coal.final_positions]
        ),
        "dag_levels": np.concatenate(dag.levels),
        "dag_children": np.concatenate(
            [cp.ravel() for cp in dag.child_positions[1:]]
        ),
    }


def _consensus(host: str) -> dict[str, np.ndarray]:
    ens = ConsensusEnsemble.from_ensemble_result(
        run_ensemble(
            HOSTS[host](), replicas=12, seed=110, delta=0.1, max_steps=300,
            record_trajectories=False,
        )
    )
    return {
        "steps": ens.steps,
        "winners": ens.winners,
        "unconverged": np.array([ens.unconverged]),
    }


def _kernel_initial_states() -> dict[str, np.ndarray]:
    """Each kernel's ``initial_state`` on a fresh SeedSequence, per mode.

    The mega hosts mix exact and Gaussian-regime slots; NumPy's
    multivariate hypergeometric caps the population at 10⁹, so they pin
    the δ modes only.
    """
    kernels = {
        "complete": (CompleteGraph(10**4), True),
        "complete_mega": (CompleteGraph(10**10), False),
        "multipartite": (CompleteMultipartiteGraph([30, 50, 70]), True),
        "multipartite_mega": (
            CompleteMultipartiteGraph([30, 50, 3 * 10**9]), False
        ),
        "bridge": (two_clique_bridge(20, bridges=2), True),
    }
    out = {}
    for name, (graph, counts_ok) in kernels.items():
        kernel = graph.count_chain_kernel()
        pinned = np.zeros(kernel.num_slots, dtype=np.int64)
        pinned[0] = 3
        modes = [("delta", {"delta": 0.1}),
                 ("pinned_delta", {"delta": 0.1, "pinned": pinned})]
        if counts_ok:
            modes += [("blue_counts", {"blue_counts": 17}),
                      ("pinned_blue_counts",
                       {"blue_counts": 17, "pinned": pinned})]
        for mode, kwargs in modes:
            out[f"{name}_{mode}"] = kernel.initial_state(
                40, np.random.SeedSequence([120, len(out)]), **kwargs
            )
    return out


def _initial_matrices() -> dict[str, np.ndarray]:
    return {
        "delta": build_initial_matrix(50, 12, seed=130, delta=0.1),
        "blue_counts": build_initial_matrix(
            50, 12, seed=131, initial_blue_counts=np.arange(12) * 4
        ),
        "initializer": build_initial_matrix(
            50, 12, seed=132, initializer=lambda n, g: g.integers(0, 2, n)
        ),
    }


TRIAL_CASES = {
    "round_input_dtypes": _input_dtypes,
    "kernel_initial_states": _kernel_initial_states,
    "build_initial_matrix": _initial_matrices,
}
for _host in HOSTS:
    for _k in (1, 2, 3, 5):
        TRIAL_CASES[f"sample_{_host}_k{_k}"] = (
            lambda h=_host, k=_k: _samplers(h, k)
        )
    for _k, _rule in ((1, TieRule.KEEP_SELF), (2, TieRule.KEEP_SELF),
                      (2, TieRule.RANDOM), (3, TieRule.KEEP_SELF),
                      (5, TieRule.KEEP_SELF)):
        TRIAL_CASES[f"round_{_host}_k{_k}_{_rule.value}"] = (
            lambda h=_host, k=_k, r=_rule: _rounds(h, k, r)
        )
    TRIAL_CASES[f"duals_{_host}"] = lambda h=_host: _duals(h)
for _host in ("complete", "rook", "er"):
    TRIAL_CASES[f"consensus_{_host}"] = lambda h=_host: _consensus(h)


def _sha(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def digests(res) -> dict[str, str]:
    out = {
        "steps": _sha(res.steps),
        "winners": _sha(res.winners),
        "converged": _sha(res.converged),
        "final_totals": _sha(res.final_totals),
    }
    if res.blue_trajectories is not None:
        h = hashlib.sha256()
        for traj in res.blue_trajectories:
            h.update(_sha(traj).encode())
        out["trajectories"] = h.hexdigest()[:16]
    if res.final_opinions is not None:
        out["final_opinions"] = _sha(res.final_opinions)
    return out


RECORDED: dict[str, dict[str, str]] = {
    "absorbed_at_round0_chain": {
        "steps": "b7d8614e5097aea7",
        "winners": "9d8c9c97fff24060",
        "converged": "42817343a401805d",
        "final_totals": "1bdc9839ba200eed",
        "trajectories": "fce3edea36d061d7",
    },
    "absorbed_at_round0_dense": {
        "steps": "484cada7c8bed818",
        "winners": "9d8c9c97fff24060",
        "converged": "42817343a401805d",
        "final_totals": "1bdc9839ba200eed",
        "trajectories": "b2e97ccd46c6f181",
        "final_opinions": "3f88af7b309d51f0",
    },
    "chain_bridge3_initial_opinions": {
        "steps": "d3068f8a38b56169",
        "winners": "1aea06d300d0d155",
        "converged": "72ba86f818ec16b3",
        "final_totals": "aab6aa3c0c50f584",
        "trajectories": "0faa9b8a795cf1d0",
    },
    "chain_bridge_blue_counts": {
        "steps": "33989f2121027bc3",
        "winners": "bdda80a92a17dd0e",
        "converged": "977afaf3e9480228",
        "final_totals": "bf10f0dc009fe147",
        "trajectories": "f2b5a5f409fabc14",
    },
    "chain_bridge_delta": {
        "steps": "168df8ff6b12322d",
        "winners": "cd1569ba1195c798",
        "converged": "8602178174154a00",
        "final_totals": "e6d6c9442aed72d4",
        "trajectories": "5fd546a137c67f41",
    },
    "chain_bridge_k4_keep_self": {
        "steps": "3387eff85f09431a",
        "winners": "24e070280daba1cd",
        "converged": "13b4359136fd1067",
        "final_totals": "1682581158b18385",
        "trajectories": "0454bb3205a9d0aa",
    },
    "chain_complete": {
        "steps": "e4da58bd3562f981",
        "winners": "726839811188f24e",
        "converged": "0df027451b190507",
        "final_totals": "726839811188f24e",
        "trajectories": "93d77168bb0c6f07",
    },
    "chain_complete_blue_counts": {
        "steps": "b44129ee85a9d3e8",
        "winners": "ecf332d83ac459e1",
        "converged": "82ccef8b640b3be6",
        "final_totals": "ecf332d83ac459e1",
        "trajectories": "d9fc3f38af7f5727",
    },
    "chain_complete_gaussian": {
        "steps": "1a7c0ad51ff54773",
        "winners": "726839811188f24e",
        "converged": "0df027451b190507",
        "final_totals": "726839811188f24e",
        "trajectories": "8d81f12d5bf3e917",
    },
    "chain_complete_initializer": {
        "steps": "e2d30c8d93daedc9",
        "winners": "847172c418bb1bee",
        "converged": "8dff6f4c5abfb965",
        "final_totals": "847172c418bb1bee",
        "trajectories": "6747fd7b73bd51dd",
    },
    "chain_complete_poisson_tail": {
        "steps": "5221fea49fcc3821",
        "winners": "726839811188f24e",
        "converged": "0df027451b190507",
        "final_totals": "726839811188f24e",
        "trajectories": "97321be1cc41c385",
    },
    "chain_multipartite": {
        "steps": "7fef243d7522e5a7",
        "winners": "2f457feddbf7da25",
        "converged": "0dd649a4b0deafa7",
        "final_totals": "63f51e42727e467a",
        "trajectories": "2e0f8eeabf75f4c4",
    },
    "chain_multipartite_blue_counts": {
        "steps": "2a7ff631bac51679",
        "winners": "35b70ecb40c626e3",
        "converged": "2ff7c0f09ce02eae",
        "final_totals": "35b70ecb40c626e3",
        "trajectories": "11e9f2cdf756b74d",
    },
    "chain_multipartite_gaussian": {
        "steps": "5577e6c3441f6208",
        "winners": "fb3cde0f482857b5",
        "converged": "d8e470d933ad7872",
        "final_totals": "335e967d554dd2a7",
        "trajectories": "649333d4d14db7c8",
    },
    "chain_multipartite_k4_keep_self": {
        "steps": "df1a31b24eb87b47",
        "winners": "04261f57ef08aaa3",
        "converged": "82ccef8b640b3be6",
        "final_totals": "3eaee4bd1f2bc061",
        "trajectories": "11b7d65423c7b05f",
    },
    "dense_bipartite_async": {
        "steps": "773f562abbf45409",
        "winners": "cef7d9433519aa9d",
        "converged": "8a707039840658f2",
        "final_totals": "1a466bf9b482745d",
        "trajectories": "740f98fe59cc2ff8",
    },
    "dense_bipartite_best_of_k": {
        "steps": "f2af05b1bf8c07aa",
        "winners": "079adf78a4425268",
        "converged": "a9d9d482d7b31866",
        "final_totals": "55569fe16d09b5cf",
        "trajectories": "a401e5adcb614522",
        "final_opinions": "6ec2b2270de2c84f",
    },
    "dense_bipartite_plurality": {
        "steps": "32350dc9f4428987",
        "winners": "a65ebb6f21df8f7a",
        "converged": "4e2b40d0d0242d77",
        "final_totals": "3da8ed5923beecb4",
        "trajectories": "eca226af2e0b7ebc",
    },
    "dense_blue_counts": {
        "steps": "2bfdc722aa245c02",
        "winners": "847172c418bb1bee",
        "converged": "8dff6f4c5abfb965",
        "final_totals": "847172c418bb1bee",
        "trajectories": "3867c3d5bda1c7ac",
        "final_opinions": "a5a1cc36f89b3896",
    },
    "dense_csr_serial": {
        "steps": "205da60bb0f7139f",
        "winners": "ecf332d83ac459e1",
        "converged": "82ccef8b640b3be6",
        "final_totals": "ecf332d83ac459e1",
        "trajectories": "6914bfa3f1bc59c1",
    },
    "dense_even_k_keep_self": {
        "steps": "176f3e3b49a77ae4",
        "winners": "cdfe3ecddd6a7219",
        "converged": "9a659a13e1a7d1ac",
        "final_totals": "cdfe3ecddd6a7219",
        "trajectories": "b2bb36b53fd22829",
        "final_opinions": "0bb27d8956841bf6",
    },
    "dense_even_k_random": {
        "steps": "7aaf6e530cff9073",
        "winners": "5ea5d3ef69c4ecc3",
        "converged": "4070dc1c7f5da2c9",
        "final_totals": "9fa9efe7a5edab7d",
        "trajectories": "176c969371954a0a",
        "final_opinions": "df375f2a7753a3de",
    },
    "dense_initializer": {
        "steps": "671554bc3166e82c",
        "winners": "cdfe3ecddd6a7219",
        "converged": "9a659a13e1a7d1ac",
        "final_totals": "cdfe3ecddd6a7219",
        "trajectories": "dd45454d94b8bf5a",
        "final_opinions": "1ae2c43f6150bcc6",
    },
    "dense_keep_final": {
        "steps": "f64c8903a5541eb5",
        "winners": "484f4071a1a614a9",
        "converged": "8dff6f4c5abfb965",
        "final_totals": "09df2e5a7a940180",
        "trajectories": "67946dede92daaab",
        "final_opinions": "06bbee3fae556116",
    },
    "dense_keep_final_threads2": {
        "steps": "99c8111f1ba8b500",
        "winners": "11d5068aae9976ac",
        "converged": "8dff6f4c5abfb965",
        "final_totals": "293bc8b21b4eaece",
        "trajectories": "b1dbc16d7661e384",
        "final_opinions": "c1eb8a152608fc2b",
    },
    "dense_multipartite_async": {
        "steps": "d7e114bd4e19cddd",
        "winners": "a71a1b97dd27414b",
        "converged": "8a707039840658f2",
        "final_totals": "48ae032624c14aa9",
        "trajectories": "743f99ba0860fa4a",
    },
    "dense_multipartite_best_of_k": {
        "steps": "9f317cca042fc83b",
        "winners": "0e5e0b6e9709d34c",
        "converged": "39f13e8b58c6cae3",
        "final_totals": "2635f35ee079db54",
        "trajectories": "460ff672abf70d2d",
        "final_opinions": "0f7aaff97e129d9e",
    },
    "dense_multipartite_plurality": {
        "steps": "d073c6745ed7e637",
        "winners": "183574ae4b26f51b",
        "converged": "8a707039840658f2",
        "final_totals": "1b03f1dc33955248",
        "trajectories": "c096a1541521434f",
    },
    "dense_rook_k5": {
        "steps": "caa47d5315ae1d02",
        "winners": "9bb48420b349ee79",
        "converged": "8dff6f4c5abfb965",
        "final_totals": "86b2188fd2ec1a58",
        "trajectories": "cafdf3eca808ccde",
    },
    "dense_rook_serial": {
        "steps": "bacdb8c682e0bdcb",
        "winners": "b10abb91dff8f5c7",
        "converged": "a3661b5d0b99b071",
        "final_totals": "b10abb91dff8f5c7",
        "trajectories": "db8be27db7764414",
    },
    "dense_rook_threads2": {
        "steps": "5cc912341452debc",
        "winners": "846336bbc85aa516",
        "converged": "0dd649a4b0deafa7",
        "final_totals": "ad8614820c86accb",
        "trajectories": "79d42dc9484b26d2",
        "final_opinions": "8e9a5880c9d7625d",
    },
    "dense_rr_threads2": {
        "steps": "406c1fde3a617c31",
        "winners": "64221e1458e3a0eb",
        "converged": "195b7f9ce3cda081",
        "final_totals": "64221e1458e3a0eb",
        "trajectories": "73f2ca4811720168",
    },
    "local_majority_dense": {
        "steps": "7cf3131524637129",
        "winners": "cdfe3ecddd6a7219",
        "converged": "9a659a13e1a7d1ac",
        "final_totals": "cdfe3ecddd6a7219",
        "trajectories": "d725c4a50e66c815",
    },
    "noisy_chain_bridge": {
        "steps": "123ce03079a18035",
        "winners": "0a7d6f0b2b940b2a",
        "converged": "b3268798d2f29bf3",
        "final_totals": "0669739d124a4e0c",
        "trajectories": "0288dad82091d801",
    },
    "noisy_chain_fixed_rounds": {
        "steps": "123ce03079a18035",
        "winners": "0a7d6f0b2b940b2a",
        "converged": "b3268798d2f29bf3",
        "final_totals": "c735cbc2796a8b05",
        "trajectories": "eefd31b3233adfb6",
    },
    "noisy_chain_multipartite": {
        "steps": "123ce03079a18035",
        "winners": "0a7d6f0b2b940b2a",
        "converged": "b3268798d2f29bf3",
        "final_totals": "2dc1e750310106f5",
        "trajectories": "bd03b9ce69bc46de",
    },
    "noisy_dense_fixed_rounds": {
        "steps": "09b276546f9dfd18",
        "winners": "91994c9ce31a310a",
        "converged": "dde56c168ffe84a9",
        "final_totals": "af41b6c851a8f17c",
        "trajectories": "21072288a8b16d6b",
    },
    "perf_chain_K_10^10": {
        "steps": "58fbae84a5014b0c",
        "winners": "726839811188f24e",
        "converged": "0df027451b190507",
        "final_totals": "726839811188f24e",
        "trajectories": "614c0829a6c50822",
    },
    "perf_chain_K_10^7": {
        "steps": "09d4fc2fb698ccbd",
        "winners": "726839811188f24e",
        "converged": "0df027451b190507",
        "final_totals": "726839811188f24e",
        "trajectories": "b76f57ec5781e0da",
    },
    "perf_chain_K_2^16": {
        "steps": "f4062c1c922e17d0",
        "winners": "726839811188f24e",
        "converged": "0df027451b190507",
        "final_totals": "726839811188f24e",
        "trajectories": "f16aa07d44100fc9",
    },
    "perf_chain_noisy0.2_K_2^16": {
        "steps": "7abe8e348c7c90ae",
        "winners": "12530ee16fbcd88e",
        "converged": "468cd8b910d91917",
        "final_totals": "a2121f0403207c86",
        "trajectories": "3b6b9d015cbb9122",
    },
    "perf_chain_zealot64_multipartite8x2^13": {
        "steps": "60834294bb10036f",
        "winners": "726839811188f24e",
        "converged": "0df027451b190507",
        "final_totals": "82c22880e3e6a0f6",
        "trajectories": "d9f52d34833dd451",
    },
    "plurality_dense": {
        "steps": "338eb0f4c44b5e4c",
        "winners": "dc23acebfaf931bb",
        "converged": "9a659a13e1a7d1ac",
        "final_totals": "18a83661a85f9e66",
        "trajectories": "27d28633f77cfc57",
    },
    "zealot_chain": {
        "steps": "ed3b6678f7e7f24b",
        "winners": "a8dc6fc6f557f86d",
        "converged": "9e0b379a691ce0af",
        "final_totals": "46cca2aac99dced5",
        "trajectories": "a320ddb3b243b034",
    },
    "zealot_chain_bridge": {
        "steps": "71688b3df31c0992",
        "winners": "0e104364f511f800",
        "converged": "6c68e615b2772974",
        "final_totals": "c85576943595d8bc",
        "trajectories": "751a3e8fc43dd863",
    },
    "zealot_chain_bridge_endpoint": {
        "steps": "1dc5ee6547381c16",
        "winners": "0012145c7c860887",
        "converged": "66356c2d346cb389",
        "final_totals": "3dcdaf0b05dc572a",
        "trajectories": "2572720c3271a7ab",
    },
    "zealot_chain_complete": {
        "steps": "a2004bdac355e501",
        "winners": "35b70ecb40c626e3",
        "converged": "2ff7c0f09ce02eae",
        "final_totals": "600438273d30b0c5",
        "trajectories": "8b444410ae80e940",
    },
    "zealot_chain_complete_blue_counts": {
        "steps": "da873fcfff80ebf8",
        "winners": "bfce2704db12a30d",
        "converged": "2ff7c0f09ce02eae",
        "final_totals": "3d13bda9ad5e8dd9",
        "trajectories": "8d4eebc17ed31ffe",
    },
    "zealot_chain_initializer": {
        "steps": "2013d778412fd423",
        "winners": "59c0b236969627c5",
        "converged": "a73f331879ff6995",
        "final_totals": "66bb43cd1ded7764",
        "trajectories": "8352baa0d7339456",
    },
    "zealot_chain_multipartite_blue_counts": {
        "steps": "4570e5e3d43ac131",
        "winners": "39f92f1835976484",
        "converged": "2ff7c0f09ce02eae",
        "final_totals": "e77374537d09a63b",
        "trajectories": "6ec72223dbd8474e",
    },
    "zealot_dense": {
        "steps": "ab81dd18f8e92cf6",
        "winners": "8c12094edcafea23",
        "converged": "bd31efea05415fd5",
        "final_totals": "823ca88cabd9e08d",
        "trajectories": "448a6a699be8d02a",
    },
}


def trial_digests(arrays: dict[str, np.ndarray]) -> dict[str, str]:
    return {name: _sha(arr) for name, arr in arrays.items()}


RECORDED_TRIAL: dict[str, dict[str, str]] = {
    "build_initial_matrix": {
        "delta": "7497e296bbc4e117",
        "blue_counts": "591df41de02e0f3c",
        "initializer": "ced7b4b915f26dfe",
    },
    "consensus_complete": {
        "steps": "07e06bf1767de623",
        "winners": "51ac0ce84e8aa875",
        "unconverged": "ba553f9413e2fef9",
    },
    "consensus_er": {
        "steps": "cd0156c6e4069112",
        "winners": "51ac0ce84e8aa875",
        "unconverged": "ba553f9413e2fef9",
    },
    "consensus_rook": {
        "steps": "97d55daea6f84925",
        "winners": "1a68a0ba0abe9751",
        "unconverged": "ba553f9413e2fef9",
    },
    "duals_bipartite": {
        "cobra": "dbbb74ccde25f5a3",
        "coalescing": "cbe4ac739d74b55d",
        "dag_levels": "f06227de44d778ca",
        "dag_children": "1445f098abb1419b",
    },
    "duals_complete": {
        "cobra": "cfc164ce328bceb6",
        "coalescing": "c0e78da2a21f2b6d",
        "dag_levels": "b29f96db47a009ef",
        "dag_children": "506aa3ae57a349fd",
    },
    "duals_er": {
        "cobra": "ed08c118af3f1d2e",
        "coalescing": "023394dea173bcda",
        "dag_levels": "593bc28a9178749c",
        "dag_children": "c44e2193bc318d90",
    },
    "duals_multipartite": {
        "cobra": "bd7505d59376f5c1",
        "coalescing": "549cfe081489a224",
        "dag_levels": "fddc41d27746cf2c",
        "dag_children": "09fd96d0f0ab95c1",
    },
    "duals_rook": {
        "cobra": "b9f954751a937252",
        "coalescing": "06c02e948eefeea8",
        "dag_levels": "004ff993b422897e",
        "dag_children": "632027ab3e756aa7",
    },
    "duals_rr": {
        "cobra": "41521857183c280e",
        "coalescing": "7cd3dd75f6bb64b2",
        "dag_levels": "0fdeb54e5508870f",
        "dag_children": "66ee6d47d90ab728",
    },
    "kernel_initial_states": {
        "complete_delta": "266678a0099243ca",
        "complete_pinned_delta": "a403325e945c01d2",
        "complete_blue_counts": "1bb038b0dfdc3a8b",
        "complete_pinned_blue_counts": "142fa4a3f928e532",
        "complete_mega_delta": "5db5e12e31a5dc50",
        "complete_mega_pinned_delta": "4fcd34c4e2c316af",
        "multipartite_delta": "14ac9a78c61c9d37",
        "multipartite_pinned_delta": "bdfd83ce9d976a40",
        "multipartite_blue_counts": "6e49faa40a53c6c8",
        "multipartite_pinned_blue_counts": "df8896898bd0e966",
        "multipartite_mega_delta": "dd825ca5d7561fe8",
        "multipartite_mega_pinned_delta": "bfbe9285fb211c96",
        "bridge_delta": "28affb68a97e4dba",
        "bridge_pinned_delta": "36a51406fe87064c",
        "bridge_blue_counts": "14080ed1dc5791e2",
        "bridge_pinned_blue_counts": "617f16b45b824be3",
    },
    "round_bipartite_k1_keep_self": {
        "steps": "6c518c18db0314c6",
        "run_trajectory": "1a61a14a59392c7d",
        "run_final": "05ac0fbd9e8e883b",
    },
    "round_bipartite_k2_keep_self": {
        "steps": "8e99df15a92dd546",
        "run_trajectory": "4c51e45e05c03772",
        "run_final": "05ac0fbd9e8e883b",
    },
    "round_bipartite_k2_random": {
        "steps": "809a79679a8860e2",
        "run_trajectory": "90460cecfd8fb41d",
        "run_final": "05ac0fbd9e8e883b",
    },
    "round_bipartite_k3_keep_self": {
        "steps": "7160ea6916fc379a",
        "run_trajectory": "187af05904715f13",
        "run_final": "9407ae5008d08b2a",
    },
    "round_bipartite_k5_keep_self": {
        "steps": "43ddc17a13c687f0",
        "run_trajectory": "5571dc29fdec36b3",
        "run_final": "09413ecc134f1076",
    },
    "round_complete_k1_keep_self": {
        "steps": "ed8b11296cbbdcb1",
        "run_trajectory": "040d8013191031e2",
        "run_final": "fc5d30360d399e96",
    },
    "round_complete_k2_keep_self": {
        "steps": "7b3045bd1fc459cc",
        "run_trajectory": "319fa3803686b7a7",
        "run_final": "09418e034d8397e5",
    },
    "round_complete_k2_random": {
        "steps": "9384c0819e74431c",
        "run_trajectory": "057a1f3df6f3988c",
        "run_final": "fc5d30360d399e96",
    },
    "round_complete_k3_keep_self": {
        "steps": "c5fd941408def6be",
        "run_trajectory": "d5bfbeb50072add7",
        "run_final": "fc5d30360d399e96",
    },
    "round_complete_k5_keep_self": {
        "steps": "8f8a4574c5e3c5e8",
        "run_trajectory": "8f65d1daa988187e",
        "run_final": "fc5d30360d399e96",
    },
    "round_er_k1_keep_self": {
        "steps": "700fdfa5c6a13df6",
        "run_trajectory": "d0031a5d33cb0fa8",
        "run_final": "c293af094a06c430",
    },
    "round_er_k2_keep_self": {
        "steps": "821829ac0e9c7bf6",
        "run_trajectory": "6f5766c691c025e9",
        "run_final": "bbbcbbb284babf4f",
    },
    "round_er_k2_random": {
        "steps": "c79b3dca22965ca4",
        "run_trajectory": "dc10cb4a63c9d7cd",
        "run_final": "c6906345ca6971cb",
    },
    "round_er_k3_keep_self": {
        "steps": "3bd4cd2fed2f22e7",
        "run_trajectory": "909b501f5aa6580a",
        "run_final": "bbbcbbb284babf4f",
    },
    "round_er_k5_keep_self": {
        "steps": "f71ce0240563dcba",
        "run_trajectory": "648668bde75889f3",
        "run_final": "bbbcbbb284babf4f",
    },
    "round_input_dtypes": {
        "bool": "e04dea36ad50e1bf",
        "int64": "e04dea36ad50e1bf",
        "float64": "e04dea36ad50e1bf",
    },
    "round_multipartite_k1_keep_self": {
        "steps": "9a17ffafbe1afc8c",
        "run_trajectory": "f458044d58cece6d",
        "run_final": "f98e7363597a9db7",
    },
    "round_multipartite_k2_keep_self": {
        "steps": "d03fe9109cb8e282",
        "run_trajectory": "332793d254f65dd0",
        "run_final": "99abb0dc942652cc",
    },
    "round_multipartite_k2_random": {
        "steps": "0d79ae01fd0d8c70",
        "run_trajectory": "e1ab096f49927190",
        "run_final": "99abb0dc942652cc",
    },
    "round_multipartite_k3_keep_self": {
        "steps": "f413ad29b8304700",
        "run_trajectory": "975592c573c05d89",
        "run_final": "f98e7363597a9db7",
    },
    "round_multipartite_k5_keep_self": {
        "steps": "a48921669b070755",
        "run_trajectory": "2c8ed16f547b1200",
        "run_final": "99abb0dc942652cc",
    },
    "round_rook_k1_keep_self": {
        "steps": "568b3081196340cf",
        "run_trajectory": "d59369c944398a4f",
        "run_final": "972b52c45f4282e4",
    },
    "round_rook_k2_keep_self": {
        "steps": "b18700646732f38b",
        "run_trajectory": "9d1bdaff6958a566",
        "run_final": "09eddab42a57bed8",
    },
    "round_rook_k2_random": {
        "steps": "5bd17aeabd438cac",
        "run_trajectory": "f91e771948afa50f",
        "run_final": "66242b1b63c16958",
    },
    "round_rook_k3_keep_self": {
        "steps": "be36e72e9d46d694",
        "run_trajectory": "44e970342d1cad9d",
        "run_final": "09eddab42a57bed8",
    },
    "round_rook_k5_keep_self": {
        "steps": "22cb47dab048802f",
        "run_trajectory": "7b54de026488a8e1",
        "run_final": "09eddab42a57bed8",
    },
    "round_rr_k1_keep_self": {
        "steps": "4763ef236aa1e0dd",
        "run_trajectory": "c69b7d7325c545f3",
        "run_final": "405220427f8e5586",
    },
    "round_rr_k2_keep_self": {
        "steps": "5b81f9d3958cc319",
        "run_trajectory": "bf2df77f965da77b",
        "run_final": "405220427f8e5586",
    },
    "round_rr_k2_random": {
        "steps": "c0762af3db4d853d",
        "run_trajectory": "c4f04c0bf9d43815",
        "run_final": "405220427f8e5586",
    },
    "round_rr_k3_keep_self": {
        "steps": "9cd75c9bf446398f",
        "run_trajectory": "2b530ca7b6e2ca70",
        "run_final": "e837ac83ca8b21b5",
    },
    "round_rr_k5_keep_self": {
        "steps": "18f937399c9dd9af",
        "run_trajectory": "c88a03759f5b6631",
        "run_final": "e837ac83ca8b21b5",
    },
    "sample_bipartite_k1": {
        "single": "cb62ac7b6bc0cbb8",
        "batch4": "bcab82fb95257682",
    },
    "sample_bipartite_k2": {
        "single": "ca361b52c88ba4c5",
        "batch4": "fa9b7785f5f3a350",
    },
    "sample_bipartite_k3": {
        "single": "88d4e560302c9be9",
        "batch4": "73060c7fca4c5c4c",
    },
    "sample_bipartite_k5": {
        "single": "e756bf85e16c5981",
        "batch4": "6a951942c61399d0",
    },
    "sample_complete_k1": {
        "single": "ebddae10fc0ee192",
        "batch4": "8fccd244babab73e",
    },
    "sample_complete_k2": {
        "single": "7b06b103c35f026b",
        "batch4": "c2d217da5f51fe91",
    },
    "sample_complete_k3": {
        "single": "caeae008339f9d1e",
        "batch4": "84f457ae10ab63de",
    },
    "sample_complete_k5": {
        "single": "0452d3cae5f426ed",
        "batch4": "895010310c294a6c",
    },
    "sample_er_k1": {
        "single": "33905694914d65a4",
        "batch4": "868c0408939332df",
    },
    "sample_er_k2": {
        "single": "e095127a8d529b6b",
        "batch4": "040c10f597648f7c",
    },
    "sample_er_k3": {
        "single": "145e12d1092c8b50",
        "batch4": "685fa6279dce58b3",
    },
    "sample_er_k5": {
        "single": "f0a386299b17dd3a",
        "batch4": "887e03a5e2715de5",
    },
    "sample_multipartite_k1": {
        "single": "ed84dd4135a33a1d",
        "batch4": "749dd0f733fdb1e8",
    },
    "sample_multipartite_k2": {
        "single": "46ff1fd3abb12a59",
        "batch4": "92ca1597c99030be",
    },
    "sample_multipartite_k3": {
        "single": "52bf8119e0199940",
        "batch4": "0acfdcb1dcd3e8cf",
    },
    "sample_multipartite_k5": {
        "single": "882c35a59aae1611",
        "batch4": "df56266442138217",
    },
    "sample_rook_k1": {
        "single": "bcddf07fd5dcc3d6",
        "batch4": "e2511f20287cf5a2",
    },
    "sample_rook_k2": {
        "single": "a866800ac7aaee48",
        "batch4": "439b665a4b76fc08",
    },
    "sample_rook_k3": {
        "single": "5c0a5cf7cbe6d290",
        "batch4": "21346adf37e408b6",
    },
    "sample_rook_k5": {
        "single": "d791c3d8444cdffa",
        "batch4": "74ff59bd3c641c37",
    },
    "sample_rr_k1": {
        "single": "fa892d9f85adb051",
        "batch4": "8d03eb91ce503ac9",
    },
    "sample_rr_k2": {
        "single": "4719b0cd945df2a1",
        "batch4": "42c5a1f1d8b5a200",
    },
    "sample_rr_k3": {
        "single": "d2b738d076d4c219",
        "batch4": "1026c8b70c1e929a",
    },
    "sample_rr_k5": {
        "single": "ad4e5aee118fa72a",
        "batch4": "6aee946b8e575930",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_bytes_replay(case):
    res = CASES[case]()
    assert digests(res) == RECORDED[case]


@pytest.mark.parametrize("case", sorted(TRIAL_CASES))
def test_per_trial_seeded_bytes_replay(case):
    assert trial_digests(TRIAL_CASES[case]()) == RECORDED_TRIAL[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectories_are_owned_and_contiguous(case):
    res = CASES[case]()
    assert res.blue_trajectories is not None
    for i, traj in enumerate(res.blue_trajectories):
        assert traj.dtype == np.int64
        assert traj.flags.c_contiguous and traj.flags.owndata
        assert traj.shape == (int(res.steps[i]) + 1,)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for table, cases, digest in (
        ("RECORDED", CASES, digests),
        ("RECORDED_TRIAL", TRIAL_CASES, trial_digests),
    ):
        print(f"{table}: dict[str, dict[str, str]] = {{")
        for name in sorted(cases):
            print(f'    "{name}": {{')
            for key, val in digest(cases[name]()).items():
                print(f'        "{key}": "{val}",')
            print("    },")
        print("}")
