"""Seeded replay pins for every ensemble-engine route.

Each case runs :func:`run_ensemble` with a fixed seed and compares
sha256 digests of every result field — ``steps``, ``winners``,
``converged``, ``final_totals``, every trajectory and (where kept)
``final_opinions`` — against recorded values.  A refactor of the engine
loop, the dense step or the count chain must leave all of them
byte-identical; a deliberate stream change has to re-record them here
and say so.

Regenerate the table with::

    PYTHONPATH=src python tests/test_engine_replay.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.dynamics import TieRule
from repro.core.ensemble import run_ensemble
from repro.core.protocols import (
    BestOfK,
    LocalMajority,
    NoisyBestOfK,
    Plurality,
    ZealotBestOfK,
)
from repro.graphs.generators import erdos_renyi, random_regular
from repro.graphs.implicit import (
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
}


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
    "chain_complete": {
        "steps": "e4da58bd3562f981",
        "winners": "726839811188f24e",
        "converged": "0df027451b190507",
        "final_totals": "726839811188f24e",
        "trajectories": "93d77168bb0c6f07",
    },
    "chain_multipartite": {
        "steps": "7fef243d7522e5a7",
        "winners": "2f457feddbf7da25",
        "converged": "0dd649a4b0deafa7",
        "final_totals": "63f51e42727e467a",
        "trajectories": "2e0f8eeabf75f4c4",
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
    "noisy_chain_fixed_rounds": {
        "steps": "123ce03079a18035",
        "winners": "0a7d6f0b2b940b2a",
        "converged": "b3268798d2f29bf3",
        "final_totals": "c735cbc2796a8b05",
        "trajectories": "eefd31b3233adfb6",
    },
    "noisy_dense_fixed_rounds": {
        "steps": "09b276546f9dfd18",
        "winners": "91994c9ce31a310a",
        "converged": "dde56c168ffe84a9",
        "final_totals": "af41b6c851a8f17c",
        "trajectories": "21072288a8b16d6b",
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
    "zealot_dense": {
        "steps": "ab81dd18f8e92cf6",
        "winners": "8c12094edcafea23",
        "converged": "bd31efea05415fd5",
        "final_totals": "823ca88cabd9e08d",
        "trajectories": "448a6a699be8d02a",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_bytes_replay(case):
    res = CASES[case]()
    assert digests(res) == RECORDED[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectories_are_owned_and_contiguous(case):
    res = CASES[case]()
    assert res.blue_trajectories is not None
    for i, traj in enumerate(res.blue_trajectories):
        assert traj.dtype == np.int64
        assert traj.flags.c_contiguous and traj.flags.owndata
        assert traj.shape == (int(res.steps[i]) + 1,)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("RECORDED: dict[str, dict[str, str]] = {")
    for name in sorted(CASES):
        print(f'    "{name}": {{')
        for key, val in digests(CASES[name]()).items():
            print(f'        "{key}": "{val}",')
        print("    },")
    print("}")
