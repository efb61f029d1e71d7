"""Byte pins for every host-graph generator's CSR arrays.

Each ``CASES`` entry builds one host and compares a sha256 digest of
``(indptr, indices)`` — bytes, dtypes and shapes — against a recorded
value.  The neighbour order inside each row is part of what is pinned:
the per-vertex sampler draws a slot of the row, so a generator that
reorders a row changes every seeded run on that host.  A rewrite of a
generator or of :meth:`CSRGraph.from_edges` must leave all of them
byte-identical.

The star and bridge cases cover pendant counts below, equal to and
above the core size (the smallest core included) and bridge counts of
1, 3 and the whole clique.

Regenerate the table with::

    PYTHONPATH=src python tests/test_graph_build_pins.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs.generators import (
    erdos_renyi,
    powerlaw_degree_graph,
    random_regular,
    ring_lattice,
    star_polluted,
    two_clique_bridge,
)

CASES = {
    "star_3_1": lambda: star_polluted(3, 1),
    "star_3_3": lambda: star_polluted(3, 3),
    "star_3_7": lambda: star_polluted(3, 7),
    "star_10_4": lambda: star_polluted(10, 4),
    "star_10_10": lambda: star_polluted(10, 10),
    "star_10_23": lambda: star_polluted(10, 23),
    "star_64_200": lambda: star_polluted(64, 200),
    "bridge_2_1": lambda: two_clique_bridge(2, bridges=1),
    "bridge_6_1": lambda: two_clique_bridge(6, bridges=1),
    "bridge_6_3": lambda: two_clique_bridge(6, bridges=3),
    "bridge_6_6": lambda: two_clique_bridge(6, bridges=6),
    "bridge_40_3": lambda: two_clique_bridge(40, bridges=3),
    "ring_50_6": lambda: ring_lattice(50, 6),
    "ring_7_2": lambda: ring_lattice(7, 2),
    "er_300_0.1": lambda: erdos_renyi(300, 0.1, seed=1),
    "er_isolated_repair": lambda: erdos_renyi(60, 0.01, seed=3),
    "rr_200_8": lambda: random_regular(200, 8, seed=2),
    "powerlaw_300": lambda: powerlaw_degree_graph(300, seed=3),
}


def csr_digest(graph) -> str:
    h = hashlib.sha256()
    for arr in (graph.indptr, graph.indices):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


RECORDED: dict[str, str] = {
    "bridge_2_1": "7a9c45901ebd53dc",
    "bridge_40_3": "aee73f3427d313c6",
    "bridge_6_1": "f6ae7d848fac6971",
    "bridge_6_3": "29b3208e25c404cc",
    "bridge_6_6": "facbf42167c90c8f",
    "er_300_0.1": "9f542cc91ff1e83f",
    "er_isolated_repair": "ebd3a244b3d58bd5",
    "powerlaw_300": "5c2d6067f80d93c6",
    "ring_50_6": "42fb77ec37749fc0",
    "ring_7_2": "f634bef8a78dd5be",
    "rr_200_8": "69be4d01f86480fd",
    "star_10_10": "ac05a6dd17078add",
    "star_10_23": "71b55d1b4f8d4bd7",
    "star_10_4": "fbf505483cfd6ab7",
    "star_3_1": "351458e776e77765",
    "star_3_3": "6b61e9de13ac9b81",
    "star_3_7": "b4f241f5e2fd5e49",
    "star_64_200": "f95802182ac8909f",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_csr_bytes_replay(case):
    assert csr_digest(CASES[case]()) == RECORDED[case]


def _rows(graph) -> list[list[int]]:
    return [graph.neighbors(v).tolist() for v in range(graph.num_vertices)]


@pytest.mark.parametrize("core, pendants", [(3, 1), (3, 8), (5, 5), (5, 12)])
def test_star_row_order(core, pendants):
    """Core row x: higher core ids, x's pendants ascending, lower core ids."""
    expected = [
        list(range(x + 1, core))
        + [core + j for j in range(x, pendants, core)]
        + list(range(x))
        for x in range(core)
    ] + [[j % core] for j in range(pendants)]
    assert _rows(star_polluted(core, pendants)) == expected


@pytest.mark.parametrize("half, bridges", [(2, 1), (2, 2), (5, 3), (5, 5)])
def test_bridge_row_order(half, bridges):
    """Left x: higher ids, bridge partner, lower ids; right: partner last."""
    left = [
        list(range(x + 1, half))
        + ([half + x] if x < bridges else [])
        + list(range(x))
        for x in range(half)
    ]
    right = [
        list(range(half + x + 1, 2 * half))
        + list(range(half, half + x))
        + ([x] if x < bridges else [])
        for x in range(half)
    ]
    assert _rows(two_clique_bridge(half, bridges=bridges)) == left + right


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("RECORDED: dict[str, str] = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{csr_digest(CASES[name]())}",')
    print("}")
