"""Digest a fixed sweep of LP certification cases, one row per scenario kind
and K, to check that every LP solver's output stays bit for bit the same.

The sweep is the ``certify`` benchmark's, at a fixed seed: for each of the
four scenario kinds and K = 1..4, ``INSTANCES`` random scenarios, each at
``RATES`` rates from 0 to K. A case hashes the ``repr`` of

- ``LpInstance.alpha_form``'s costs, weights and bound,
- ``lp_vertex``'s and ``lp_greedy``'s alpha and d,
- ``lp_grid`` at resolutions 50 and 200,
- the scenario curve's value at r,

so a row moves when any float of any case moves. A row is::

    kind-K sha256(every case of that kind and K)

It takes well under a second. Run as a script, it prints ``cli_digest``'s
header line, then the rows. ``tests/test_lp_digest.py`` compares the rows
with the committed ``tests/data/lp_digest.txt``; a change that is meant to
move LP output regenerates that file from the repository root::

    PYTHONPATH=src python tools/lp_digest.py > tests/data/lp_digest.txt
"""

from __future__ import annotations

import hashlib

import numpy as np

from cli_digest import header
from wdmt import (
    SCENARIO_KINDS,
    AntennaProfile,
    LpInstance,
    Scenario,
    Weights,
    curve_for_scenario,
    lp_greedy,
    lp_grid,
    lp_vertex,
    validate_weights,
)

SEED = 3011
INSTANCES = 3
RATES = 21


def scenario(rng, kind: str, k: int) -> Scenario:
    """A random scenario of ``kind`` with K = ``k``, drawn as ``certify`` draws it."""
    raw = rng.random(k) + 0.02
    w = validate_weights(tuple(raw / raw.sum()))
    if kind == "parallel-identical":
        return Scenario(kind=kind, weights=w, n_t=int(rng.integers(1, 5)))
    if kind == "parallel-different":
        profile = AntennaProfile(tuple(int(n) for n in rng.integers(1, 5, k)))
        return Scenario(kind=kind, weights=w, profile=profile)
    return Scenario(kind=kind, weights=w, m=k + int(rng.integers(0, 4)))


def case(sc: Scenario, profile: AntennaProfile, weights: Weights, r: float) -> str:
    """The ``repr`` of every LP output of one certification case."""
    inst = LpInstance.alpha_form(profile, weights, r)
    vertex, greedy = lp_vertex(inst), lp_greedy(profile, weights, r)
    return repr((inst.costs, inst.weights, inst.bound, vertex.alpha, vertex.d, greedy.alpha,
                 greedy.d, lp_grid(inst, 50), lp_grid(inst, 200),
                 curve_for_scenario(sc).evaluate(r)))


def digest_all() -> list[str]:
    """The digest rows of the whole sweep."""
    rng = np.random.default_rng(SEED)
    rows = []
    for kind in SCENARIO_KINDS:
        for k in range(1, 5):
            digest = hashlib.sha256()
            for _ in range(INSTANCES):
                sc = scenario(rng, kind, k)
                profile = AntennaProfile(sc.gain_shapes())
                weights = Weights(sc.encoded_weights())
                for r in np.linspace(0.0, k, RATES):
                    digest.update(case(sc, profile, weights, float(r)).encode())
                    digest.update(b"\n")
            rows.append(f"{kind}-K{k} {digest.hexdigest()}")
    return rows


if __name__ == "__main__":
    print(header(), *digest_all(), sep="\n")
