"""Bit-level pins of tiny estimator builds over a seed grid.

Each digest hashes, for every seed of the grid, the built estimator's
sample arrays (us, vs, weight numerators, labels, pivot costs), its weight
denominator and the next draw of the stream the build read, so a change in
what a build draws, in what order, or how much of the stream it consumes
moves the digest.  The shapes are the acceptance suite's unbiasedness
shapes (criterion 3) plus the sweep's clustering size and the generic
thresholds class, with m forced and with m sized from the class's own
disagreement coefficient and VC dimension.
"""

import hashlib

import numpy as np
import pytest

from pivotlearn import InstanceOracle, NoiseSpec, Params, make_clustering_oracle, make_ranking_oracle
from pivotlearn import clustering as clu
from pivotlearn import generic as gen
from pivotlearn import ranking as rk
from pivotlearn.seeding import derive_rng

_SEEDS = range(8)
_NOISE = NoiseSpec(kind="uniform_flip", eta=0.3)
_PARAMS = Params(epsilon=0.3)


def _ranking_build(seed: int, rng):
    setup = derive_rng(seed, "setup")
    oracle = make_ranking_oracle(rk.random_permutation(8, setup), _NOISE, seed=seed)
    return rk.build_ranking_estimator(rk.random_permutation(8, setup), oracle, _PARAMS, p=2, rng=rng)


def _clustering_build(n: int):
    def build(seed: int, rng):
        setup = derive_rng(seed, "setup")
        oracle = make_clustering_oracle(clu.random_clustering(n, 3, setup), _NOISE, seed=seed)
        pivot = clu.random_clustering(n, 3, setup)
        return clu.build_clustering_estimator(pivot, oracle, _PARAMS, q=2, rng=rng)

    return build


def _generic_build(m):
    def build(seed: int, rng):
        cls = gen.thresholds_class(40)
        setup = derive_rng(seed, "setup")
        labels = cls.labels[int(setup.integers(len(cls)))] ^ (setup.random(40) < 0.1)
        oracle = InstanceOracle(labels.astype(np.uint8))
        return gen.build_generic_estimator(
            cls, int(setup.integers(len(cls))), oracle, _PARAMS, m=m, rng=rng
        )

    return build


_BUILDS = {
    "ranking-n8-p2": _ranking_build,
    "clustering-n8-k3-q2": _clustering_build(8),
    "clustering-n10-k3-q2": _clustering_build(10),
    "generic-thresholds40-m4": _generic_build(4),
    "generic-thresholds40-sized": _generic_build(None),
}
_DIGESTS = {
    "ranking-n8-p2": "3124cd2b757b783424686e14af1993d5ac107806710ee3a92d037e68e677ec44",
    "clustering-n8-k3-q2": "ca70538ca7fa2e5e47758f4110d5ee35edd128f5eda6d424937ca8cfb86758cf",
    "clustering-n10-k3-q2": "cbc3d9c82be1e34d4eafeb85e68892055ffa7e3fcc8b14ef23003cce8a322b73",
    "generic-thresholds40-m4": "ca3dd4de0b95d97ee3b6ba2a9a122ec8c34a0c6751f492c4af74a2da388daa2a",
    "generic-thresholds40-sized": "ed79c583cce56176a75e7bfa0d861f404811771dab69bd186433eb4c94d424a2",
}


def _estimator_digest(shape: str) -> str:
    h = hashlib.sha256()
    for seed in _SEEDS:
        rng = derive_rng(seed, "build", 1)
        est = _BUILDS[shape](seed, rng)
        if est.vs is None:
            vs, pivot_costs = np.zeros(0, np.int64), np.asarray(est.pivot)[est.us] != est.labels
        else:
            vs, pivot_costs = est.vs, est.pivot.pair_values(est.us, est.vs) != est.labels
        for array, dtype in (
            (est.us, np.int64), (vs, np.int64), (est.weight_num, np.int64),
            (est.labels, np.uint8), (pivot_costs, np.uint8),
        ):
            h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
            h.update(b"|")
        h.update(f"{est.weight_denom}|{int(rng.integers(0, 2**63))}|".encode())
    return h.hexdigest()


@pytest.mark.parametrize("shape", list(_BUILDS))
def test_tiny_build_digest_golden(shape):
    assert _estimator_digest(shape) == _DIGESTS[shape]
