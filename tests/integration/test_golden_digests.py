"""Golden digests: Algorithm 1's output is pinned across versions.

The cross-backend grid compares backends with one another at one code
version, so a change that moved every backend's draws the same way (a
reordered shuffle, a different superstep-3 gather) would pass it unnoticed.
These cells pin the SHA-256 of ``random_permutation(arange(n), p, seed=s)``
to the values recorded before Algorithm 1 assembled its output in place;
any change to what a fixed seed produces must update them on purpose.

The batched matrix sampler (``algorithm="batched"``) and the engine's
``multivariate_batch`` are pinned the same way, together with the next raw
word of the generator after the call, so a change to how either walks its
splitting tree -- the order or parameters of its hypergeometric draws, or
how many it makes -- cannot pass unnoticed.
"""

import hashlib

import numpy as np
import pytest

from repro.core.api import sample_communication_matrix
from repro.core.engine import get_engine
from repro.core.permutation import random_permutation
from repro.pro.machine import PROMachine

#: (n, p, matrix algorithm, seed) -> SHA-256 of the int64 output bytes.
GOLDEN = {
    (17, 1, "root", 1):
        "1bc15a6134a269225bb7eafcb526ec1d8e1d1138d18997aa7a9a504921f52cec",
    (1000, 3, "root", 7):
        "6f13362aefdfca9d25592366684a5c869a2e89171e4f8e56bf6223e4dd429175",
    (10007, 4, "alg5", 11):
        "1bde58a0511a6d441cb124e1175062e5267081599f8a3709a6ec4b442799f6f3",
    (4099, 2, "alg6", 3):
        "7400eab16a0ad40d36346e9d10cbe3cb6bee73fc25d86a1d897cfed03a94cc18",
    (65536, 4, "root", 2026):
        "642909bab13adc58aa02ee5a20b1ecb124b869429e761ebf4917529b5e964de6",
}


@pytest.mark.parametrize("backend", ["thread", "sim", "process"])
@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_output_matches_golden_digest(cell, backend):
    n, p, algorithm, seed = cell
    out = random_permutation(np.arange(n, dtype=np.int64), p, backend=backend,
                             matrix_algorithm=algorithm, seed=seed)
    assert out.dtype == np.int64 and out.shape == (n,)
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN[cell]


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_private_fleet_matches_golden_digest(cell):
    """The ``process`` cell above borrows the drivers' warm fleet; a fresh
    private fleet, spawned for the call and closed after it, must draw
    the same."""
    n, p, algorithm, seed = cell
    with PROMachine(p, seed=seed, backend="process") as machine:
        out = random_permutation(np.arange(n, dtype=np.int64),
                                 matrix_algorithm=algorithm, machine=machine)
    assert out.dtype == np.int64 and out.shape == (n,)
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN[cell]


#: name -> (row sums, column sums or None, seed, SHA-256 of the int64 matrix,
#: next raw word of the generator after the call).
GOLDEN_MATRICES = {
    # perfbench's matrix-large workload
    "256x256-rows4000": (
        [4000] * 256, None, 20,
        "abfebee33b4947d8f83f6818f07ac20a123a778d2237c8e895f1bfd370a989c3",
        3567976305113477063),
    # the matrix_tree point of benchmarks/bench_kernels.py
    "256x256-rows64": (
        [64] * 256, None, 21,
        "68898aeaa38779899f78b232792b0c63d59d0f711b7104caaef578e7ee93e0d6",
        13282482569590135771),
    "9x6-zero-rows-and-columns": (
        [0, 5, 17, 0, 3, 40, 1, 0, 9], [12, 0, 0, 30, 7, 26], 22,
        "769cd51651130fb709222cfc4f836d48a06ad89462cd0441442d2c1bed9bb9ab",
        486586185137456319),
    "1x10": (
        [500], [3, 0, 41, 7, 100, 0, 19, 88, 2, 240], 23,
        "9876efb13f9e3d6c4db1713f9d88c75fd1305c5dacdde6620b56f9b8907015fe",
        12800805943167246388),
    "6x1": (
        [6, 250, 0, 1, 77, 66], [400], 24,
        "709e2340a82e0e56f013e8863b4f322d5ba95c3ab1fa0356f577a84d2dbdf5bc",
        6092384705560642248),
}


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_MATRICES))
def test_batched_matrix_matches_golden_digest(name):
    rows, cols, seed, digest, next_word = GOLDEN_MATRICES[name]
    rng = np.random.default_rng(seed)
    matrix = sample_communication_matrix(rows, cols, algorithm="batched", rng=rng)
    assert matrix.shape == (len(rows), len(rows if cols is None else cols))
    assert _digest(matrix) == digest
    assert int(rng.bit_generator.random_raw()) == next_word


def test_multivariate_batch_matches_golden_digest():
    # 40 urns of 13 classes: one empty urn (row 3, zero draws), one empty
    # class in every urn (column 5), one urn drawn whole (row 7).
    sizes = np.random.default_rng(99).integers(0, 30, size=(40, 13))
    sizes[3] = 0
    sizes[:, 5] = 0
    draws = np.random.default_rng(100).integers(0, sizes.sum(axis=1) + 1)
    draws[7] = sizes[7].sum()
    rng = np.random.default_rng(25)
    counts = get_engine().multivariate_batch(draws, sizes, rng)
    assert _digest(counts) == (
        "91e76fce5b87359a985479d463603890d1a24d39dcdef33921bcf7c68dd43187")
    assert int(rng.bit_generator.random_raw()) == 11545896039651989456
