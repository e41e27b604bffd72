"""Golden digests: Algorithm 1's output is pinned across versions.

The cross-backend grid compares backends with one another at one code
version, so a change that moved every backend's draws the same way (a
reordered shuffle, a different superstep-3 gather) would pass it unnoticed.
These cells pin the SHA-256 of ``random_permutation(arange(n), p, seed=s)``
to the values recorded before Algorithm 1 assembled its output in place;
any change to what a fixed seed produces must update them on purpose.

``REPRO_PERSISTENT=0`` or ``1`` narrows the process-backend cells to one
persistence mode (unset runs both), as in the cross-backend grid.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.core.permutation import random_permutation

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


def _backend_cells() -> list:
    forced = os.environ.get("REPRO_PERSISTENT")
    modes = [False, True] if not forced else [forced not in ("0", "false", "no")]
    cells = [pytest.param("thread", {}, id="thread"),
             pytest.param("sim", {}, id="sim")]
    cells += [pytest.param("process", {"persistent": mode},
                           id="process-persistent" if mode else "process-cold")
              for mode in modes]
    return cells


@pytest.mark.parametrize("backend, options", _backend_cells())
@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_output_matches_golden_digest(cell, backend, options):
    n, p, algorithm, seed = cell
    out = random_permutation(np.arange(n, dtype=np.int64), p, backend=backend,
                             matrix_algorithm=algorithm, seed=seed, **options)
    assert out.dtype == np.int64 and out.shape == (n,)
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN[cell]
