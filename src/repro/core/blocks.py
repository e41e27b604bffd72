"""Block distributions of a vector over the processors.

The paper's Problem 1 starts from a vector ``v`` of ``n`` items distributed
such that processor ``P_i`` holds a contiguous *block* ``B_i`` of ``m_i``
items (Figure 1 of the paper shows exactly this layout for 6 processors).
:class:`BlockDistribution` captures the sizes ``(m_1, ..., m_p)`` and answers
the bookkeeping questions every algorithm needs: which processor owns a
global index, how global and local indices map to each other, and how to cut
an in-memory vector into per-processor blocks (and glue it back together).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.rng.streams import default_rng
from repro.util.errors import ValidationError
from repro.util.validation import (
    check_nonnegative_int,
    check_positive_int,
    check_vector_of_nonnegative_ints,
)

__all__ = ["BlockDistribution"]


class BlockDistribution:
    """Sizes and index arithmetic of a block-distributed vector.

    Parameters
    ----------
    sizes:
        Sequence of non-negative block sizes ``(m_1, ..., m_p)``; block ``i``
        holds the global indices ``[offsets[i], offsets[i] + sizes[i])``.

    Examples
    --------
    >>> dist = BlockDistribution.balanced(10, 3)
    >>> dist.sizes.tolist()
    [4, 3, 3]
    >>> dist.owner_of(4)
    1
    >>> dist.global_index(2, 1)
    8
    """

    def __init__(self, sizes: Iterable[int]):
        self._sizes = check_vector_of_nonnegative_ints(sizes, "sizes").copy()
        if self._sizes.size == 0:
            raise ValidationError("a BlockDistribution needs at least one block")
        self._offsets = np.concatenate(([0], np.cumsum(self._sizes)))

    # -- constructors -----------------------------------------------------------
    @classmethod
    def balanced(cls, n_items: int, n_blocks: int) -> "BlockDistribution":
        """Split ``n_items`` into ``n_blocks`` blocks whose sizes differ by at most one.

        The first ``n_items % n_blocks`` blocks get the extra item, matching
        the usual convention of block-distributing arrays.
        """
        n_items = check_nonnegative_int(n_items, "n_items")
        n_blocks = check_positive_int(n_blocks, "n_blocks")
        base, extra = divmod(n_items, n_blocks)
        sizes = np.full(n_blocks, base, dtype=np.int64)
        sizes[:extra] += 1
        return cls(sizes)

    @classmethod
    def uniform(cls, block_size: int, n_blocks: int) -> "BlockDistribution":
        """All blocks have exactly ``block_size`` items (the paper's ``n = p*m``)."""
        block_size = check_nonnegative_int(block_size, "block_size")
        n_blocks = check_positive_int(n_blocks, "n_blocks")
        return cls(np.full(n_blocks, block_size, dtype=np.int64))

    @classmethod
    def random_uneven(
        cls,
        n_items: int,
        n_blocks: int,
        *,
        seed=None,
        min_size: int = 0,
    ) -> "BlockDistribution":
        """Random block sizes with a given minimum, summing to ``n_items``.

        Sizes are drawn from a symmetric multinomial over the slack
        ``n_items - n_blocks * min_size`` (so each block gets ``min_size``
        plus a binomially fluctuating share), which is a convenient model of
        mildly unbalanced input data.
        """
        n_items = check_nonnegative_int(n_items, "n_items")
        n_blocks = check_positive_int(n_blocks, "n_blocks")
        min_size = check_nonnegative_int(min_size, "min_size")
        slack = n_items - n_blocks * min_size
        if slack < 0:
            raise ValidationError(
                f"cannot give {n_blocks} blocks at least {min_size} items each "
                f"out of {n_items} items"
            )
        rng = default_rng(seed)
        extra = rng.multinomial(slack, np.full(n_blocks, 1.0 / n_blocks))
        return cls(extra + min_size)

    @classmethod
    def from_blocks(cls, blocks: Sequence[np.ndarray]) -> "BlockDistribution":
        """Distribution matching the lengths of already-materialised blocks."""
        return cls([len(b) for b in blocks])

    # -- basic properties ---------------------------------------------------------
    @property
    def sizes(self) -> np.ndarray:
        """Block sizes ``(m_1, ..., m_p)`` as an ``int64`` array (do not mutate)."""
        return self._sizes

    @property
    def offsets(self) -> np.ndarray:
        """Prefix sums: ``offsets[i]`` is the first global index of block ``i``."""
        return self._offsets

    @property
    def n_blocks(self) -> int:
        """Number of blocks ``p``."""
        return int(self._sizes.size)

    @property
    def total(self) -> int:
        """Total number of items ``n``."""
        return int(self._offsets[-1])

    def is_balanced(self, *, tolerance: int = 1) -> bool:
        """True when the largest and smallest block differ by at most ``tolerance``."""
        return int(self._sizes.max() - self._sizes.min()) <= tolerance

    # -- index arithmetic ----------------------------------------------------------
    def owner_of(self, global_index: int) -> int:
        """Block id owning ``global_index``."""
        gi = check_nonnegative_int(global_index, "global_index")
        if gi >= self.total:
            raise ValidationError(f"global_index {gi} out of range [0, {self.total})")
        return int(np.searchsorted(self._offsets, gi, side="right") - 1)

    def local_index(self, global_index: int) -> tuple[int, int]:
        """Return ``(block, offset_within_block)`` of a global index."""
        block = self.owner_of(global_index)
        return block, int(global_index - self._offsets[block])

    def global_index(self, block: int, offset: int) -> int:
        """Return the global index of ``offset`` within ``block``."""
        block = check_nonnegative_int(block, "block")
        offset = check_nonnegative_int(offset, "offset")
        if block >= self.n_blocks:
            raise ValidationError(f"block {block} out of range [0, {self.n_blocks})")
        if offset >= self._sizes[block]:
            raise ValidationError(
                f"offset {offset} out of range [0, {self._sizes[block]}) for block {block}"
            )
        return int(self._offsets[block] + offset)

    def block_slice(self, block: int) -> slice:
        """The ``slice`` of global indices held by ``block``."""
        block = check_nonnegative_int(block, "block")
        if block >= self.n_blocks:
            raise ValidationError(f"block {block} out of range [0, {self.n_blocks})")
        return slice(int(self._offsets[block]), int(self._offsets[block + 1]))

    def slices(self) -> list[slice]:
        """All block slices, in block order."""
        return [self.block_slice(i) for i in range(self.n_blocks)]

    # -- materialisation helpers ------------------------------------------------------
    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Cut an in-memory vector into per-block arrays (views, not copies)."""
        arr = np.asarray(values)
        if arr.shape[0] != self.total:
            raise ValidationError(
                f"vector of length {arr.shape[0]} does not match distribution total {self.total}"
            )
        return [arr[s] for s in self.slices()]

    def concatenate(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Glue per-block arrays back into one vector, checking the sizes."""
        if len(blocks) != self.n_blocks:
            raise ValidationError(
                f"expected {self.n_blocks} blocks, got {len(blocks)}"
            )
        for i, block in enumerate(blocks):
            if len(block) != self._sizes[i]:
                raise ValidationError(
                    f"block {i} has {len(block)} items, expected {self._sizes[i]}"
                )
        if self.total == 0:
            return np.empty(0)
        return np.concatenate([np.asarray(b) for b in blocks])

    # -- dunder -------------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, BlockDistribution) and np.array_equal(self._sizes, other._sizes)

    def __hash__(self) -> int:
        return hash(tuple(self._sizes.tolist()))

    def __len__(self) -> int:
        return self.n_blocks

    def __repr__(self) -> str:  # pragma: no cover - trivial
        preview = ", ".join(str(int(s)) for s in self._sizes[:6])
        if self.n_blocks > 6:
            preview += ", ..."
        return f"BlockDistribution([{preview}], n={self.total}, p={self.n_blocks})"
