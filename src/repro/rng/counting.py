"""A ``Generator`` wrapper that counts consumed random variates.

The paper measures the efficiency of hypergeometric sampling in terms of the
number of uniform random numbers consumed per sample (Section 6: "the amount
of random numbers per sample of h(,) was always less than 1.5 on average and
10 for the worst case").  :class:`CountingRNG` makes that measurement a
one-liner: wrap any NumPy ``Generator``, run the sampler, read
``rng.uniforms_drawn``.

Only the small surface of the ``Generator`` API used by this library is
exposed; each method forwards to the wrapped generator and increments the
counters by the number of variates produced.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError

__all__ = ["CountingRNG"]


def _size_to_count(size) -> int:
    """Number of scalar variates implied by a NumPy ``size`` argument."""
    if size is None:
        return 1
    if np.isscalar(size):
        return int(size)
    return int(np.prod(size))


class CountingRNG:
    """Wrap a NumPy ``Generator`` and count the variates drawn through it.

    Attributes
    ----------
    uniforms_drawn:
        Number of scalar uniform(0,1) variates produced by :meth:`random`.
    integers_drawn:
        Number of scalar integer variates produced by :meth:`integers`.
    calls:
        Total number of method calls (regardless of the vector size).

    Notes
    -----
    The wrapper also forwards ``permutation``/``shuffle``/``hypergeometric``
    so it can be used as a drop-in replacement for a plain generator inside
    the library.  A Fisher-Yates shuffle of ``k`` items is charged ``k - 1``
    integer variates, the textbook count.
    """

    def __init__(self, generator: np.random.Generator | int | None = None):
        if generator is None or isinstance(generator, (int, np.integer)):
            generator = np.random.default_rng(generator)
        if not isinstance(generator, np.random.Generator):
            raise ValidationError(
                f"CountingRNG wraps a numpy Generator or a seed, got {type(generator).__name__}"
            )
        self._generator = generator
        self.uniforms_drawn = 0
        self.integers_drawn = 0
        self.calls = 0

    # -- counters ---------------------------------------------------------
    @property
    def total_variates(self) -> int:
        """Total scalar variates of any kind drawn through the wrapper."""
        return self.uniforms_drawn + self.integers_drawn

    def reset(self) -> None:
        """Zero all counters (the underlying stream state is untouched)."""
        self.uniforms_drawn = 0
        self.integers_drawn = 0
        self.calls = 0

    # -- forwarded sampling methods ---------------------------------------
    @property
    def generator(self) -> np.random.Generator:
        """The wrapped NumPy generator."""
        return self._generator

    def random(self, size=None):
        """Uniform variates on [0, 1); counts ``size`` scalars."""
        self.calls += 1
        self.uniforms_drawn += _size_to_count(size)
        return self._generator.random(size)

    def integers(self, low, high=None, size=None, **kwargs):
        """Integer variates; counts ``size`` scalars."""
        self.calls += 1
        self.integers_drawn += _size_to_count(size)
        return self._generator.integers(low, high, size=size, **kwargs)

    def permutation(self, x):
        """Uniform random permutation; charged ``len(x) - 1`` integer variates."""
        self.calls += 1
        n = int(x) if np.isscalar(x) else len(x)
        self.integers_drawn += max(n - 1, 0)
        return self._generator.permutation(x)

    def shuffle(self, x):
        """In-place shuffle; charged ``len(x) - 1`` integer variates."""
        self.calls += 1
        self.integers_drawn += max(len(x) - 1, 0)
        self._generator.shuffle(x)

    def hypergeometric(self, ngood, nbad, nsample, size=None):
        """NumPy's hypergeometric sampler (the oracle and the batched engine).

        Charged one uniform per scalar sample drawn -- always the broadcast
        size of the call: with ``size=None`` the broadcast shape of the
        three parameter arrays (the vectorized form the batched engine
        levels and ``SamplerEngine.draw_many`` use), with an explicit
        ``size`` the broadcast of that shape with the parameters.  The true
        uniform consumption of the library's own scalar samplers is what
        :mod:`repro.core.hypergeometric` reports.
        """
        self.calls += 1
        param_shape = np.broadcast(
            np.asarray(ngood), np.asarray(nbad), np.asarray(nsample)
        ).shape
        if size is None:
            shape = param_shape
        elif np.isscalar(size):
            shape = np.broadcast_shapes(param_shape, (int(size),))
        else:
            shape = np.broadcast_shapes(param_shape, tuple(size))
        self.uniforms_drawn += int(np.prod(shape, dtype=np.int64)) if shape else 1
        return self._generator.hypergeometric(ngood, nbad, nsample, size)
