"""Slow reference implementations that the tests compare the library against."""

from __future__ import annotations

from typing import Iterator, Sequence


def squarefree_products(primes: Sequence[int], bound: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Every squarefree product a <= bound of distinct primes from the
    ascending sequence `primes`, as (a, mu(a), primes of a ascending).

    a = 1 comes first, then DFS pre-order: each a is followed by its
    extensions a*p by primes p above its own.  Iterative, and a branch
    stops at the first prime that overshoots the bound, so primes that
    can no longer fit are never read.
    """
    yield 1, 1, ()
    stack = [(0, 1, 1, ())]  # (next prime index, a, mu(a), primes of a)
    while stack:
        j, a, mu, ps = stack.pop()
        if j < len(primes) and a * primes[j] <= bound:
            p = primes[j]
            stack.append((j + 1, a, mu, ps))
            child = (a * p, -mu, ps + (p,))
            yield child
            stack.append((j + 1, *child))
