"""One rule for the counts and partitions that enter the package.

as_int reads a count (a seed, a range, a step cap, a dimension, a repeat
count): a Python or NumPy integer, returned as a Python int.  Bools
(Python's or NumPy's), floats, even integral ones, and strings raise
ValueError naming the argument; nothing is truncated.  as_partition reads a
partition, nonnegative counts in nonincreasing order, as a tuple of ints;
is_partition, conjugate_partition and partitions_of apply the same rule.
"""
from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np


def as_int(value, name: str, low: int | None = None) -> int:
    """``value`` as a Python int.  A bool, a value without ``__index__``
    (a float, a string) or one below ``low`` raises ValueError naming
    ``name``; NumPy integers pass."""
    try:
        out = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        out = None
    if out is None or (low is not None and out < low):
        kind = {None: "an integer", 0: "a nonnegative integer",
                1: "a positive integer"}.get(low, f"an integer >= {low}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return out


def as_partition(values: Sequence[int], name: str) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints, each nonnegative by as_int and
    none larger than the one before; anything else raises ValueError naming
    ``name``."""
    try:
        parts = tuple(as_int(v, f"{name}[{i}]", low=0)
                      for i, v in enumerate(values))
    except TypeError:  # not iterable
        raise ValueError(f"{name} must be a sequence of integers, "
                         f"got {values!r}") from None
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"{name} must be nonincreasing, got {parts}")
    return parts


def is_partition(parts: Sequence[int]) -> bool:
    """True when as_partition accepts ``parts``."""
    try:
        as_partition(parts, "parts")
    except ValueError:
        return False
    return True


def conjugate_partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Column heights of the Young diagram of ``parts``."""
    parts = as_partition(parts, "parts")
    width = parts[0] if parts else 0
    return tuple(sum(1 for p in parts if p >= c + 1) for c in range(width))


def partitions_of(k: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """All partitions of k into at most max_parts parts, in lexicographic
    (largest-first) order."""
    k = as_int(k, "k", low=0)
    max_parts = as_int(max_parts, "max_parts", low=0)

    def rec(remaining: int, bound: int, slots: int):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(k, k, max_parts)
