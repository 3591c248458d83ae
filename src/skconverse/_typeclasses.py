"""Type-class bookkeeping for IID product distributions.

Sequences sharing an empirical count vector have identical probability under
any IID law, so n-fold products can be handled class-by-class: a class with
counts (n_1..n_k) has multiplicity n!/(n_1!..n_k!) and log-probability
sum_i n_i log p_i.  All logs are base 2; zero probabilities use the finite
LOG2_ZERO sentinel so sorting and exp2 stay well behaved.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceededError
from .probcore import LOG2_ZERO

DEFAULT_CLASS_CAP = 5_000_000


def count_compositions(n: int, k: int) -> int:
    return math.comb(n + k - 1, k - 1)


def compositions(n: int, k: int) -> np.ndarray:
    """All count vectors of length k summing to n, lexicographic order.

    Built column by column: a row with ``r`` left to place expands into
    ``r + 1`` consecutive rows taking 0..r, so rows stay lexicographic.
    """
    left = np.array([n], dtype=np.int64)
    cols: list[np.ndarray] = []
    for _ in range(k - 1):
        reps = left + 1
        starts = np.cumsum(reps) - reps
        take = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(starts, reps)
        cols = [np.repeat(c, reps) for c in cols]
        cols.append(take)
        left = np.repeat(left, reps) - take
    cols.append(left)
    return np.stack(cols, axis=1)


def log2_factorials(n: int) -> np.ndarray:
    """Table of log2(i!) for i = 0..n."""
    table = np.zeros(n + 1)
    if n >= 1:
        table[1:] = np.cumsum(np.log2(np.arange(1, n + 1, dtype=np.float64)))
    return table


def typeclass_table(p: np.ndarray, q: np.ndarray, n: int):
    """Counts plus log2 class masses of P^n and Q^n for every type class.

    Returns (counts, log2_pmass, log2_qmass); rows are classes.  Raises
    CapExceededError when the class count would exceed DEFAULT_CLASS_CAP.
    """
    k = p.size
    n_classes = count_compositions(n, k)
    if n_classes > DEFAULT_CLASS_CAP:
        raise CapExceededError(
            f"{n_classes} type classes exceed the cap {DEFAULT_CLASS_CAP} (n={n}, k={k})"
        )
    counts = compositions(n, k)
    lf = log2_factorials(n)
    log_mult = lf[n] - lf[counts].sum(axis=1)

    def _mass(dist: np.ndarray) -> np.ndarray:
        logs = np.where(dist > 0, np.log2(np.where(dist > 0, dist, 1.0)), 0.0)
        term = counts @ logs
        dead = (counts[:, dist == 0] > 0).any(axis=1)
        out = log_mult + term
        out[dead] = LOG2_ZERO
        return out

    return counts, _mass(p), _mass(q)
