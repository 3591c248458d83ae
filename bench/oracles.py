"""Reference computations for the output checks, independent of skconverse.

Everything here uses numpy and math only: the checks must not share code
paths with the library they check.  All logs are base 2.
"""

from __future__ import annotations

import math

import numpy as np


def np_beta(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """beta_eps(P, Q) by a Neyman-Pearson sort with exactly rounded sums.

    Cells are accepted in decreasing order of p/q (q = 0 first), the
    boundary cell fractionally, until the accepted P-mass is 1 - eps.
    Tied ratios give the same beta whichever of them is taken first.
    """
    inf = (p > 0) & (q == 0)
    pos = (p > 0) & (q > 0)
    order = np.argsort(-(p[pos] / q[pos]), kind="stable")
    ps = np.concatenate([p[inf], p[pos][order]])
    qs = np.concatenate([q[inf], q[pos][order]])
    target = min(1.0 - eps, math.fsum(ps))
    # the float cumsum only locates the boundary; the sums are exact
    b = max(int(np.searchsorted(np.cumsum(ps), target)) - 64, 0)
    before = math.fsum(ps[:b])
    while b > 0 and before >= target:
        b = max(b - 4096, 0)
        before = math.fsum(ps[:b])
    while b < ps.size - 1 and before + float(ps[b]) < target:
        before += float(ps[b])
        b += 1
    before = math.fsum(ps[:b])
    frac = min(1.0, max(0.0, (target - before) / float(ps[b])))
    return math.fsum(qs[:b]) + frac * float(qs[b])


def dmax_smooth(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Least lam with sum over q > 0 of min(p, q 2^lam) >= total(P) - eps,
    by bisection on that coverage function; inf if no lam reaches it."""
    target = math.fsum(p) - eps
    keep = (p > 0) & (q > 0)
    if math.fsum(p[keep]) < target - 1e-12:
        return math.inf
    pk, qk = p[keep], q[keep]
    lo = math.log2(target) - 1.0
    hi = float(np.log2(pk / qk).max()) + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if float(np.minimum(pk, qk * 2.0**mid).sum()) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-13:
            break
    return hi


def hmin_smooth(p: np.ndarray, eps: float) -> float:
    """-log2 of the cap c with sum max(p - c, 0) = 2 eps, by bisection."""
    budget = 2.0 * eps
    lo, hi = 0.0, float(p.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.maximum(p - mid, 0.0).sum()) > budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return -math.log2(hi)


def kl(p: np.ndarray, q: np.ndarray) -> float:
    m = p > 0
    return math.fsum(p[m] * np.log2(p[m] / q[m]))


def dmax(p: np.ndarray, q: np.ndarray) -> float:
    m = p > 0
    return float(np.log2(p[m] / q[m]).max())


def entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return -math.fsum(p * np.log2(p))


def nfold(p: np.ndarray, n: int) -> np.ndarray:
    out = p
    for _ in range(n - 1):
        out = np.kron(out, p)
    return out


def set_partitions(m: int):
    """All partitions of {1..m} into at least two blocks, as tuples of tuples."""
    out = []

    def grow(i, blocks):
        if i > m:
            if len(blocks) >= 2:
                out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(1, [])
    return out


def parse_partition(text: str):
    return tuple(tuple(int(t) for t in blk.split(",")) for blk in text.split("|"))


def block_product(arr: np.ndarray, blocks, z_axis: int | None) -> np.ndarray:
    """Q^pi: per z-slice, the product of the block marginals (parties 1..m)."""
    if z_axis is None:
        return _product_of_marginals(arr, blocks)
    out = np.empty_like(arr)
    for z in range(arr.shape[z_axis]):
        sl = np.take(arr, z, axis=z_axis)
        mass = sl.sum()
        prod = _product_of_marginals(sl / mass, blocks) * mass if mass > 0 else sl * 0
        idx = [slice(None)] * arr.ndim
        idx[z_axis] = z
        out[tuple(idx)] = prod
    return out


def _product_of_marginals(arr: np.ndarray, blocks) -> np.ndarray:
    m = arr.ndim
    out = np.ones_like(arr)
    for blk in blocks:
        axes = [i - 1 for i in blk]
        others = tuple(a for a in range(m) if a not in axes)
        marg = arr.sum(axis=others, keepdims=True)
        out = out * marg
    return out


def cit_value(arr, blocks, z_axis, eps_eta: float, eta: float):
    """(neg_log2_beta, beta, bound) of the testing bound for one partition."""
    q = block_product(arr, blocks, z_axis)
    beta = np_beta(arr.reshape(-1), q.reshape(-1), eps_eta)
    nlb = -math.log2(beta)
    l = len(blocks)
    return nlb, beta, (nlb + l * math.log2(1.0 / eta)) / (l - 1)


def capacity(arr: np.ndarray):
    """min over partitions of (sum_b H(block b) - H(all)) / (|pi| - 1)."""
    m = arr.ndim
    h_all = entropy(arr.reshape(-1))
    cache = {}

    def h(block):
        if block not in cache:
            others = tuple(a for a in range(m) if a + 1 not in block)
            cache[block] = entropy(arr.sum(axis=others).reshape(-1))
        return cache[block]

    best = math.inf
    for pi in set_partitions(m):
        val = (sum(h(b) for b in pi) - h_all) / (len(pi) - 1)
        best = min(best, val)
    return best, lambda pi: (sum(h(b) for b in pi) - h_all) / (len(pi) - 1)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
