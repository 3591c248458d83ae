"""Min-entropy, max-divergence, and their smoothed variants.

Smoothing follows the half-L1 variational distance applied verbatim to
subnormalized functions, so a witness that removes total mass 2*eps sits at
distance eps from the original.  Witnesses are restricted to P~ <= P
elementwise: for maximizing min-entropy and for minimizing max-divergence,
adding mass can never help under this distance (removing it loosens the
binding constraint; adding it only raises the largest mass or wastes budget).
Both smoothing problems are piecewise linear in their cap, so they are solved
exactly by sorting; the bisection route survives in the test suite as an
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from ._typeclasses import typeclass_table
from .errors import PreconditionError
from .probcore import (
    LOG2_ZERO,
    MASS_SLACK,
    JointDist,
    SubDist,
    _check_same_shape,
    _resolve_names,
    log2_pmf,
    stable_order,
)

_SEGMENT_BLOCK = 1 << 14  # segments tested per numpy pass in _dmax_cap_log
_CANDIDATE_TOL = 1e-10  # relative widening of the candidate test


@dataclass(frozen=True)
class SmoothingResult:
    """Smoothed value together with the achieving subnormalized witness."""

    value: float
    witness: SubDist
    removed_mass: float


def h_min(P) -> float:
    """Min-entropy -log2 max_x P(x); accepts subnormalized input."""
    peak = float(P.pmf.max(initial=0.0))
    if peak <= 0.0:
        raise PreconditionError("min-entropy of an identically zero function")
    return -math.log2(peak)


def _xy_matrix(P, x_vars, y_vars) -> np.ndarray:
    """P as a matrix: a row per assignment of ``x_vars``, a column per one of ``y_vars``.

    Rows and columns are in row-major order of the listed variables, which
    must partition P's variables.
    """
    x_vars = _resolve_names(P, x_vars)
    y_vars = _resolve_names(P, y_vars)
    if sorted(x_vars + y_vars) != sorted(P.var_names):
        raise PreconditionError("x_vars and y_vars must partition the variables")
    arr = np.transpose(P.array(), [P.axis(n) for n in x_vars + y_vars])
    x_size = int(np.prod(arr.shape[: len(x_vars)], dtype=np.int64))
    return arr.reshape(x_size, -1)


def h_min_cond(P: JointDist, x_vars, y_vars) -> float:
    """Conditional min-entropy -log2 sum_y max_x P(x, y).

    This is the closed form of the supremum over side distributions Q_Y of
    min_{x, y in supp Q} log2 Q(y)/P(x,y); the optimal Q_Y(y) is
    proportional to max_x P(x, y).
    """
    total = float(_xy_matrix(P, x_vars, y_vars).max(axis=0).sum())
    if total <= 0.0:
        raise PreconditionError("conditional min-entropy of a zero function")
    return -math.log2(total)


def h_min_smooth(P, eps: float) -> SmoothingResult:
    """Smooth min-entropy by water-filling.

    Finds the cap c with sum_x max(P(x) - c, 0) = 2*eps (exact piecewise
    linear solve) and returns -log2 c with witness min(P, c).  This witness
    maximizes the min-entropy over subnormalized functions within distance
    eps of P.
    """
    if not 0.0 <= eps < 0.5:
        raise PreconditionError("smoothing parameter must lie in [0, 1/2)")
    p = P.pmf
    budget = 2.0 * eps
    if budget >= P.total_mass() - MASS_SLACK and eps > 0:
        raise PreconditionError("smoothing budget would remove all mass")
    cap = _waterfill_cap(p, budget)
    return _smoothed(-math.log2(cap), P, np.minimum(p, cap))


def _smoothed(value: float, P, witness: np.ndarray) -> SmoothingResult:
    """The result of smoothing P to ``witness`` (pointwise at most P)."""
    return SmoothingResult(
        value=value,
        witness=SubDist(P.vars, witness),
        removed_mass=float(P.pmf.sum() - witness.sum()),
    )


def _waterfill_cap(p: np.ndarray, budget: float) -> float:
    """Smallest cap c with sum max(p - c, 0) = budget."""
    ps = np.sort(p[p > 0])[::-1]
    if budget <= 0.0:
        return float(ps[0])
    cum = np.cumsum(ps)
    ks = np.arange(1, ps.size + 1, dtype=np.float64)
    caps = (cum - budget) / ks  # cap if exactly the top k entries exceed it
    lower = np.append(ps[1:], 0.0)
    valid = (caps <= ps + MASS_SLACK) & (caps >= lower - MASS_SLACK)
    idx = int(np.argmax(valid))
    if not valid[idx]:
        raise PreconditionError("water-filling budget exceeds removable mass")
    return float(max(caps[idx], 0.0))


def d_max(P, Q) -> float:
    """Max-divergence max_x log2 P(x)/Q(x), with log(0/0) = 0.

    Returns +inf when P puts mass where Q does not.
    """
    _check_same_shape(P, Q)
    p, q = P.pmf, Q.pmf
    if np.any((p > 0) & (q == 0)):
        return math.inf
    mask = (p > 0) & (q > 0)
    best = 0.0 if np.any((p == 0) & (q == 0)) else -math.inf
    if np.any(mask):
        best = max(best, float(np.log2(p[mask] / q[mask]).max()))
    return best


def d_max_smooth(P, Q, eps: float) -> SmoothingResult:
    """Smooth max-divergence: least lam with sum_x min(P, Q*2^lam) >= |P| - eps.

    |P| is P's total mass (1 within 1e-9 for a distribution), so the witness
    min(P, Q*2^lam) keeps all of P's mass but eps.  Outcomes with Q(x)=0
    carry only removable P-mass; if that mass exceeds eps the value is +inf.
    Solved exactly via the sorted piecewise-linear coverage function.
    """
    _check_same_shape(P, Q)
    if not 0.0 < eps < 1.0:
        raise PreconditionError("smoothing parameter must lie in (0, 1)")
    p, q = P.pmf, Q.pmf
    target = P.total_mass() - eps
    log2_t = _dmax_cap_log(log2_pmf(p), log2_pmf(q), target)
    if log2_t == math.inf:
        return _smoothed(math.inf, P, np.where(q > 0, p, 0.0))
    return _smoothed(log2_t, P, np.minimum(p, q * math.pow(2.0, log2_t)))


def _dmax_cap_log(logp: np.ndarray, logq: np.ndarray, target: float) -> float:
    """log2 of the least t with sum min(p, q*t) >= target, or +inf.

    Operates on log-masses so that type-class inputs with astronomically
    small per-class masses stay representable.
    """
    alive_q = logq > LOG2_ZERO
    alive_p = logp > LOG2_ZERO
    keep = alive_q & alive_p
    covered_max = float(np.exp2(logp[keep]).sum()) if keep.any() else 0.0
    if covered_max < target - 1e-12:
        return math.inf
    if target <= 0.0:
        return -math.inf
    if not keep.any():
        return math.inf  # no mass can be covered, and the target is positive
    lp, lq = logp[keep], logq[keep]
    ratio = lp - lq
    order = stable_order(ratio)
    lp, lq, ratio = lp[order], lq[order], ratio[order]
    p_lin = np.exp2(lp)
    p_cum = np.concatenate([[0.0], np.cumsum(p_lin)])  # p mass of capped prefix
    # log2 of Q-mass of the uncapped suffix, built from the top
    q_tail = np.logaddexp2.accumulate(lq[::-1])[::-1]

    # Segment j: the first j outcomes are capped at p, the rest contribute
    # q*t.  Segments are tested a block at a time: numpy marks candidates
    # with a test looser than the scalar one (its log2 may differ from
    # math's in the last bits), and the scalar test decides.  Segment
    # lq.size would give ratio[-1] whichever way it ends.
    for a in range(0, lq.size, _SEGMENT_BLOCK):
        b = min(a + _SEGMENT_BLOCK, lq.size)
        his = ratio[a:b]
        los = ratio[a - 1 : b - 1] if a else np.concatenate(([-np.inf], his[:-1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ts = np.log2(target - p_cum[a:b]) - q_tail[a:b]
            near = _CANDIDATE_TOL * (1.0 + np.abs(log_ts))
            hit = (p_cum[a:b] >= target - MASS_SLACK) | (
                (los - near <= log_ts) & (log_ts <= his + near)
            )
        for j in (a + np.flatnonzero(hit)).tolist():
            if j > 0 and p_cum[j] >= target - MASS_SLACK:
                return float(ratio[j - 1])  # coverage reached exactly at breakpoint
            log_t = math.log2(target - p_cum[j]) - q_tail[j]
            lo = ratio[j - 1] if j > 0 else -math.inf
            if lo - 1e-12 <= log_t <= ratio[j] + 1e-12:
                return float(min(max(log_t, lo), ratio[j]))
    return float(ratio[-1])


def dmax_convergence_scan(
    P: JointDist, Q: JointDist, eps: float, ns
) -> list[tuple[int, float]]:
    """Table of (n, D_max^eps(P^n || Q^n) / n); the values trend to D(P||Q).

    Computed on type classes: the ratio is constant inside a class, so the
    coverage function aggregates classwise without error.  Each row solves
    d_max_smooth's rule against P^n's mass, |P|^n - eps.
    """
    _check_same_shape(P, Q)
    if len(P.vars) != 1:
        raise PreconditionError("scan expects one shared variable")
    if not 0.0 < eps < 1.0:
        raise PreconditionError("smoothing parameter must lie in (0, 1)")
    ns = [int(n) for n in ns]
    if min(ns, default=1) < 1:
        raise PreconditionError("n must be >= 1")

    mass = P.total_mass()

    def one(n: int) -> tuple[int, float]:
        _, logp, logq = typeclass_table(P.pmf, Q.pmf, n)
        val = _dmax_cap_log(logp, logq, mass ** n - eps)
        return n, val / n

    return parallel_map(one, ns)
