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

from ._typeclasses import typeclass_table
from .errors import PreconditionError
from .probcore import (
    LOG2_ZERO,
    MASS_SLACK,
    JointDist,
    SubDist,
    _check_same_shape,
    _resolve_names,
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
    """Smallest cap c with sum max(p - c, 0) = budget.

    Works on one sorted copy of P's support, one array of candidate caps
    and one scratch array that holds each side of the bracket test in turn.
    """
    ps = p[p > 0]
    if not ps.size:
        raise PreconditionError("min-entropy of an identically zero function")
    ps.sort()
    ps = ps[::-1]
    if budget <= 0.0:
        return float(ps[0])
    caps = np.cumsum(ps)
    caps -= budget
    caps /= np.arange(1, ps.size + 1, dtype=np.float64)  # cap if exactly the top k entries exceed it
    scratch = np.add(ps, MASS_SLACK)
    valid = caps <= scratch
    np.subtract(ps[1:], MASS_SLACK, out=scratch[:-1])  # the next entry below, 0 after the last
    scratch[-1] = -MASS_SLACK
    valid &= caps >= scratch
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
    keep = p > 0
    keep &= q > 0
    log2_t = _dmax_cap_log(np.log2(p[keep]), np.log2(q[keep]), target)
    if log2_t == math.inf:
        return _smoothed(math.inf, P, np.where(q > 0, p, 0.0))
    w = q * math.pow(2.0, log2_t)
    return _smoothed(log2_t, P, np.minimum(p, w, out=w))


def _dmax_cap_log(lp: np.ndarray, lq: np.ndarray, target: float) -> float:
    """log2 of the least t with sum min(p, q*t) >= target, or +inf.

    ``lp`` and ``lq`` are log2 P and log2 Q on the cells where both are
    positive, in any order; the other cells never lower t.  Log-masses keep
    type-class inputs with astronomically small per-class masses
    representable.  Both arrays are overwritten: the log-ratio goes into
    ``lp`` and the sorted log-ratio into ``lq``, so the search holds two
    pmf-sized arrays besides its inputs and the sort order.
    """
    p_lin = np.exp2(lp)  # elementwise, so p_lin[order] is exp2 of the sorted lp
    covered_max = float(p_lin.sum())
    if covered_max < target - 1e-12:
        return math.inf
    if target <= 0.0:
        return -math.inf
    if not lp.size:
        return math.inf  # no mass can be covered, and the target is positive
    ratio = np.subtract(lp, lq, out=lp)
    order = stable_order(ratio)
    # Each sorted array goes into a buffer that is spent: take fills ``out``
    # in place with mode="clip" (mode="raise" would buffer a copy), and
    # every index in ``order`` is valid.
    p_cum = np.zeros(lp.size + 1)  # p mass of capped prefix
    np.cumsum(np.take(p_lin, order, out=p_cum[1:], mode="clip"), out=p_cum[1:])
    # log2 of Q-mass of the uncapped suffix, built from the top
    q_tail = np.take(lq, order, out=p_lin, mode="clip")
    np.logaddexp2.accumulate(q_tail[::-1], out=q_tail[::-1])
    ratio = np.take(ratio, order, out=lq, mode="clip")
    del order  # before the segment blocks' temporaries

    # Segment j: the first j outcomes are capped at p, the rest contribute
    # q*t.  Segments are tested a block at a time: numpy marks candidates
    # with a test looser than the scalar one (its log2 may differ from
    # math's in the last bits), and the scalar test decides.  Segment
    # ratio.size would give ratio[-1] whichever way it ends.
    for a in range(0, ratio.size, _SEGMENT_BLOCK):
        b = min(a + _SEGMENT_BLOCK, ratio.size)
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
        keep = (logp > LOG2_ZERO) & (logq > LOG2_ZERO)
        val = _dmax_cap_log(logp[keep], logq[keep], mass ** n - eps)
        return n, val / n

    return [one(n) for n in ns]
