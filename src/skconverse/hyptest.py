"""Optimal type-II error of binary hypothesis tests, exactly.

beta_epsilon(P, Q, eps) is the infimum of Q[T] over tests T with
P[T] >= 1 - eps.  The optimum has Neyman-Pearson structure: sort outcomes by
the likelihood ratio P(x)/Q(x) in decreasing order (Q(x)=0 with P(x)>0 first,
ties broken by outcome index), accept greedily until the accepted P-mass is
exactly 1 - eps, including the boundary outcome fractionally.  The returned
certificate reconstructs the achieving randomized threshold test.

The IID variant aggregates outcomes of P^n vs Q^n into type classes, on which
the ratio is constant, so its value is identical to the dense computation but
reaches n = 10^4 for small alphabets.  beta itself can underflow a float64
there, so certificates carry log2(beta) as the primary quantity.
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
    _check_same_shape,
    divergence,
    log2_pmf,
    stable_order,
)


@dataclass(frozen=True, eq=False)
class BetaCertificate:
    """Optimal type-II error plus the achieving randomized threshold test.

    Outcomes `order[:n_full]` are accepted with probability 1 and
    `order[n_full]` with probability `gamma`; everything later is rejected.
    For the type-class variant, indices refer to classes and
    `outcome_labels[i]` is the count vector of class `order[i]`.  Both are
    read-only int64 arrays.  Certificates compare and hash by value: two
    are equal when every scalar field and every entry of the arrays are.
    """

    beta: float
    log2_beta: float
    eps: float
    order: np.ndarray
    n_full: int
    gamma: float
    type1_error: float
    outcome_labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        for arr in (self.order, self.outcome_labels):
            if arr is not None:
                arr.setflags(write=False)

    def _key(self) -> tuple:
        arrays = tuple(None if a is None else (a.shape, a.tobytes())
                       for a in (self.order, self.outcome_labels))
        scalars = (self.beta, self.log2_beta, self.eps, self.n_full, self.gamma, self.type1_error)
        return scalars + arrays

    def __eq__(self, other) -> bool:
        if not isinstance(other, BetaCertificate):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def neg_log2_beta(self) -> float:
        return math.inf if self.log2_beta == -math.inf else -self.log2_beta

    def test_vector(self) -> np.ndarray:
        """T(0|x) over outcomes, in the original outcome order."""
        t = np.zeros(self.order.size)
        t[self.order[: self.n_full]] = 1.0
        if self.n_full < self.order.size and self.gamma > 0:
            t[self.order[self.n_full]] = self.gamma
        return t


def _ratio_order(logp: np.ndarray, logq: np.ndarray) -> np.ndarray:
    """Indices sorted by decreasing log-ratio, ties by index (stable).

    ``logq`` may hold one row per alternative; each row is sorted alone.
    When it is one row, the ratio is written into ``logp``'s buffer, so
    ``logp`` is overwritten and the caller must not read it afterwards.
    """
    # p == 0 outcomes can never help; force them last regardless of q
    zero = logp <= LOG2_ZERO
    ratio = np.subtract(logp, logq, out=logp if logq.ndim == 1 else None)
    ratio[..., zero] = -np.inf
    return stable_order(np.negative(ratio, out=ratio))


def _greedy_threshold(p_sorted: np.ndarray, target: float):
    """Accept prefix mass exactly `target` in each row of ``p_sorted``.

    Returns arrays (n_full, gamma, covered), one entry per row.  The cumsum
    is nondecreasing, so counting its entries below the target is a
    left-side ``searchsorted``.
    """
    rows, n = np.arange(len(p_sorted)), p_sorted.shape[1]
    cum = np.zeros((len(p_sorted), n + 1))  # cum[:, b] is the mass before cell b
    p_sorted.cumsum(axis=-1, out=cum[:, 1:])
    target = np.minimum(target, cum[:, -1])
    b = (cum[:, 1:] < (target - MASS_SLACK)[:, None]).sum(axis=-1)
    before = cum[rows, b]
    rest = target - before
    at = p_sorted[rows, np.minimum(b, n - 1)]
    # a fraction of cell b only where it exists and the rest is above slack
    gamma = np.divide(rest, at, out=np.zeros(len(b)), where=(b < n) & (rest > MASS_SLACK))
    np.minimum(gamma, 1.0, out=gamma)
    return b, gamma, before + gamma * at


def _np_tests(ps: np.ndarray, qs: np.ndarray, eps: float):
    """Neyman-Pearson tests on ratio-sorted rows: (n_full, gamma, covered, betas).

    Each beta sums its row's accepted prefix alone: numpy's pairwise sum
    depends on the length summed, so a masked full-row sum could differ in
    the last bit.
    """
    b, gamma, covered = _greedy_threshold(ps, 1.0 - eps)
    betas = []
    for qrow, n_full, g in zip(qs, b.tolist(), gamma.tolist()):
        beta = float(qrow[:n_full].sum())
        if g > 0:
            beta += g * float(qrow[n_full])
        betas.append(beta)
    return b, gamma, covered, betas


def _betas(p: np.ndarray, q_rows: np.ndarray, eps: float) -> list[float]:
    """beta_eps(p, q) for each row q of ``q_rows``.

    Equal, bit for bit, to ``beta_epsilon(P, Q, eps).beta`` of each row:
    one batched sort and one batched threshold.
    """
    order = _ratio_order(log2_pmf(p), log2_pmf(q_rows))
    ps, qs = p[order], q_rows[np.arange(len(q_rows))[:, None], order]
    return _np_tests(ps, qs, eps)[3]


def beta_epsilon(P: JointDist, Q: JointDist, eps: float) -> BetaCertificate:
    """Exact optimum of the type-II error linear program."""
    _check_same_shape(P, Q)
    if not 0.0 <= eps < 1.0:
        raise PreconditionError("eps must lie in [0, 1)")
    p, q = P.pmf, Q.pmf
    order = _ratio_order(log2_pmf(p), log2_pmf(q))
    b, gamma, covered, (beta,) = _np_tests(p[order][None], q[order][None], eps)
    b, gamma, covered = int(b[0]), float(gamma[0]), float(covered[0])
    log2_beta = math.log2(beta) if beta > 0 else -math.inf
    return BetaCertificate(
        beta=beta,
        log2_beta=log2_beta,
        eps=eps,
        order=order,
        n_full=b,
        gamma=gamma,
        type1_error=1.0 - covered,
    )


def _check_iid(P: JointDist, Q: JointDist, n: int, eps: float) -> None:
    _check_same_shape(P, Q)
    if len(P.vars) != 1:
        raise PreconditionError("IID variant expects one shared variable")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if not 0.0 <= eps < 1.0:
        raise PreconditionError("eps must lie in [0, 1)")


def beta_epsilon_iid(P: JointDist, Q: JointDist, n: int, eps: float) -> BetaCertificate:
    """beta_eps(P^n, Q^n) via type classes; equals the dense value exactly.

    The likelihood ratio depends on an outcome only through its empirical
    counts, so greedy acceptance at class granularity with one fractional
    class realizes the same optimum as outcome granularity.
    """
    _check_iid(P, Q, n, eps)
    counts, logp, logq = typeclass_table(P.pmf, Q.pmf, n)
    order = _ratio_order(logp.copy(), logq)  # it overwrites its logp
    ps = np.exp2(logp[order])
    logq_sorted = logq[order]
    b, gamma, covered = _greedy_threshold(ps[None], 1.0 - eps)
    b, gamma, covered = int(b[0]), float(gamma[0]), float(covered[0])
    # accumulate is sequential: its last entry over the b accepted classes
    # is entry b - 1 of the accumulate over all of them
    with np.errstate(invalid="ignore"):
        log2_beta = float(np.logaddexp2.accumulate(logq_sorted[:b])[-1]) if b else LOG2_ZERO
    if gamma > 0:
        log2_beta = float(np.logaddexp2(log2_beta, math.log2(gamma) + logq_sorted[b]))
    if log2_beta <= LOG2_ZERO / 2:
        log2_beta = -math.inf
    return BetaCertificate(
        beta=float(np.exp2(log2_beta)) if log2_beta > -math.inf else 0.0,
        log2_beta=log2_beta,
        eps=eps,
        order=order,
        n_full=b,
        gamma=gamma,
        type1_error=1.0 - covered,
        outcome_labels=np.take(counts, order, axis=0),
    )


@dataclass(frozen=True)
class TailBound:
    """Upper bound on -log2 beta_eps from the log-ratio tail probability."""

    value: float
    gamma: float | None
    feasible: bool


def default_gamma_grid(P: JointDist, Q: JointDist) -> np.ndarray:
    """Distinct finite log-ratio values plus midpoints."""
    p, q = P.pmf, Q.pmf
    mask = (p > 0) & (q > 0)
    vals = np.unique(np.log2(p[mask] / q[mask]))
    if vals.size == 0:
        return np.array([0.0])
    mids = (vals[:-1] + vals[1:]) / 2.0
    return np.unique(np.concatenate([vals, mids]))


def np_tail_bound(P: JointDist, Q: JointDist, eps: float, gammas=None) -> TailBound:
    """min over the grid of gamma - log2(Pr_P[log2 P/Q <= gamma] - eps).

    Sound upper bound on -log2 beta_eps(P, Q) for every grid; grid points
    with a nonpositive argument are skipped.  Returns +inf with a flag when
    the whole grid is infeasible.
    """
    _check_same_shape(P, Q)
    if gammas is None:
        gammas = default_gamma_grid(P, Q)
    gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    if gammas.size == 0:
        raise PreconditionError("gamma grid must be nonempty")
    p, q = P.pmf, Q.pmf
    ratio = log2_pmf(p) - log2_pmf(q)
    ratio[p == 0] = np.inf  # zero P-mass points never enter the tail
    best, best_gamma = math.inf, None
    for g in gammas:
        tail = float(p[ratio <= g].sum())
        if tail - eps <= 0:
            continue
        val = float(g - math.log2(tail - eps))
        if val < best:
            best, best_gamma = val, float(g)
    return TailBound(value=best, gamma=best_gamma, feasible=best < math.inf)


def renyi_beta_bound(
    P: JointDist, Q: JointDist, eps: float, eps_prime: float, alpha: float
) -> float:
    """Closed-form bound D_alpha + log2(1-eps-eps')/(1-alpha) - log2 eps'."""
    if alpha <= 1.0:
        raise PreconditionError("alpha must exceed 1")
    if eps_prime <= 0.0 or eps + eps_prime >= 1.0:
        raise PreconditionError("need eps' > 0 and eps + eps' < 1")
    d_alpha = divergence(P, Q, kind="renyi", alpha=alpha)
    return (
        d_alpha
        + math.log2(1.0 - eps - eps_prime) / (1.0 - alpha)
        - math.log2(eps_prime)
    )


def stein_scan(P: JointDist, Q: JointDist, eps: float, ns) -> list[tuple[int, float]]:
    """Table of (n, -(1/n) log2 beta_eps(P^n, Q^n)); converges to D(P||Q).

    Every n is checked, in order, before any type-class table is built.
    """
    ns = [int(n) for n in ns]
    for n in ns:
        _check_iid(P, Q, n, eps)
    return [(n, beta_epsilon_iid(P, Q, n, eps).neg_log2_beta / n) for n in ns]
