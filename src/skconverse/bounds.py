"""Converse bounds and necessary conditions for key agreement primitives.

Every bound is reported together with the intermediate quantities (optimal
type-II error, smooth max-divergence, entropies) so that the stated value can
be recomputed from the report.  Slack parameters are caller-supplied and
validated; ``even_slack_split`` provides the documented default split of the
available budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import CapExceededError, PreconditionError
from .hyptest import _betas, _greedy_threshold, _ratio_order, beta_epsilon
from .probcore import (
    Channel,
    JointDist,
    _block_masks,
    _chunk_rows,
    _kl_rows,
    _q_pi_rows,
    conditional_family,
    conditional_product,
    entropy,
    extend_with_channel,
    factorizes,
    log2_pmf,
    marginal,
    mutual_information,
    pushforward_function,
)
from .smoothinfo import d_max, d_max_smooth, h_min_smooth
from .structure import (
    Labeling,
    Partition,
    _check_party_count,
    _partition_count,
    _partition_labels,
    _partition_masks,
    _partition_of,
    attach_label,
    mcf,
    mss,
)

_TOL = 1e-12

#: most ``per_partition`` rows of a check report over all partitions: a row
#: holds about 0.8 KB of Python objects, so a report at the cap about 0.8 GB
ROW_CAP = 1_000_000


class _Report:
    """JSON form of a report dataclass: its fields in order, then ``ok``.

    A partition is written as its string, a dict as a copy, a nested report
    by its own ``as_json``, and the field ``lam`` under the name "lambda".
    """

    def as_json(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, Partition):
                v = str(v)
            elif isinstance(v, dict):
                v = dict(v)
            elif isinstance(v, _Report):
                v = v.as_json()
            out["lambda" if f.name == "lam" else f.name] = v
        if hasattr(self, "ok"):
            out.setdefault("ok", self.ok)
        return out


@dataclass(frozen=True)
class BoundReport(_Report):
    """A bound value plus everything needed to recompute it."""

    kind: str
    value: float
    params: dict = field(default_factory=dict)
    partition: Partition | None = None
    intermediates: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckReport(_Report):
    """Verdict of a necessary-condition check; failure is data, not error.

    ``per_partition`` holds one (label, rhs, slack) row per partition
    checked, the label written as ``str`` of the partition.
    """

    passed: bool
    lhs: float
    rhs: float
    slack: float
    partition: Partition | None
    per_partition: tuple
    params: dict = field(default_factory=dict)

    def as_json(self) -> dict:
        out = super().as_json()
        out["per_partition"] = [
            {"partition": p, "rhs": r, "slack": s} for p, r, s in self.per_partition
        ]
        return out


def _z_names(J: JointDist, z=None) -> list[str]:
    if z is None:
        return [J.eve] if J.eve is not None else []
    if isinstance(z, str):
        return [z]
    return list(z)


def _party_vars(J: JointDist, z_names: Sequence[str]) -> list[str]:
    return [n for n in J.var_names if n not in set(z_names)]


def _partition_scan(J: JointDist, zs: Sequence[str], m: int,
                    partition: Partition | None = None, table: np.ndarray | None = None):
    """Q^pi of every partition of m parties given ``zs``, a chunk at a time.

    Yields (masks, rows) pairs: ``masks`` holds one row of block bitmasks
    per partition (see ``structure._partition_masks``), in
    ``enum_partitions`` order or only ``partition``'s, and ``rows(keep,
    cells)`` builds the pmf rows of the Q^pi of ``masks[keep]`` (all rows by
    default) on J's flat cells ``cells`` (all by default), equal bit for bit
    to ``conditional_product``'s.  ``table`` maps each set of parties (a
    bitmask) to the bitmask of J's non-``zs`` variables they observe; by
    default party i is variable i.  A chunk holds at most 2^16 cells of
    Q^pi, or one row.
    """
    build = _q_pi_rows(J, zs)
    if partition is not None:
        chunks = [np.array([_block_masks(partition, m)])]
    else:
        chunks = _partition_masks(m, _chunk_rows(J.n_cells))

    def rows(bits: np.ndarray):
        return lambda keep=slice(None), cells=None: build(bits[keep], cells)

    return ((masks, rows(masks if table is None else table[masks])) for masks in chunks)


def _given_rows(q: np.ndarray):
    """The ``rows`` of a ``_partition_scan`` chunk whose Q^pi pmfs ``q`` are built."""
    return lambda keep=slice(None), cells=None: q[keep][:, slice(None) if cells is None else cells]


def _num_blocks(masks: np.ndarray) -> np.ndarray:
    return np.count_nonzero(masks, axis=1)


def _check_cit_slacks(eps: float, eta: float) -> None:
    if not 0.0 <= eps < 1.0:
        raise PreconditionError("eps must lie in [0, 1)")
    if not 0.0 < eta < 1.0 - eps:
        raise PreconditionError("need 0 < eta < 1 - eps")


def _cit_value(neg_log2_beta, num_blocks, eta: float):
    """(1/(|pi|-1)) * [ -log2 beta + |pi| log2(1/eta) ].

    Takes floats or arrays; an array entry gets the same float operations
    as a float would.
    """
    return (neg_log2_beta + num_blocks * math.log2(1.0 / eta)) / (num_blocks - 1)


def _neg_log2(beta: float) -> float:
    return -math.log2(beta) if beta > 0 else math.inf


# ---------------------------------------------------------------------------
# secret key agreement


def cit_bound(
    J: JointDist,
    partition: Partition,
    eps: float,
    eta: float,
    z=None,
    q: JointDist | None = None,
) -> BoundReport:
    """Conditional independence testing bound on the secret key length.

    (1/(|pi|-1)) * [ -log2 beta_{eps+eta}(P, Q^pi) + |pi| log2(1/eta) ],
    where Q^pi conditionally factorizes across the partition given Z.  The
    default Q^pi is the conditional product induced by P itself; a supplied
    Q is validated against the factorization test.
    """
    _check_cit_slacks(eps, eta)
    zs = _z_names(J, z)
    parties = _party_vars(J, zs)
    if partition.m != len(parties):
        raise PreconditionError(
            f"partition is over {partition.m} parties but J has {len(parties)}"
        )
    if q is None:
        scan = _partition_scan(J, zs, len(parties), partition)
        return _least_cit(J, len(parties), zs, eps, eta, scan)
    if q.vars != J.vars:
        raise PreconditionError("supplied Q has a different variable structure")
    if not factorizes(q, partition, zs if zs else None):
        raise PreconditionError(
            "supplied Q fails the conditional factorization test"
        )
    masks = np.array([_block_masks(partition, len(parties))])
    return _least_cit(J, len(parties), zs, eps, eta, [(masks, _given_rows(q.pmf[None]))])


def cit_bound_best(J: JointDist, eps: float, eta: float) -> BoundReport:
    """Minimum of the testing bound over all partitions (default Q each).

    Conditions on ``J.eve`` if set.  The first partition with the least
    value wins.
    """
    zs = _z_names(J)
    m = len(J.vars) - len(zs)
    scan = _partition_scan(J, zs, m)
    _check_cit_slacks(eps, eta)
    return _least_cit(J, m, zs, eps, eta, scan)


def _slack_test(p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """The sorted cells of the Neyman-Pearson test of p against the row q at
    level max(0, eps - 1e-9), its boundary cell accepted in full.  Its
    P-mass is at least 1 - eps: the slack is far above the rounding of the
    prefix sums.
    """
    order = _ratio_order(log2_pmf(p), log2_pmf(q))
    b = int(_greedy_threshold(p[order][None], 1.0 - max(0.0, eps - 1e-9))[0][0])
    return np.sort(order[:b + 1])


def _cit_floor(q_on_t: np.ndarray, num_blocks, eta: float) -> np.ndarray:
    """A lower bound on the ``_cit_value`` of each Q^pi row, from its pmf
    ``q_on_t`` on the cells of a test T of P-mass at least 1 - eps - eta:
    beta <= Q(T).  The factor 1 + 1e-12 covers the rounding of both sums
    (float beta was measured at most 1.3e-14 above the exact one); the
    caller's 1e-6 margin, any more."""
    with np.errstate(divide="ignore"):
        return _cit_value(-np.log2(q_on_t.sum(axis=1) * (1 + 1e-12)), num_blocks, eta)


def _least_cit(J: JointDist, m: int, zs: list[str], eps: float, eta: float, scan) -> BoundReport:
    """The ``cit_bound`` report of the first least row of the (masks, rows)
    chunks of ``scan`` (partitions of {1..m}, ``_partition_scan`` rows over
    J's cells), written from the beta its test found.

    The first chunk is tested in full.  A later row reaches ``_betas`` only
    if its ``_cit_floor`` on the cells of the running winner's
    ``_slack_test`` is at most best + 1e-6 max(1, |best|): a row above that
    is above the best, so it can be neither the least row nor tied with it.
    A later chunk's rows are built on those cells, and in full only for the
    rows that reach ``_betas``.
    """
    best = cells = None
    for masks, rows in scan:
        l = _num_blocks(masks)
        if best is None:
            q = rows()
        else:
            if cells is None:
                cells = _slack_test(J.pmf, winner[1], eps + eta)
            keep = _cit_floor(rows(cells=cells), l, eta) <= best + 1e-6 * max(1.0, abs(best))
            if not keep.any():
                continue
            masks, q, l = masks[keep], rows(keep), l[keep]
        chunk = _betas(J.pmf, q, eps + eta)
        values = _cit_value(np.array([_neg_log2(beta) for beta in chunk]), l, eta)
        i = int(np.argmin(values))
        if best is None or values[i] < best:
            best, beta, winner, cells = values[i], chunk[i], (masks[i], q[i]), None
    partition = _partition_of(winner[0].tolist(), m)
    nlb = _neg_log2(beta)
    l = partition.num_blocks
    return BoundReport(
        kind="cit",
        value=_cit_value(nlb, l, eta),
        params={"eps": eps, "eta": eta, "z": zs},
        partition=partition,
        intermediates={
            "neg_log2_beta": nlb,
            "beta": beta,
            "eps_plus_eta": eps + eta,
            "num_blocks": l,
        },
    )


def sk_capacity_formula(J: JointDist) -> tuple[float, Partition]:
    """min over partitions of D(P || product of block marginals)/(|pi|-1).

    Valid when the eavesdropper has no side information (no eve variable).
    Scanning the partitions in ``enum_partitions`` order, a value is taken
    when it is below the best so far by more than 1e-12; each value is a
    ``_kl_rows`` divergence of the partition's Q^pi.  Only partitions that
    pass the screen of ``_least_kl`` are tested: its skips cannot change
    the winner.
    """
    if J.eve is not None:
        raise PreconditionError(
            "capacity formula requires constant eavesdropper side information"
        )
    m = len(J.vars)
    _check_party_count(m)
    h = _subset_entropies(J)
    found = _least_kl(J, h, 1e-9 * max(1.0, h[1 << np.arange(m)].sum()))
    if found is None:
        found = _least_kl(J, h, math.inf)
    best_val, best = found
    return best_val, None if best is None else _partition_of(best, m)


def _subset_entropies(J: JointDist) -> np.ndarray:
    """H(X_S) in bits of each set S of J's variables, indexed by its bitmask
    (bit i for the i-th variable); 0 for the empty set.

    Each marginal sums one axis of a marginal on one more variable, so only
    a chain of at most m marginals is held at a time.
    """
    h = np.zeros(1 << len(J.vars))

    def visit(arr: np.ndarray, mask: int, below: int) -> None:
        p = arr[arr > 0]
        h[mask] = -(p * np.log2(p)).sum()
        for i in range(below):  # drop variable i; the set's axes are its bits in order
            if mask >> i & 1 and mask != 1 << i:
                visit(arr.sum(axis=(mask & ((1 << i) - 1)).bit_count()), mask ^ 1 << i, i)

    visit(J.array(), len(h) - 1, len(J.vars))
    return h


def _least_kl(J: JointDist, h: np.ndarray, margin: float):
    """The capacity scan's (best value, block masks of its partition), or
    None if a tested Q^pi is 0 where P is not.

    A partition's screen is (h summed over its blocks - h[all]) / (|pi| - 1).
    If P sums to s, its value is its screen plus s log2 s, up to rounding
    (measured below 1e-15 (1 + h summed over single variables)) that
    ``margin`` must exceed twice.  A row is tested only if its screen is at
    most the least screen so far, its own included, plus ``margin``.  A
    skipped row r would not have been taken: the earlier row j of that least
    screen was tested, so the best before r is at most value(j) + 1e-12,
    while value(r) exceeds value(j).  A Q^pi that underflows to 0 where
    P > 0 gives an infinite value, not near its screen; then the caller
    scans again with an infinite margin, which tests every row.
    """
    build, rows = _q_pi_rows(J, []), _chunk_rows(J.n_cells)
    best_val, best, low = math.inf, None, math.inf
    for masks in _partition_masks(len(J.vars), 1 << 12):
        l = _num_blocks(masks)
        screen = (h[masks].sum(axis=1) - h[-1]) / (l - 1)
        least = np.minimum.accumulate(np.concatenate([[low], screen]))
        kept = np.flatnonzero(screen <= least[1:] + margin)
        low = least[-1]
        for at in range(0, kept.size, rows):  # Q^pi rows a chunk at a time
            sel = kept[at:at + rows]
            kls = _kl_rows(J.pmf, build(masks[sel]))
            for row, k, kl in zip(masks[sel].tolist(), l[sel].tolist(), kls):
                if kl == math.inf and margin < math.inf:
                    return None
                val = kl / (k - 1)
                if val < best_val - _TOL:
                    best_val, best = val, row
    return best_val, best


def aux_singleshot_bound(
    J: JointDist, u_channel: Channel, eps: float, delta: float, eta: float,
    eta1: float, eta2: float,
) -> BoundReport:
    """Single-shot key-length bound with a user-supplied auxiliary channel.

    -log2 beta_{eps+2delta+eta}(P_{X1 X2 Z U}, P_{X1|ZU} P_{X2 Z U})
      + D_max^{eta1}(P_{X1 X2 Z U} || P_{X1 X2 Z} P_{U|Z})
      + 4 log2(1/(eta - eta1 - eta2)) + 1,
    with U generated by composing the channel onto J and Z = ``J.eve`` if
    set.  The output is an upper bound for the given auxiliary channel; no
    optimization over U.
    """
    if eps < 0 or delta < 0 or eps + 2 * delta >= 1:
        raise PreconditionError("need eps, delta >= 0 with eps + 2*delta < 1")
    if not (0 <= eta1 and 0 <= eta2 and eta1 + eta2 < eta < 1 - eps - 2 * delta):
        raise PreconditionError("need 0 <= eta1 + eta2 < eta < 1 - eps - 2*delta")
    zs = _z_names(J)
    parties = _party_vars(J, zs)
    if len(parties) != 2:
        raise PreconditionError("this bound is for two parties")
    J2 = extend_with_channel(J, u_channel)
    u_names = [n for n, _ in u_channel.out_vars]
    cond_vars = zs + u_names
    pi2 = Partition((frozenset([1]), frozenset([2])), 2)
    q_beta = conditional_product(J2, pi2, cond_vars)
    cert = beta_epsilon(J2, q_beta, eps + 2 * delta + eta)
    base = marginal(J2, parties + zs)
    u_given_z = conditional_family(J2, u_names, zs)
    q_dmax = extend_with_channel(base, u_given_z)
    if eta1 > 0:
        dterm = d_max_smooth(J2, q_dmax, eta1).value
    else:
        dterm = d_max(J2, q_dmax)
    tail = 4 * math.log2(1.0 / (eta - eta1 - eta2)) + 1.0
    value = cert.neg_log2_beta + dterm + tail
    return BoundReport(
        kind="aux_singleshot",
        value=value,
        params={
            "eps": eps,
            "delta": delta,
            "eta": eta,
            "eta1": eta1,
            "eta2": eta2,
            "z": zs,
            "u": u_names,
        },
        intermediates={
            "neg_log2_beta": cert.neg_log2_beta,
            "dmax_term": dterm,
            "tail_term": tail,
        },
    )


def aux_capacity_bound(J: JointDist, u_channel: Channel) -> float:
    """I(X1; X2 | U) + I(X1, X2; U | Z) in bits, Z = ``J.eve`` if set."""
    zs = _z_names(J)
    parties = _party_vars(J, zs)
    if len(parties) != 2:
        raise PreconditionError("this bound is for two parties")
    J2 = extend_with_channel(J, u_channel)
    u_names = [n for n, _ in u_channel.out_vars]
    first = mutual_information(J2, [parties[0]], [parties[1]], given=u_names)
    second = mutual_information(J2, parties, u_names, given=zs if zs else None)
    return first + second


# ---------------------------------------------------------------------------
# oblivious transfer and bit commitment


def _two_party_names(J: JointDist) -> tuple[str, str]:
    if len(J.vars) != 2:
        raise PreconditionError("expected a bivariate distribution (X1, X2)")
    return J.var_names[0], J.var_names[1]


def duplicated_statistic_joint(J: JointDist, lab: Labeling) -> tuple[JointDist, JointDist]:
    """The pair (P_{V V X2}, P_{V|X2} P_{V|X2} P_{X2}) for a statistic of X1.

    The first places identical copies of the statistic on two coordinates;
    the second draws the two copies independently given X2.
    """
    x1, x2 = _two_party_names(J)
    JV = attach_label(J, lab, "_V")
    pv_x2 = marginal(JV, ["_V", x2])
    arr = np.transpose(pv_x2.array(), (pv_x2.axis("_V"), pv_x2.axis(x2)))
    k, n2 = arr.shape
    px2 = arr.sum(axis=0)
    rows = np.zeros_like(arr)
    pos = px2 > 0
    rows[:, pos] = arr[:, pos] / px2[pos]

    p_dup = np.zeros((k, k, n2))
    for v in range(k):
        p_dup[v, v, :] = arr[v, :]
    q_dup = rows[:, None, :] * rows[None, :, :] * px2[None, None, :]

    v_alpha = lab.label_alphabet()
    vars3 = (
        ("V1", v_alpha),
        ("V1b", v_alpha),
        (x2, J.alphabet(x2)),
    )
    return (
        JointDist(vars3, p_dup.reshape(-1)),
        JointDist(vars3, q_dup.reshape(-1)),
    )


def _check_ot_bc_params(eps: float, delta1: float, delta2: float, xi: float) -> None:
    if xi <= 0:
        raise PreconditionError("xi must be positive")
    if min(eps, delta1, delta2) < 0:
        raise PreconditionError("error parameters must be nonnegative")


def _duplicated_statistic_test(J: JointDist, eta: float):
    """(mss of X1 for X2, beta_eta certificate of its duplicated-statistic joint)."""
    x1, x2 = _two_party_names(J)
    lab1 = mss(J, given=x1, target=x2)
    p_dup, q_dup = duplicated_statistic_joint(J, lab1)
    return lab1, beta_epsilon(p_dup, q_dup, eta)


def ot_bounds(
    J: JointDist, eps: float, delta1: float, delta2: float, xi: float
) -> BoundReport:
    """Both single-shot bounds on oblivious transfer length, and their min.

    bound1 tests P_{X1 X2 V0} against P_{X1|V0} P_{X2|V0} P_{V0} with V0 the
    maximum common function; bound2 tests the duplicated minimum sufficient
    statistic joint.  Both use type-I budget eta = eps + delta1 + 2*delta2 + xi.
    """
    _check_ot_bc_params(eps, delta1, delta2, xi)
    eta = eps + delta1 + 2 * delta2 + xi
    if eta >= 1:
        raise PreconditionError("need eps + delta1 + 2*delta2 + xi < 1")
    x1, x2 = _two_party_names(J)
    two_log_xi = 2 * math.log2(1.0 / xi)

    lab0, _ = mcf(J, x1, x2)
    JV0 = attach_label(J, lab0, "V0")
    pi2 = Partition((frozenset([1]), frozenset([2])), 2)
    q1 = conditional_product(JV0, pi2, "V0")
    cert1 = beta_epsilon(JV0, q1, eta)
    bound1 = cert1.neg_log2_beta + two_log_xi

    lab1, cert2 = _duplicated_statistic_test(J, eta)
    bound2 = cert2.neg_log2_beta + two_log_xi

    return BoundReport(
        kind="ot",
        value=min(bound1, bound2),
        params={"eps": eps, "delta1": delta1, "delta2": delta2, "xi": xi, "eta": eta},
        intermediates={
            "bound1": bound1,
            "bound2": bound2,
            "neg_log2_beta_1": cert1.neg_log2_beta,
            "neg_log2_beta_2": cert2.neg_log2_beta,
            "mcf_labels": lab0.num_labels,
            "mss_labels": lab1.num_labels,
        },
    )


def ot_capacity_bound(J: JointDist) -> float:
    """min{ I(X1; X2 | V0), H(V1 | X2) } in bits."""
    x1, x2 = _two_party_names(J)
    lab0, _ = mcf(J, x1, x2)
    JV0 = attach_label(J, lab0, "V0")
    first = mutual_information(JV0, [x1], [x2], given=["V0"])
    return min(first, bc_capacity_bound(J))


def bc_bound(
    J: JointDist, eps: float, delta1: float, delta2: float, xi: float
) -> BoundReport:
    """Single-shot bound on bit commitment length.

    Tests the duplicated minimum-sufficient-statistic joint at type-I budget
    eta = eps + delta1 + delta2 + xi.
    """
    _check_ot_bc_params(eps, delta1, delta2, xi)
    if eps + delta1 + delta2 >= 1:
        raise PreconditionError("need eps + delta1 + delta2 < 1")
    eta = eps + delta1 + delta2 + xi
    if eta >= 1:
        raise PreconditionError("need eps + delta1 + delta2 + xi < 1")
    lab1, cert = _duplicated_statistic_test(J, eta)
    value = cert.neg_log2_beta + 2 * math.log2(1.0 / xi)
    return BoundReport(
        kind="bc",
        value=value,
        params={"eps": eps, "delta1": delta1, "delta2": delta2, "xi": xi, "eta": eta},
        intermediates={
            "neg_log2_beta": cert.neg_log2_beta,
            "mss_labels": lab1.num_labels,
        },
    )


def bc_capacity_bound(J: JointDist) -> float:
    """H(V1 | X2) in bits, V1 the minimum sufficient statistic of X1 for X2."""
    x1, x2 = _two_party_names(J)
    lab1 = mss(J, given=x1, target=x2)
    JV1 = attach_label(J, lab1, "V1")
    return entropy(JV1, ["V1", x2]) - entropy(JV1, [x2])


# ---------------------------------------------------------------------------
# secure computing by trusted parties


def _secure_mu(
    eps: float, delta: float, xi: float, zeta: float, eta: float, kappa: float = 0.0
) -> float:
    """mu = eps + delta + 2 xi + zeta + eta, once every parameter is checked."""
    if min(xi, zeta, eta) <= 0:
        raise PreconditionError("xi, zeta, eta must be positive")
    if min(eps, delta) < 0:
        raise PreconditionError("eps and delta must be nonnegative")
    if kappa < 0:
        raise PreconditionError("kappa must be nonnegative")
    mu = eps + delta + 2 * xi + zeta + eta
    if mu >= 1:
        raise PreconditionError("need eps + delta + 2*xi + zeta + eta < 1")
    return mu


def sc_necessary_check(
    J: JointDist,
    g,
    eps: float,
    delta: float,
    xi: float,
    zeta: float,
    eta: float,
    partition: Partition | None = None,
) -> CheckReport:
    """Necessary condition for (eps, delta)-secure computability of g.

    Compares H_min^xi of the function's law against, per partition,
    (1/(|pi|-1)) [ -log2 beta_mu(P, Q^pi) + |pi| log2(1/eta) ]
      + 2 log2(1/(2 zeta)) + 1,       mu = eps + delta + 2 xi + zeta + eta.
    A violation for any partition certifies that g is not securely
    computable; check failure is a verdict, not an error.
    """
    mu = _secure_mu(eps, delta, xi, zeta, eta)
    if J.eve is not None:
        raise PreconditionError("secure computing check expects no eve variable")
    m = len(J.vars)
    if partition is None:
        _check_party_count(m)
        count = _partition_count(m)
        if count > ROW_CAP:  # refused before any row is computed
            raise CapExceededError(f"{count} partition rows exceed the cap {ROW_CAP}")
    p_g = pushforward_function(J, g)
    lhs = h_min_smooth(p_g, xi).value
    extra = 2 * math.log2(1.0 / (2 * zeta)) + 1.0
    labels, rhss, masks_seen = [], [], []
    for masks, rows in _partition_scan(J, [], m, partition):
        nlbs = np.array([_neg_log2(beta) for beta in _betas(J.pmf, rows(), mu)])
        rhss.append(_cit_value(nlbs, _num_blocks(masks), eta) + extra)
        labels += _partition_labels(masks, m)
        masks_seen.append(masks)
    rhs = np.concatenate(rhss)
    slack = rhs - lhs
    worst = int(np.argmin(slack))
    rows = tuple(zip(labels, rhs.tolist(), slack.tolist()))
    return CheckReport(
        passed=rows[worst][2] >= -_TOL,
        lhs=lhs,
        rhs=rows[worst][1],
        slack=rows[worst][2],
        partition=_partition_of(np.concatenate(masks_seen)[worst].tolist(), m),
        per_partition=rows,
        params={
            "eps": eps, "delta": delta, "xi": xi, "zeta": zeta, "eta": eta, "mu": mu,
        },
    )


def secure_transmission_check(
    P_M: JointDist,
    kappa: float,
    eps: float,
    delta: float,
    xi: float,
    zeta: float,
    eta: float,
) -> CheckReport:
    """Necessary condition for (eps, delta)-secure transmission of M.

    Checks H_min^xi(P_M) <= kappa + 2 log2(1/eta) + log2(1/(1-mu))
                              + 2 log2(1/(2 zeta)) + 1.
    A failed check certifies that no (eps, delta)-secure transmission of M
    with a kappa-bit key exists; a passing check certifies nothing.
    """
    mu = _secure_mu(eps, delta, xi, zeta, eta, kappa)
    lhs = h_min_smooth(P_M, xi).value
    rhs = (
        kappa
        + 2 * math.log2(1.0 / eta)
        + math.log2(1.0 / (1.0 - mu))
        + 2 * math.log2(1.0 / (2 * zeta))
        + 1.0
    )
    return CheckReport(
        passed=lhs <= rhs + _TOL,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        partition=None,
        per_partition=(),
        params={
            "kappa": kappa, "eps": eps, "delta": delta,
            "xi": xi, "zeta": zeta, "eta": eta, "mu": mu,
        },
    )


def even_slack_split(eps: float, delta: float) -> dict:
    """Default slack assignment: split 0.9 of 1 - eps - delta evenly
    across the three remaining budget consumers (2*xi, zeta, eta)."""
    budget = 1.0 - eps - delta
    if budget <= 0:
        raise PreconditionError("eps + delta must be below 1")
    share = 0.9 * budget / 3.0
    return {"xi": share / 2.0, "zeta": share, "eta": share}
