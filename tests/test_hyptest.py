import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skconverse import (
    Alphabet,
    JointDist,
    PreconditionError,
    beta_epsilon,
    beta_epsilon_iid,
    divergence,
    iid_extend,
    np_tail_bound,
    renyi_beta_bound,
    stein_scan,
)
from skconverse import hyptest
from skconverse._typeclasses import compositions, typeclass_table
from skconverse.errors import CapExceededError
from skconverse.hyptest import default_gamma_grid
from skconverse.probcore import _BLOCK_CELLS, LOG2_ZERO, Channel, _chunk_rows
from skconverse.smoothinfo import d_max
from support import (
    apply_channel,
    ber,
    beta_lp_oracle,
    beta_oracle,
    compositions_oracle,
    int_weight_pairs,
    int_weight_pmfs,
    one_var_dist,
    random_dist,
)


def test_beta_self_is_one_minus_eps():
    rng = np.random.default_rng(2)
    for eps in (0.0, 0.1, 0.3):
        P = random_dist(rng, [5])
        cert = beta_epsilon(P, P, eps)
        assert abs(cert.beta - (1 - eps)) <= 1e-12


def test_beta_zero_full_support_is_one():
    rng = np.random.default_rng(3)
    P, Q = random_dist(rng, [4]), random_dist(rng, [4])
    assert abs(beta_epsilon(P, Q, 0.0).beta - 1.0) <= 1e-12


def test_beta_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(7)
    for trial in range(60):
        k = int(rng.integers(2, 7))
        P = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        Q = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        for eps in (0.0, 0.1, 0.3):
            got = beta_epsilon(P, Q, eps).beta
            want = beta_oracle(P, Q, eps)
            assert abs(got - want) <= 1e-9, (trial, eps)


def test_certificate_reconstruction():
    rng = np.random.default_rng(13)
    for _ in range(20):
        P, Q = random_dist(rng, [6]), random_dist(rng, [6])
        eps = float(rng.uniform(0.05, 0.4))
        cert = beta_epsilon(P, Q, eps)
        t = cert.test_vector()
        assert float(P.pmf @ t) >= 1 - eps - 1e-12
        assert abs(float(Q.pmf @ t) - cert.beta) <= 1e-12
        if 0 < cert.gamma < 1:
            # fractional boundary meets the type-I constraint exactly
            assert abs(float(P.pmf @ t) - (1 - eps)) <= 1e-12


def test_beta_monotone_in_eps():
    rng = np.random.default_rng(23)
    P, Q = random_dist(rng, [5]), random_dist(rng, [5])
    values = [beta_epsilon(P, Q, e).beta for e in np.linspace(0, 0.9, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_beta_data_processing():
    rng = np.random.default_rng(29)
    for _ in range(100):
        P, Q = random_dist(rng, [4]), random_dist(rng, [4])
        rows = {}
        for i in range(4):
            r = rng.random(3) + 0.01
            rows[(i,)] = r / r.sum()
        W = Channel(P.vars, (("Y", Alphabet(("0", "1", "2"))),), rows)
        eps = float(rng.uniform(0, 0.5))
        before = beta_epsilon(P, Q, eps).beta
        after = beta_epsilon(apply_channel(P, W), apply_channel(Q, W), eps).beta
        assert before <= after + 1e-12


_EPS = st.floats(0.0, 0.99)


@settings(max_examples=200, deadline=None)
@given(int_weight_pairs(), _EPS, _EPS)
def test_beta_monotone_in_eps_property(pair, e1, e2):
    P, Q = pair
    lo, hi = sorted((e1, e2))
    assert beta_epsilon(P, Q, lo).beta >= beta_epsilon(P, Q, hi).beta - 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(int_weight_pmfs), _EPS)
def test_beta_against_itself_property(pmf, eps):
    P = one_var_dist(pmf)
    assert abs(beta_epsilon(P, P, eps).beta - (1.0 - eps)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(int_weight_pairs(), st.integers(1, 5), st.data(), _EPS)
def test_beta_data_processing_property(pair, n_out, data, eps):
    P, Q = pair
    rows = {(i,): data.draw(int_weight_pmfs(n_out)) for i in range(P.n_cells)}
    out = (("Y", Alphabet(tuple(str(j) for j in range(n_out)))),)
    W = Channel(P.vars, out, rows)
    before = beta_epsilon(P, Q, eps).beta
    after = beta_epsilon(apply_channel(P, W), apply_channel(Q, W), eps).beta
    assert before <= after + 1e-12


def test_no_dispersion_exactness():
    # P/Q ratio constant 2 on supp(P): beta = (1-eps) 2^-1 exactly
    five = Alphabet(tuple("abcde"))
    P = JointDist((("X", five),), [0.25, 0.25, 0.25, 0.25, 0.0])
    Q = JointDist((("X", five),), [0.125, 0.125, 0.125, 0.125, 0.5])
    for eps in (0.0, 0.1, 0.35):
        cert = beta_epsilon(P, Q, eps)
        assert abs(cert.beta - (1 - eps) * 0.5) <= 1e-12
        assert abs(cert.neg_log2_beta - (1.0 + math.log2(1 / (1 - eps)))) <= 1e-12


def test_iid_n1_and_dense_agreement():
    P, Q = ber(0.3), ber(0.5)
    c1 = beta_epsilon_iid(P, Q, 1, 0.2)
    assert abs(c1.beta - beta_epsilon(P, Q, 0.2).beta) <= 1e-12
    for eps in (0.0, 0.1, 0.3):
        via_types = beta_epsilon_iid(P, Q, 10, eps)
        dense = beta_epsilon(iid_extend(P, 10), iid_extend(Q, 10), eps)
        assert abs(via_types.beta - dense.beta) <= 1e-12


def test_iid_dense_agreement_ternary():
    rng = np.random.default_rng(41)
    P, Q = random_dist(rng, [3]), random_dist(rng, [3])
    got = beta_epsilon_iid(P, Q, 5, 0.15)
    dense = beta_epsilon(iid_extend(P, 5), iid_extend(Q, 5), 0.15)
    assert abs(got.beta - dense.beta) <= 1e-12


def test_iid_dense_agreement_at_half_a_million_cells():
    # k = 3, n = 12: 3^12 = 531,441 dense cells against 91 type classes
    rng = np.random.default_rng(43)
    P, Q = random_dist(rng, [3]), random_dist(rng, [3])
    Pn, Qn = iid_extend(P, 12), iid_extend(Q, 12)
    for eps in (0.0, 0.05, 0.3):
        via_types = beta_epsilon_iid(P, Q, 12, eps)
        dense = beta_epsilon(Pn, Qn, eps)
        assert abs(via_types.beta - dense.beta) <= 1e-9 * dense.beta
        assert abs(via_types.type1_error - dense.type1_error) <= 1e-9


def test_beta_matches_lp_oracle():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(47)
    for trial in range(40):
        k = int(rng.integers(2, 9))
        P = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        Q = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        eps = float(rng.uniform(0.0, 0.5))
        assert abs(beta_epsilon(P, Q, eps).beta - beta_lp_oracle(P, Q, eps)) <= 1e-9, trial


def test_compositions_match_product_oracle():
    for n, k in [(0, 1), (7, 1), (0, 2), (0, 4), (1, 3), (5, 2), (6, 3), (9, 4), (6, 5)]:
        got = compositions(n, k)
        want = compositions_oracle(n, k)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want), (n, k)


def test_certificate_arrays_read_only():
    rng = np.random.default_rng(71)
    P, Q = random_dist(rng, [3]), random_dist(rng, [3])
    dense = beta_epsilon(iid_extend(P, 4), iid_extend(Q, 4), 0.1)
    iid = beta_epsilon_iid(P, Q, 4, 0.1)
    assert dense.outcome_labels is None
    assert np.array_equal(iid.outcome_labels, compositions(4, 3)[iid.order])
    for arr in (dense.order, iid.order, iid.outcome_labels):
        assert arr.dtype == np.int64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_certificate_equality_and_hash():
    rng = np.random.default_rng(73)
    P, Q = random_dist(rng, [3]), random_dist(rng, [3])
    for make in (
        lambda eps: beta_epsilon(iid_extend(P, 3), iid_extend(Q, 3), eps),
        lambda eps: beta_epsilon_iid(P, Q, 3, eps),
    ):
        a, b, other = make(0.1), make(0.1), make(0.2)
        assert a == b and hash(a) == hash(b)
        assert a != other and a != "certificate"
        assert len({a, b, other}) == 2
        assert np.array_equal(a.test_vector(), b.test_vector())
    # same scalars and order, different class labels: not equal
    cert = beta_epsilon_iid(P, Q, 3, 0.1)
    relabeled = dataclasses.replace(cert, outcome_labels=cert.outcome_labels[::-1].copy())
    assert cert != relabeled
    # the type-class test vector has one entry per class, and its P-mass
    # over the classes is the covered mass
    _, logp, _ = typeclass_table(P.pmf, Q.pmf, 3)
    t = cert.test_vector()
    assert t.size == logp.size
    assert abs(float(np.exp2(logp) @ t) - (1 - cert.type1_error)) <= 1e-12


def test_iid_log2_beta_is_entry_b_minus_1_of_the_full_accumulate():
    # beta sums Q over the accepted classes only; accumulate is sequential,
    # so that is entry b - 1 of the accumulate over every class
    rng = np.random.default_rng(91)
    x = rng.normal(-20.0, 8.0, 300)
    full = np.logaddexp2.accumulate(x)
    for b in range(1, x.size + 1):
        assert np.logaddexp2.accumulate(x[:b])[-1] == full[b - 1], b
    cases = [
        (ber(0.9), ber(0.1), 1, 0.5, 0),  # the first class alone covers 1 - eps
        (ber(0.5), ber(0.5), 3, 0.0, 3),  # every class but the last in full
        (ber(0.3), ber(0.6), 40, 0.1, None),
        (one_var_dist([0.5, 0.3, 0.2, 0.0]), one_var_dist([0.0, 0.2, 0.3, 0.5]), 12, 0.05, None),
    ]
    for P, Q, n, eps, b_want in cases:
        cert = beta_epsilon_iid(P, Q, n, eps)
        _, _, logq = typeclass_table(P.pmf, Q.pmf, n)
        logq_sorted = logq[cert.order]
        b = cert.n_full
        assert b_want is None or b == b_want
        with np.errstate(invalid="ignore"):
            prefix = np.logaddexp2.accumulate(logq_sorted)
        want = float(prefix[b - 1]) if b > 0 else LOG2_ZERO
        if cert.gamma > 0:
            want = float(np.logaddexp2(want, math.log2(cert.gamma) + logq_sorted[b]))
        if want <= LOG2_ZERO / 2:
            want = -math.inf
        assert cert.log2_beta == want, (n, eps)
        assert np.array_equal(cert.outcome_labels, compositions(n, P.n_cells)[cert.order])
        assert cert.outcome_labels.dtype == np.int64


def _test_betas_loop(qs, b, gamma):
    """One beta per row, one prefix sum at a time."""
    betas = []
    for qrow, n_full, g in zip(qs, b.tolist(), gamma.tolist()):
        beta = float(qrow[:n_full].sum())
        if g > 0:
            beta += g * float(qrow[n_full])
        betas.append(beta)
    return betas


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_test_betas_equal_a_row_loop_bit_for_bit(rows, n, seed):
    """Rows summed a prefix length at a time equal one sum per row, bit for
    bit: prefixes of no cell and of every cell, fractional boundary cells,
    rows sharing a length next to each other and apart, and values spread
    over many magnitudes, so that the order of a sum shows in its bits."""
    rng = np.random.default_rng(seed)
    qs = rng.random((rows, n)) * np.exp2(rng.integers(-60, 1, (rows, n)))
    b = rng.choice([0, n, *rng.integers(0, n + 1, 3)], rows)
    gamma = np.where((b < n) & (rng.random(rows) < 0.6), rng.random(rows), 0.0)
    got = hyptest._test_betas(qs, b, gamma)
    assert [float.hex(x) for x in got] == [float.hex(x) for x in _test_betas_loop(qs, b, gamma)]


def test_test_betas_on_rows_longer_than_the_reduction_buffer():
    """Prefixes of more than 8,192 cells (numpy's reduction buffer), alone,
    in adjacent rows and in rows apart, and a 2^20-cell single row as the
    dense ``beta_epsilon`` sums it."""
    rng = np.random.default_rng(4242)
    n = 20_000
    qs = rng.random((5, n)) * np.exp2(rng.integers(-40, 1, (5, n)))
    b = np.array([15_000, 15_000, 9_000, 15_000, n])
    gamma = np.array([0.25, 0.0, 0.5, 0.75, 0.0])
    got = hyptest._test_betas(qs, b, gamma)
    assert [float.hex(x) for x in got] == [float.hex(x) for x in _test_betas_loop(qs, b, gamma)]
    big = rng.random((1, 1 << 20))
    for b1, g1 in ((np.array([(1 << 20) - 5]), np.array([0.3])), (np.array([1 << 20]), np.zeros(1))):
        assert hyptest._test_betas(big, b1, g1)[0] == _test_betas_loop(big, b1, g1)[0]


def _normalized(weights):
    return weights / weights.sum()


@pytest.mark.parametrize("n, counts", [
    (576, lambda block: [1, block - 1, block, block + 1, 3 * block + 5]),
    ((1 << 15) + 3, lambda block: [1, 3]),  # rows wider than a block: one row each
], ids=["576-cells", "wider-than-a-block"])
def test_blocked_betas_equal_one_beta_epsilon_per_row(n, counts):
    """``_betas`` over rows cut into blocks gives each row's own
    ``beta_epsilon``, bit for bit: row counts on both sides of a multiple of
    the block, and small integer weights, so that P and the rows have zero
    cells and tied ratios."""
    block = _chunk_rows(n, _BLOCK_CELLS)
    rng = np.random.default_rng(n)
    P = one_var_dist(_normalized(rng.integers(0, 4, n)))
    for rows in counts(block):
        Qs = [one_var_dist(_normalized(w)) for w in rng.integers(0, 4, (rows, n))]
        for eps in (0.05, 0.3):
            got = hyptest._betas(P.pmf, np.array([Q.pmf for Q in Qs]), eps)
            want = [beta_epsilon(P, Q, eps).beta for Q in Qs]
            assert [float.hex(x) for x in got] == [float.hex(x) for x in want], (rows, eps)


def test_stein_limit_at_1e4():
    cert = beta_epsilon_iid(ber(0.3), ber(0.5), 10_000, 0.1)
    val = cert.neg_log2_beta / 10_000
    assert abs(val - 0.11870910076930729) <= 0.01


def test_iid_cap():
    # n + 1 = 5,000,001 binary type classes: one over the cap, raised
    # before any table is built
    with pytest.raises(CapExceededError):
        beta_epsilon_iid(ber(0.3), ber(0.5), 5_000_000, 0.1)


def test_tail_bound_soundness_and_no_dispersion():
    rng = np.random.default_rng(53)
    for _ in range(30):
        P, Q = random_dist(rng, [5]), random_dist(rng, [5])
        eps = float(rng.uniform(0, 0.4))
        tb = np_tail_bound(P, Q, eps)
        exact = beta_epsilon(P, Q, eps).neg_log2_beta
        assert tb.value >= exact - 1e-9

    # constant ratio: the bound equals D + log2 1/(1-eps), at gamma = D
    five = Alphabet(tuple("abcde"))
    P = JointDist((("X", five),), [0.25, 0.25, 0.25, 0.25, 0.0])
    Q = JointDist((("X", five),), [0.125, 0.125, 0.125, 0.125, 0.5])
    eps = 0.1
    tb = np_tail_bound(P, Q, eps, gammas=[1.0])
    assert abs(tb.value - (1.0 + math.log2(1 / (1 - eps)))) <= 1e-12

    # fully infeasible grid
    tb = np_tail_bound(P, Q, 0.9, gammas=[-50.0])
    assert not tb.feasible and tb.value == math.inf

    # default grid is finite and sound on the Bernoulli instance
    tb = np_tail_bound(ber(0.3), ber(0.5), 0.1)
    assert tb.feasible
    assert tb.value >= beta_epsilon(ber(0.3), ber(0.5), 0.1).neg_log2_beta - 1e-12
    assert default_gamma_grid(ber(0.3), ber(0.5)).size == 3


def test_default_gamma_grid_on_disjoint_supports():
    # no cell has a finite log-ratio, so the grid is the single point 0
    assert default_gamma_grid(ber(0.0), ber(1.0)).tolist() == [0.0]


def test_renyi_bound():
    rng = np.random.default_rng(61)
    for _ in range(100):
        P, Q = random_dist(rng, [4]), random_dist(rng, [4])
        eps = float(rng.uniform(0, 0.3))
        epsp = float(rng.uniform(0.05, 0.3))
        alpha = float(rng.uniform(1.1, 6.0))
        val = renyi_beta_bound(P, Q, eps, epsp, alpha)
        exact = beta_epsilon(P, Q, eps).neg_log2_beta
        assert val >= exact - 1e-9

    # P = Q: bound reduces to the slack terms and dominates -log(1-eps)
    P = ber(0.4)
    val = renyi_beta_bound(P, P, 0.2, 0.1, 2.0)
    expect = math.log2(1 - 0.2 - 0.1) / (1 - 2.0) - math.log2(0.1)
    assert abs(val - expect) <= 1e-12
    assert val >= math.log2(1 / (1 - 0.2))

    # alpha -> infinity approaches the max-divergence form
    P, Q = ber(0.3), ber(0.5)
    big = renyi_beta_bound(P, Q, 0.1, 0.2, 1e6)
    assert abs(big - (d_max(P, Q) - math.log2(0.2))) <= 1e-4

    with pytest.raises(PreconditionError):
        renyi_beta_bound(P, Q, 0.1, 0.2, 1.0)
    with pytest.raises(PreconditionError):
        renyi_beta_bound(P, Q, 0.8, 0.3, 2.0)
    with pytest.raises(PreconditionError):
        renyi_beta_bound(P, Q, 0.1, 0.0, 2.0)


def test_stein_scan():
    P = ber(0.4)
    rows = stein_scan(P, P, 0.1, [10, 100])
    for n, v in rows:
        assert abs(v - math.log2(1 / 0.9) / n) <= 1e-12

    kl = divergence(ber(0.3), ber(0.5))
    rows = stein_scan(ber(0.3), ber(0.5), 0.1, [100, 1000, 10000])
    diffs = [abs(v - kl) for _, v in rows]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] <= 0.01


@pytest.mark.parametrize("ns, eps, message", [
    ([400, 0], 0.1, "n must be >= 1"),
    ([400, 10], 1.0, "eps must lie in"),
    ([0, 400], 1.0, "n must be >= 1"),
])
def test_stein_scan_checks_every_n_before_any_table(ns, eps, message, monkeypatch):
    tables = []
    monkeypatch.setattr(hyptest, "typeclass_table", lambda *a: tables.append(a))
    with pytest.raises(PreconditionError, match=message):
        stein_scan(ber(0.3), ber(0.5), eps, ns)
    assert tables == []


# ---------------------------------------------------------------------------
# input checks: each row is a call, the exception it raises and its message

_P, _Q = ber(0.3), ber(0.6)
_PAIR = random_dist(np.random.default_rng(0), [2, 2])

INPUT_CHECKS = [
    (lambda: beta_epsilon_iid(_PAIR, _PAIR, 2, 0.1),
     PreconditionError, "IID variant expects one shared variable"),
    (lambda: beta_epsilon_iid(_P, _Q, 0, 0.1),
     PreconditionError, "n must be >= 1"),
    (lambda: beta_epsilon_iid(_P, _Q, 2, 1.0),
     PreconditionError, "eps must lie in [0, 1)"),
    (lambda: np_tail_bound(_P, _Q, 0.1, gammas=[]),
     PreconditionError, "gamma grid must be nonempty"),
]


@pytest.mark.parametrize("call, exc, message", INPUT_CHECKS,
                         ids=[m for _, _, m in INPUT_CHECKS])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
