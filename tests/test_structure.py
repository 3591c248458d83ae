import itertools

import numpy as np
import pytest

from skconverse import (
    Alphabet,
    JointDist,
    Partition,
    PreconditionError,
    enum_partitions,
    marginal,
    mcf,
    mss,
)
from skconverse.structure import _grow, _partition_masks, attach_label
from support import BIT, random_dist


def test_partition_type():
    pi = Partition((frozenset([2]), frozenset([1, 3])), 3)
    assert pi.num_blocks == 2
    assert str(pi) == "1,3|2"  # blocks sorted by least member
    assert Partition.parse("1,3|2", 3) == pi
    with pytest.raises(PreconditionError):
        Partition((frozenset([1]),), 2)
    with pytest.raises(PreconditionError):
        Partition((frozenset([1]), frozenset([1, 2])), 2)


def test_enum_partitions_counts():
    assert [str(p) for p in enum_partitions(2)] == ["1|2"]
    assert len(enum_partitions(3)) == 4
    assert len(enum_partitions(4)) == 14
    # Bell(m) - 1 for m up to 6: Bell = 2, 5, 15, 52, 203
    for m, b in [(2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        assert len(enum_partitions(m)) == b - 1
    with pytest.raises(PreconditionError):
        enum_partitions(1)
    with pytest.raises(PreconditionError):
        enum_partitions(13)


def test_enum_partitions_canonical_order():
    got = [str(p) for p in enum_partitions(3)]
    assert got == ["1,2|3", "1,3|2", "1|2,3", "1|2|3"]


def test_rgs_matches_filtered_product():
    # a restricted growth string starts at 0 and exceeds the maximum of its
    # prefix by at most one; lexicographic order is that of product()
    bits = 1 << np.arange(8)
    for m in range(1, 8):
        want = [
            a for a in itertools.product(range(m), repeat=m)
            if a[0] == 0 and all(a[i] <= max(a[:i]) + 1 for i in range(1, m))
        ]
        assert _grow(np.zeros((1, 1), dtype=np.intp), m).tolist() == [list(a) for a in want]
        if m < 2:
            continue
        # block masks ordered by least member, then zeros; the one-block
        # string left out; chunks of exactly ``rows`` rows but the last
        masks = [[int(bits[:m][np.array(a) == b].sum()) for b in range(m)] for a in want[1:]]
        for rows in (1, 3, 64, 1 << 12):
            chunks = list(_partition_masks(m, rows))
            assert all(len(c) == rows for c in chunks[:-1]) and 0 < len(chunks[-1]) <= rows
            assert np.concatenate(chunks).tolist() == masks
    # m = 9 is enumerated in 26 slices of its length-6 prefixes; the
    # chunks follow the one-slice growth
    grown = _grow(np.zeros((1, 1), dtype=np.intp), 9)[1:]
    want = (grown[:, None, :] == np.arange(9)[:, None]) @ (1 << np.arange(9))
    assert np.array_equal(np.concatenate(list(_partition_masks(9, 100))), want)


def test_mcf_identity_independent_shared_bit():
    four = Alphabet(("a", "b", "c", "d"))
    ident = np.zeros((4, 4))
    np.fill_diagonal(ident, 0.25)
    J = JointDist((("X1", four), ("X2", four)), ident.reshape(-1))
    l1, l2 = mcf(J, "X1", "X2")
    assert l1.num_labels == 4 and l2.num_labels == 4
    assert l1.labels == tuple(range(4)) and l2.labels == tuple(range(4))

    rng = np.random.default_rng(3)
    indep = random_dist(rng, [3, 3])
    l1, l2 = mcf(indep, "X1", "X2")
    assert l1.num_labels == 1 and set(l1.labels) == {0}

    # X1 = (A,B), X2 = (A,C) with A,B,C independent bits: components track A
    syms = ("00", "01", "10", "11")
    pmf = np.zeros((4, 4))
    for i, x1 in enumerate(syms):
        for j, x2 in enumerate(syms):
            if x1[0] == x2[0]:
                pmf[i, j] = 1 / 8
    J = JointDist((("X1", Alphabet(syms)), ("X2", Alphabet(syms))), pmf.reshape(-1))
    l1, l2 = mcf(J, "X1", "X2")
    assert l1.num_labels == 2
    assert l1.labels == (0, 0, 1, 1)
    assert l2.labels == (0, 0, 1, 1)


def test_mcf_probability_one_agreement_and_swap():
    rng = np.random.default_rng(11)
    J = random_dist(rng, [4, 5], full_support=False)
    l1, l2 = mcf(J, "X1", "X2")
    arr = J.array()
    for i in range(4):
        for j in range(5):
            if arr[i, j] > 0:
                assert l1.labels[i] == l2.labels[j]
    m2, m1 = mcf(J, "X2", "X1")
    # swap commutes up to renaming: same partition of the support
    pairs = {(l1.labels[i], m1.labels[i]) for i in range(4)}
    assert len({a for a, _ in pairs}) == len({b for _, b in pairs})


def test_mss_basic_cases():
    rng = np.random.default_rng(13)
    indep = random_dist(rng, [4, 3])
    # make rows exactly equal: product distribution
    px = marginal(indep, ["X1"]).pmf
    py = marginal(indep, ["X2"]).pmf
    prod = JointDist(indep.vars, np.outer(px, py).reshape(-1))
    lab = mss(prod, given="X1", target="X2")
    assert lab.num_labels == 1

    copy = JointDist((("X1", BIT), ("X2", BIT)), [0.4, 0, 0, 0.6])
    lab = mss(copy, given="X1", target="X2")
    assert lab.num_labels == 2 and lab.labels == (0, 1)


def test_mss_ot_correlation_identity():
    # X1 = (K0, K1), X2 = (B, K_B): all four conditional rows distinct
    s1 = ("00", "01", "10", "11")
    s2 = ("00", "01", "10", "11")  # (B, K_B)
    pmf = np.zeros((4, 4))
    for i, (k0, k1) in enumerate(s1):
        for j, x2 in enumerate(s2):
            b, k = x2[0], x2[1]
            held = k0 if b == "0" else k1
            if k == held:
                pmf[i, j] = 1 / 8
    J = JointDist((("X1", Alphabet(s1)), ("X2", Alphabet(s2))), pmf.reshape(-1))
    lab = mss(J, given="X1", target="X2")
    assert lab.num_labels == 4
    assert len(set(lab.labels)) == 4


def test_mss_markov_and_minimality():
    rng = np.random.default_rng(17)
    # build X1 with duplicated rows: symbols {0,1} share a row, {2,3} share
    rows = rng.random((2, 3)) + 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    px1 = np.array([0.2, 0.3, 0.1, 0.4])
    pmf = np.vstack([px1[0] * rows[0], px1[1] * rows[0], px1[2] * rows[1], px1[3] * rows[1]])
    J = JointDist(
        (("X1", Alphabet(("a", "b", "c", "d"))), ("X2", Alphabet(("0", "1", "2")))),
        pmf.reshape(-1),
    )
    lab = mss(J, given="X1", target="X2", tol=0.0)
    assert lab.labels == (0, 0, 1, 1)
    # exact row equality within each class
    arr = J.array()
    cond = arr / arr.sum(axis=1, keepdims=True)
    assert np.allclose(cond[0], cond[1]) and np.allclose(cond[2], cond[3])


def test_mss_unsupported_symbols_get_extra_label():
    pmf = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
    J = JointDist(
        (("X1", Alphabet(("a", "b", "c"))), ("X2", BIT)), pmf.reshape(-1)
    )
    lab = mss(J, given="X1", target="X2")
    assert lab.labels == (0, 1, 2)
    assert lab.num_labels == 3
    # the extra label comes after every supported one, wherever the symbol is
    J = JointDist((("X1", Alphabet(("a", "b", "c"))), ("X2", BIT)), pmf[::-1].reshape(-1))
    assert mss(J, given="X1", target="X2").labels == (2, 0, 1)


def test_attach_label_pushforward():
    copy = JointDist((("X1", BIT), ("X2", BIT)), [0.4, 0, 0, 0.6])
    lab = mss(copy, given="X1", target="X2")
    J = attach_label(copy, lab, "V")
    assert J.var_names == ("X1", "X2", "V")
    arr = J.array()
    assert abs(arr[0, 0, 0] - 0.4) <= 1e-15
    assert abs(arr[1, 1, 1] - 0.6) <= 1e-15
    assert abs(arr.sum() - 1.0) <= 1e-12
    with pytest.raises(PreconditionError):
        attach_label(copy, lab, "X1")


# ---------------------------------------------------------------------------
# input checks: each row is a call, the exception it raises and its message

_J = random_dist(np.random.default_rng(0), [2, 3])

INPUT_CHECKS = [
    (lambda: Partition((frozenset([1, 2]), frozenset()), 2),
     PreconditionError, "partition blocks must be nonempty"),
    (lambda: Partition.parse("1,a|2", 2),
     PreconditionError, "cannot parse partition '1,a|2'"),
    (lambda: mcf(_J, "X1", "X1"),
     PreconditionError, "mcf needs two distinct variables"),
    (lambda: mss(_J, given="X1", target="X1"),
     PreconditionError, "mss needs two distinct variables"),
    (lambda: mss(_J, given="X1", target="X2", tol=-1e-9),
     PreconditionError, "tolerance must be nonnegative"),
]


@pytest.mark.parametrize("call, exc, message", INPUT_CHECKS,
                         ids=[m for _, _, m in INPUT_CHECKS])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
