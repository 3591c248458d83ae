import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skconverse import (
    Alphabet,
    JointDist,
    PreconditionError,
    SubDist,
    divergence,
    entropy,
    iid_extend,
    marginal,
    mutual_information,
    tv_distance,
)
from skconverse import probcore
from skconverse.errors import CapExceededError
from skconverse.probcore import (
    LOG2_ZERO,
    Channel,
    _chunk_rows,
    _q_pi_rows,
    apply_channel,
    conditional_family,
    conditional_product,
    dist_from_json,
    dist_to_json,
    extend_with_channel,
    factorizes,
    fuse_vars,
    load_dist,
    log2_pmf,
    pushforward_function,
    read_json,
    save_dist,
    stable_order,
)
from skconverse.structure import _partition_masks
from support import BIT, ber, binary_entropy, dsbs, marginal_oracle, random_dist


def test_construction_validation():
    with pytest.raises(PreconditionError):
        JointDist((("X", BIT),), [0.6, 0.5])
    with pytest.raises(PreconditionError):
        JointDist((("X", BIT),), [1.2, -0.2])
    with pytest.raises(PreconditionError):
        JointDist((("X", BIT), ("X", BIT)), [0.25] * 4)
    with pytest.raises(PreconditionError):
        Alphabet(("a", "a"))
    with pytest.raises(PreconditionError):
        SubDist((("X", BIT),), [0.7, 0.7])
    # NaN fails every comparison, so only an explicit finiteness check sees it
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError):
            JointDist((("X", BIT),), [bad, 1.0])
        with pytest.raises(PreconditionError):
            SubDist((("X", BIT),), [bad, 0.0])
    # subnormalized is fine
    SubDist((("X", BIT),), [0.2, 0.2])


def test_cell_cap_checked_before_the_pmf():
    # 4,000^2 = 1.6e7 cells exceed the 10^7 cap whatever the pmf holds
    big = Alphabet(tuple(str(i) for i in range(4000)))
    with pytest.raises(CapExceededError):
        JointDist((("X", big), ("Y", big)), [1.0])


def test_marginal_identity_and_uniform():
    J = dsbs(0.2)
    same = marginal(J, ["X1", "X2"])
    assert np.allclose(same.pmf, J.pmf)
    bit = marginal(JointDist((("X", BIT), ("Y", BIT)), [0.25] * 4), ["X"])
    assert np.allclose(bit.pmf, [0.5, 0.5])


def test_marginal_matches_bruteforce():
    rng = np.random.default_rng(11)
    J = random_dist(rng, [2, 3, 2])
    got = marginal(J, ["X1", "X3"])
    assert np.allclose(got.pmf, marginal_oracle(J, ["X1", "X3"]), atol=1e-14)


def test_marginal_consistency_invariant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        J = random_dist(rng, [2, 2, 3])
        two = marginal(marginal(J, ["X1", "X2"]), ["X1"])
        one = marginal(J, ["X1"])
        assert np.max(np.abs(two.pmf - one.pmf)) <= 1e-12


def test_conditional_family_copy_and_independent():
    copy = JointDist((("X1", BIT), ("X2", BIT)), [0.3, 0, 0, 0.7])
    ch = conditional_family(copy, ["X2"], ["X1"])
    assert np.allclose(ch.rows[(0,)], [1, 0])
    assert np.allclose(ch.rows[(1,)], [0, 1])

    indep = JointDist((("X1", BIT), ("X2", BIT)), [0.18, 0.42, 0.12, 0.28])
    ch = conditional_family(indep, ["X2"], ["X1"])
    assert np.allclose(ch.rows[(0,)], [0.3, 0.7])
    assert np.allclose(ch.rows[(1,)], [0.3, 0.7])


def test_conditional_family_division_oracle_and_omitted_rows():
    rng = np.random.default_rng(3)
    J = random_dist(rng, [3, 4])
    ch = conditional_family(J, ["X2"], ["X1"])
    arr = J.array()
    for i in range(3):
        assert np.allclose(ch.rows[(i,)], arr[i] / arr[i].sum(), atol=1e-14)

    # zero-probability conditioning rows are omitted, and an input that
    # never occurs needs no row
    J0 = JointDist((("X1", Alphabet(("a", "b", "c"))), ("X2", BIT)),
                   [0.5, 0.1, 0, 0, 0.2, 0.2])
    ch0 = conditional_family(J0, ["X2"], ["X1"])
    assert sorted(ch0.rows) == [(0,), (2,)]
    rebuilt = extend_with_channel(marginal(J0, ["X1"]), ch0)
    assert rebuilt.var_names == J0.var_names and np.allclose(rebuilt.pmf, J0.pmf)

    with pytest.raises(PreconditionError):
        conditional_family(J0, ["X1"], ["X1"])


def test_reassembly_invariant():
    rng = np.random.default_rng(8)
    J = random_dist(rng, [3, 3])
    ch = conditional_family(J, ["X2"], ["X1"])
    px1 = marginal(J, ["X1"]).pmf
    rebuilt = sum(px1[i] * ch.rows[(i,)] for i in range(3))
    assert np.max(np.abs(rebuilt - marginal(J, ["X2"]).pmf)) <= 1e-12


def test_conditional_product_fixed_point_and_pair():
    # independent given Z: conditional product returns the input
    rng = np.random.default_rng(21)
    pz = np.array([0.4, 0.6])
    out = np.zeros((2, 2, 2))
    for z in range(2):
        a = rng.random(2) + 0.1
        b = rng.random(2) + 0.1
        out[:, :, z] = pz[z] * np.outer(a / a.sum(), b / b.sum())
    J = JointDist((("X1", BIT), ("X2", BIT), ("Z", BIT)), out.reshape(-1), eve="Z")
    Q = conditional_product(J, [{1}, {2}], "Z")
    assert np.max(np.abs(Q.pmf - J.pmf)) <= 1e-12
    assert factorizes(J, [{1}, {2}], "Z")

    # two-party unconditional product
    J2 = dsbs(0.11)
    Q2 = conditional_product(J2, [{1}, {2}], None)
    expect = np.outer(marginal(J2, ["X1"]).pmf, marginal(J2, ["X2"]).pmf)
    assert np.allclose(Q2.pmf, expect.reshape(-1), atol=1e-14)


def test_conditional_product_matches_slice_oracle():
    rng = np.random.default_rng(31)
    J = random_dist(rng, [2, 2, 2, 2], names=["X1", "X2", "X3", "Z"], eve="Z")
    Q = conditional_product(J, [{1, 3}, {2}], "Z")
    arr = J.array()
    got = Q.array()
    for z in range(2):
        sl = arr[:, :, :, z]
        mass = sl.sum()
        cond = sl / mass
        m13 = cond.sum(axis=1)          # over X2 -> (X1, X3)
        m2 = cond.sum(axis=(0, 2))      # -> (X2,)
        expect = m13[:, None, :] * m2[None, :, None] * mass
        assert np.max(np.abs(got[:, :, :, z] - expect)) <= 1e-12
    # per z-slice the output factorizes exactly across the partition
    assert factorizes(Q, [{1, 3}, {2}], "Z")

    with pytest.raises(PreconditionError):
        conditional_product(J, [{1}, {2}], "Z")  # does not cover {1,2,3}


def _q_pi_row_loop(J, z_names, masks):
    """Q^pi of each row of block bitmasks, one row and one z-slice at a time.

    Per slice: the product of the block marginals of the slice's
    conditional law, in block order, times the slice's mass.
    """
    perm = [J.axis(n) for n in z_names]
    perm += [a for a in range(len(J.vars)) if a not in perm]
    arr = np.transpose(J.array(), perm)
    z_shape, x_shape = arr.shape[:len(z_names)], arr.shape[len(z_names):]
    rows = []
    for masks_row in masks.tolist():
        out = np.empty(arr.shape)
        for zi in np.ndindex(*z_shape):
            mass = arr[zi].sum()
            cond = arr[zi] / mass if mass > 0.0 else np.zeros(x_shape)
            prod = None
            for k in masks_row:
                if k:
                    other = tuple(a for a in range(len(x_shape)) if not k >> a & 1)
                    f = cond.sum(axis=other, keepdims=True) if other else cond
                    prod = f if prod is None else prod * f
            out[zi] = prod * mass
        rows.append(np.transpose(out, np.argsort(perm)).reshape(-1))
    return np.array(rows)


def _q_pi_sources(rng):
    """Sources with an eavesdropper first, in the middle or last, with two
    conditioning variables, with a z-slice of zero mass, and with Z between
    two variables of 100 symbols: z-slices of 10^4 cells, whose masses round
    differently when summed over a contiguous copy."""
    names = ["X1", "X2", "X3", "X4"]
    sources = [
        (random_dist(rng, [3, 2, 2, 3], names=["Z", *names[:3]], eve="Z"), ["Z"]),
        (random_dist(rng, [2, 3, 2, 3], names=["X1", "X2", "Z", "X3"], eve="Z"), ["Z"]),
        (random_dist(rng, [2, 3, 2, 3], names=[*names[:3], "Z"], eve="Z"), ["Z"]),
        (random_dist(rng, [2, 3, 2, 2, 3], names=["X1", "Z1", "X2", "Z2", "X3"]), ["Z1", "Z2"]),
        (random_dist(rng, [100, 8, 100], names=["X1", "Z", "X2"], eve="Z"), ["Z"]),
    ]
    arr_z = rng.random([2, 3, 2, 2])
    arr_z[:, :, 1, :] = 0.0
    sources.append((JointDist((("X1", BIT), ("X2", Alphabet(("0", "1", "2"))), ("Z", BIT),
                               ("X3", BIT)), (arr_z / arr_z.sum()).reshape(-1), eve="Z"), ["Z"]))
    return sources


def test_q_pi_rows_equal_a_row_loop_bit_for_bit():
    """Every chunk of the partition scan, at m = 8 (17 chunks), with an
    eavesdropper last one of whose values has zero mass (6 chunks), and on
    the sources of ``_q_pi_sources`` (one chunk each)."""
    rng = np.random.default_rng(1414)
    arr8 = rng.random([2] * 8)
    arr8[rng.random(arr8.shape) < 0.25] = 0.0
    arr_z = rng.random([2] * 7 + [3])
    arr_z[..., 1] = 0.0
    sources = [
        (JointDist(tuple((f"X{i}", BIT) for i in range(1, 9)), (arr8 / arr8.sum()).reshape(-1)),
         []),
        (JointDist(tuple((f"X{i}", BIT) for i in range(1, 8)) + (("Z", ("0", "1", "2")),),
                   (arr_z / arr_z.sum()).reshape(-1), eve="Z"), ["Z"]),
    ]
    for at, (J, zs) in enumerate(sources + _q_pi_sources(rng)):
        build = _q_pi_rows(J, zs)
        chunks = list(_partition_masks(len(J.vars) - len(zs), _chunk_rows(J.n_cells)))
        assert len(chunks) == [17, 6, 1, 1, 1, 1, 1, 1, 1, 1][at]
        for masks in chunks:
            assert np.array_equal(build(masks), _q_pi_row_loop(J, zs, masks))


def test_q_pi_rows_on_cells_equal_full_rows_bit_for_bit():
    """Rows built on a list of cells are the full rows' columns: without an
    eavesdropper (every chunk of the m = 8 scan) and on the sources of
    ``_q_pi_sources``; for sorted, unsorted, repeated and empty cell lists."""
    rng = np.random.default_rng(1515)
    arr8 = rng.random([2] * 8)
    arr8[rng.random(arr8.shape) < 0.25] = 0.0
    sources = [
        (JointDist(tuple((f"X{i}", BIT) for i in range(1, 9)), (arr8 / arr8.sum()).reshape(-1)),
         []),
    ]
    for J, zs in sources + _q_pi_sources(rng):
        build = _q_pi_rows(J, zs)
        n = J.n_cells
        cell_lists = [np.arange(n), np.arange(n)[::-1], rng.permutation(n)[: n // 2],
                      rng.integers(0, n, 2 * n), np.array([n - 1, 0, n - 1]),
                      np.zeros(0, dtype=np.intp)]
        m = len(J.vars) - len(zs)
        for masks in _partition_masks(m, _chunk_rows(n)):
            full = build(masks)
            for cells in cell_lists:
                assert np.array_equal(build(masks, cells), full[:, cells])


_TIE_KINDS = st.sampled_from(["rounded", "equal rows", "signed zeros", "infinities"])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(1, 700), st.integers(0, 2**32 - 1), _TIE_KINDS)
@example(rows=8, n=256, seed=0, kind="rounded")
def test_stable_order_is_the_stable_argsort(rows, n, seed, kind):
    """Tie-heavy 1-D (rows = 0) and 2-D keys, as the likelihood orders see
    them: rounded ratios, rows of one value, -0.0 next to 0.0, and -inf or
    +inf for cells where P = 0."""
    rng = np.random.default_rng(seed)
    shape = (n,) if rows == 0 else (rows, n)
    key = np.round(rng.normal(size=shape), 1)
    if kind == "equal rows":
        key[..., :] = key[..., :1]
    elif kind == "signed zeros":
        key = rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape)
    elif kind == "infinities":
        key[rng.random(shape) < 0.3] = -np.inf
        key[rng.random(shape) < 0.1] = np.inf
    got = stable_order(key)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(key, axis=-1, kind="stable"))


def _masked_log2_pmf(pmf):
    """log2_pmf's earlier formula: log2 of a compacted copy, scattered back."""
    out = np.full(pmf.shape, LOG2_ZERO)
    mask = pmf > 0
    out[mask] = np.log2(pmf[mask])
    return out


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("shape", [(1,), (7,), (8,), (33,), (1000,), (3, 17), (4, 256)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log2_pmf_is_the_masked_formula_bit_for_bit(shape, seed):
    """Exact zeros in runs of every length, subnormals and masses next to 1:
    the one-pass log2 must give each cell the bits of the masked formula, and
    log2 of the positive cells alone must be the same bits again."""
    rng = np.random.default_rng(seed)
    pmf = rng.random(shape) ** 3
    specials = np.array([0.0, 5e-324, 2.2e-308, 1e-300, np.nextafter(1.0, 0.0),
                         1.0 - 2.0**-30, 1.0, 0.5])
    pick = rng.random(shape) < 0.4
    pmf[pick] = rng.choice(specials, size=int(pick.sum()))
    pmf[rng.random(shape) < 0.2] = 0.0
    got = log2_pmf(pmf)
    assert _bits_equal(got, _masked_log2_pmf(pmf))
    for view in (pmf[..., ::-1], pmf.T):  # strided reads round like contiguous ones
        assert _bits_equal(log2_pmf(view), _masked_log2_pmf(view))
    keep = pmf > 0
    assert _bits_equal(np.log2(pmf[keep]), got[keep])
    assert np.all(got[~keep] == LOG2_ZERO)


def test_iid_extend():
    b = ber(0.3)
    assert iid_extend(b, 1) is b
    two = iid_extend(b, 2)
    assert np.allclose(two.pmf, [0.09, 0.21, 0.21, 0.49])
    assert two.var_names == ("X#1", "X#2")
    three = iid_extend(b, 3)
    assert abs(entropy(three) - 3 * entropy(b)) <= 1e-12
    with pytest.raises(CapExceededError):  # 2^24 cells: refused before any array is built
        iid_extend(ber(0.5), 24)
    with pytest.raises(PreconditionError):
        iid_extend(b, 0)


def test_tv_distance():
    b3, b5 = ber(0.3), ber(0.5)
    assert tv_distance(b3, b3) == 0.0
    pa = JointDist((("X", Alphabet(("a", "b"))),), [1.0, 0.0])
    pb = JointDist((("X", Alphabet(("a", "b"))),), [0.0, 1.0])
    assert tv_distance(pa, pb) == 1.0
    assert abs(tv_distance(b3, b5) - 0.2) <= 1e-15
    with pytest.raises(PreconditionError):
        tv_distance(b3, JointDist((("Y", BIT),), [0.5, 0.5]))


def test_tv_metric_properties():
    rng = np.random.default_rng(17)
    for _ in range(25):
        P, Q, R = (random_dist(rng, [4], full_support=False) for _ in range(3))
        assert abs(tv_distance(P, Q) - tv_distance(Q, P)) <= 1e-15
        assert tv_distance(P, R) <= tv_distance(P, Q) + tv_distance(Q, R) + 1e-12


def test_divergence_kl():
    b3, b5 = ber(0.3), ber(0.5)
    assert divergence(b3, b3) == 0.0
    expect = 0.3 * math.log2(0.3 / 0.5) + 0.7 * math.log2(0.7 / 0.5)
    assert abs(divergence(b3, b5) - expect) <= 1e-15
    assert abs(expect - 0.11870910076930729) <= 1e-15
    # support violation
    pa = JointDist((("X", Alphabet(("a", "b"))),), [1.0, 0.0])
    assert divergence(pa.__class__(pa.vars, [0.5, 0.5]), pa) == math.inf
    # nonnegativity, zero iff equal
    rng = np.random.default_rng(9)
    for _ in range(20):
        P, Q = random_dist(rng, [5]), random_dist(rng, [5])
        assert divergence(P, Q) >= -1e-12
    # additivity over iid extension
    P = random_dist(np.random.default_rng(1), [3])
    Q = random_dist(np.random.default_rng(2), [3])
    P3, Q3 = iid_extend(P, 3), iid_extend(Q, 3)
    assert abs(divergence(P3, Q3) - 3 * divergence(P, Q)) <= 1e-10


def test_divergence_renyi():
    b3, b5 = ber(0.3), ber(0.5)
    kl = divergence(b3, b5)
    near_one = divergence(b3, b5, kind="renyi", alpha=1 + 1e-4)
    assert abs(near_one - kl) <= 1e-3
    with pytest.raises(PreconditionError):
        divergence(b3, b5, kind="renyi", alpha=1.0)
    with pytest.raises(PreconditionError):
        divergence(b3, b5, kind="renyi", alpha=-2.0)
    with pytest.raises(PreconditionError):
        divergence(b3, b5, kind="nope")


def test_divergence_renyi_infinite_without_common_support():
    P = JointDist((("X", BIT),), [1.0, 0.0])
    Q = JointDist((("X", BIT),), [0.5, 0.5])
    # alpha > 1: P has mass where Q has none
    assert divergence(Q, P, kind="renyi", alpha=2.0) == math.inf
    # alpha < 1 tolerates that, but disjoint supports share no cell
    assert divergence(Q, P, kind="renyi", alpha=0.5) < math.inf
    R = JointDist((("X", BIT),), [0.0, 1.0])
    assert divergence(P, R, kind="renyi", alpha=0.5) == math.inf


def test_ragged_pmf_is_not_numbers():
    two = (("X", BIT), ("Y", BIT))
    with pytest.raises(PreconditionError, match="pmf entries must be numbers"):
        JointDist(two, [[0.25, 0.25], [0.5]])


def test_distinct_sort_path_equals_lookup_path():
    raw = np.random.default_rng(3).integers(0, 5000, size=300)
    # a range of 5000 is read through a lookup table; 2^40 is sorted
    values, index = probcore._distinct(raw, 5000)
    wide_values, wide_index = probcore._distinct(raw, 1 << 40)
    assert np.array_equal(values, wide_values) and np.array_equal(index, wide_index)
    assert values.dtype == wide_values.dtype and index.dtype == wide_index.dtype
    assert np.array_equal(values[index], raw)


def test_info_measures():
    u = JointDist((("X", BIT),), [0.5, 0.5])
    assert abs(entropy(u) - 1.0) <= 1e-15
    copy = JointDist((("X", BIT), ("Y", BIT)), [0.3, 0, 0, 0.7])
    assert abs(mutual_information(copy, "X", "Y") - entropy(copy, "X")) <= 1e-12
    d = dsbs(0.11)
    expect = 1.0 - binary_entropy(0.11)
    assert abs(mutual_information(d, "X1", "X2") - expect) <= 1e-12
    assert abs(expect - 0.500084041835472) <= 1e-12
    with pytest.raises(PreconditionError):
        entropy(d, ["nope"])
    with pytest.raises(PreconditionError):
        mutual_information(d, "X1", "X1")


def test_conditional_mutual_information():
    # X1, X2 conditionally independent given Z -> I(X1;X2|Z) = 0
    rng = np.random.default_rng(4)
    pz = [0.5, 0.5]
    out = np.zeros((2, 2, 2))
    for z in range(2):
        a = rng.random(2) + 0.1
        b = rng.random(2) + 0.1
        out[:, :, z] = pz[z] * np.outer(a / a.sum(), b / b.sum())
    J = JointDist((("X1", BIT), ("X2", BIT), ("Z", BIT)), out.reshape(-1))
    assert abs(mutual_information(J, "X1", "X2", given="Z")) <= 1e-12


def test_pushforward_and_fuse():
    J = JointDist((("X1", BIT), ("X2", BIT)), [0.25] * 4)
    G = pushforward_function(J, lambda s: str(int(s[0]) ^ int(s[1])))
    assert np.allclose(G.pmf, [0.5, 0.5])
    fused = fuse_vars(J, [["X1", "X2"]], ["P"])
    assert fused.shape == (4,)
    assert fused.alphabet("P").symbols == ("0|0", "0|1", "1|0", "1|1")


def test_extend_with_channel():
    from skconverse import Channel

    J = dsbs(0.11)
    ch = Channel(
        (("X1", BIT),), (("U", BIT),),
        {(0,): [0.9, 0.1], (1,): [0.2, 0.8]},
    )
    J2 = extend_with_channel(J, ch)
    assert J2.var_names == ("X1", "X2", "U")
    arr = J2.array()
    base = J.array()
    assert abs(arr[0, 1, 0] - base[0, 1] * 0.9) <= 1e-15
    assert abs(arr[1, 0, 1] - base[1, 0] * 0.8) <= 1e-15
    with pytest.raises(PreconditionError):
        Channel((("X1", BIT),), (("U", BIT),), {(0,): [math.nan, 1.0]})


def test_json_roundtrip(tmp_path):
    J = dsbs(0.2)
    J = JointDist(J.vars, J.pmf, eve=None)
    obj = dist_to_json(J)
    back = dist_from_json(obj)
    assert back.vars == J.vars
    assert np.allclose(back.pmf, J.pmf)
    with pytest.raises(PreconditionError):
        dist_from_json({"variables": [{"name": "X", "symbols": ["0", "1"]}],
                        "pmf": [0.5, 0.25]})
    with pytest.raises(PreconditionError):
        dist_from_json({"pmf": [1.0]})


# ---------------------------------------------------------------------------
# input checks: each row is a call, the exception it raises and its message

_J = dsbs(0.1)
_ZERO = SubDist((("X1", BIT), ("X2", BIT)), [0.0] * 4)
_TO_U = {(0,): [1.0, 0.0]}  # a row for X1 = 0 only

INPUT_CHECKS = [
    (lambda: Alphabet(()),
     PreconditionError, "alphabet must be nonempty"),
    (lambda: BIT.index("2"),
     PreconditionError, "unknown symbol '2'"),
    (lambda: JointDist((("X", BIT),), [0.5, 0.25, 0.25]),
     PreconditionError, "pmf length 3 does not equal product alphabet size 2"),
    (lambda: JointDist((("X", BIT),), [0.5, 0.5], eve="Z"),
     PreconditionError, "eve variable 'Z' not among variables"),
    (lambda: Channel((("X", BIT),), (("U", BIT),), {(0,): [0.5, 0.6]}),
     PreconditionError, "channel row must sum to 1"),
    (lambda: marginal(_J, []),
     PreconditionError, "must keep at least one variable"),
    (lambda: conditional_family(_ZERO, ["X2"], ["X1"]),
     PreconditionError, "conditioning marginal is identically zero"),
    (lambda: conditional_product(_J, [[1, 2], []]),
     PreconditionError, "partition blocks must be nonempty"),
    (lambda: conditional_product(random_dist(np.random.default_rng(0), [2, 2, 2]), [[1], [2]],
                                 ["X3", "X3"]),
     PreconditionError, "conditioning variables must be unique"),
    (lambda: fuse_vars(_J, [["X1"]], ["A"]),
     PreconditionError, "groups must cover all variables exactly once"),
    (lambda: apply_channel(_J, Channel((("X1", BIT),), (("U", BIT),), _TO_U)),
     PreconditionError, "channel input variables must match J exactly"),
    (lambda: apply_channel(ber(0.5, "X1"), Channel((("X1", BIT),), (("U", BIT),), _TO_U)),
     PreconditionError, "channel has no row for positive-probability input (1,)"),
    (lambda: extend_with_channel(_J, Channel((("X1", Alphabet(("a", "b"))),), (("U", BIT),),
                                             _TO_U)),
     PreconditionError, "channel input 'X1' has mismatched alphabet"),
    (lambda: extend_with_channel(_J, Channel((("X1", BIT),), (("X2", BIT),), _TO_U)),
     PreconditionError, "channel output name 'X2' already present"),
    (lambda: extend_with_channel(_J, Channel((("X1", BIT),), (("U", BIT),), _TO_U)),
     PreconditionError, "channel has no row for positive-probability input (1,)"),
    (lambda: pushforward_function(_J, ["0"]),
     PreconditionError, "function table length must match the outcome count"),
    (lambda: mutual_information(_J, "X1", "X2", given="X1"),
     PreconditionError, "conditioning variables must be disjoint from A and B"),
]


@pytest.mark.parametrize("call, exc, message", INPUT_CHECKS,
                         ids=[m for _, _, m in INPUT_CHECKS])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# distribution files: the orjson route for a flat "pmf" array against json


_VARS = '[{"name": "X", "symbols": ["0", "1"]}]'


def _doc(body: str) -> str:
    return f'{{"variables": {_VARS}, "pmf": [{body}]}}'


def _float_corpus() -> list[str]:
    """Decimal spellings that are hard to round, all below 2^63 in magnitude:
    the exact midpoint of two adjacent doubles and a digit either side of it,
    subnormals, 25-digit mantissas, and integers near 2^53 and 2^62."""
    rng = np.random.default_rng(20)
    xs = (rng.uniform(-1e3, 1e3, 30).tolist() + (rng.standard_normal(10) * 1e15).tolist()
          + (rng.standard_normal(10) * 1e-300).tolist()
          + (rng.uniform(0, 1, 10) * 2.2e-308).tolist() + [0.1, 1.0, 2.0 ** 52, 5e-324])
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # exact sums and halves of doubles
        for x in xs:
            lo, hi = decimal.Decimal(x), decimal.Decimal(math.nextafter(x, math.inf))
            mid = (lo + hi) / 2
            mantissa, exp = format(mid, "e").split("e")
            out += [repr(x), format(mid, "e"), f"{mantissa}0000001e{exp}",
                    format(mid - (hi - lo) / 1024, "e"), format(lo, ".24e")]
    out += ["2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
            "2.2250738585072014e-308", "1e-320", "1.5e-400", "9.2233720368547748e18",
            "0.1234567890123456789012345", "1.0000000000000000000000001",
            "9.999999999999999999999999e17", "1E2", "1e+2", "1e-2", "1e05", "-0", "-0.0"]
    for k in (53, 62):
        out += [str(s * (2 ** k + d)) for s in (1, -1) for d in (-1, 0, 1)]
    return out


# name -> (file text or bytes, whether the orjson route may read the pmf)
JSON_INPUTS = {
    "floats": (_doc(", ".join(_float_corpus())), True),
    "ints-only": (_doc("1, 0, 9007199254740993, -9007199254740993"), True),
    "dist": (_doc("0.25, 0.75"), True),
    "eve-first": ('{"eve": "X", "pmf": [0.25, 0.75], "variables": ' + _VARS + "}", True),
    "odd-whitespace": ('\r\n{\t"variables"\n:' + _VARS + ' ,\r"pmf"\n\t: \r[\n0.25\r,\t0.75 \n]\r\n}\n',
                       True),
    "big-floats": (_doc("1.7976931348623157e308, 9.2233720368547758e18, -1e300"), False),
    "int-2^63-minus-1": (_doc("9223372036854775807, 0.5"), False),
    "int-2^63": (_doc("9223372036854775808, 0.5"), False),
    "int-minus-2^63": (_doc("-9223372036854775808, 0.5"), False),
    "int-2^63-only": (_doc("9223372036854775808, 1"), False),
    "int-minus-2^63-minus-1": (_doc("-9223372036854775809, 0.5"), False),
    "int-2^64": (_doc("18446744073709551616, 0.5"), False),
    "int-2^64-only": (_doc("18446744073709551616, 1"), False),
    "nan": (_doc("NaN, 1.0"), False),
    "infinity": (_doc("Infinity, 1.0"), False),
    "minus-infinity": (_doc("-Infinity, 1.0"), False),
    "1e400": (_doc("1e400, 0.5"), False),
    "true": (_doc("true, 0.5"), False),
    "null": (_doc("null, 1.0"), False),
    "string": (_doc('"0.5", 0.5'), False),
    "nested": (_doc("[0.25], [0.75]"), False),
    "empty": (_doc(""), False),
    "blank": (_doc(" \n "), False),
    "leading-zero": (_doc("01, 0.5"), False),
    "trailing-point": (_doc("1., 0.5"), False),
    "leading-point": (_doc(".5, 0.5"), False),
    "plus-sign": (_doc("+1, 0.5"), False),
    "two-numbers-no-comma": (_doc("0.25 0.75"), False),
    "trailing-comma": (_doc("0.25, 0.75,"), False),
    # at chunk sizes 7 and 1 the final comma ends a chunk, so every chunk
    # parses and only the reader's end check refuses the array
    "trailing-comma-at-chunk-end": (_doc("0.25,0.75,"), False),
    # a last element of whitespace alone: at chunk size 1 its chunk parses
    # to no number
    "blank-last-element": (_doc("0.25, 0.75, \n"), False),
    "double-comma": (_doc("0.25,, 0.75"), False),
    "blank-element": (_doc("0.25, , 0.75"), False),
    "nested-pmf-key": ('{"meta": {"pmf": [1.0, 0.0]}, "variables": ' + _VARS
                       + ', "pmf": [0.25, 0.75]}', False),
    "nested-pmf-only": ('{"variables": ' + _VARS + ', "meta": {"pmf": [0.25, 0.75]}}', False),
    "key-ending-in-pmf": ('{"a\\"pmf": [1.0, 0.0], "variables": ' + _VARS
                          + ', "pmf": [0.25, 0.75]}', False),
    "escaped-key": ('{"variables": ' + _VARS + ', "\\u0070mf": [0.25, 0.75]}', False),
    "escaped-marker": ('{"variables": ' + _VARS + ', "pmf": "\\u0000skconverse pmf\\u0000", '
                       '"x": {"pmf": [0.25, 0.75]}}', False),
    "duplicate-pmf": ('{"variables": ' + _VARS + ', "pmf": [1.0, 0.0], "pmf": [0.25, 0.75]}',
                      False),
    "top-level-array": ('[{"variables": ' + _VARS + ', "pmf": [0.25, 0.75]}]', False),
    "bom": ("\ufeff" + _doc("0.25, 0.75"), False),
    "not-utf8": (b"\xff" + _doc("0.25, 0.75").encode(), False),
    "trailing-garbage": (_doc("0.25, 0.75") + " x", False),
    "trailing-bracket": (_doc("0.25, 0.75") + "]", False),
    "truncated": (_doc("0.25, 0.75")[:-1], False),
    "truncated-in-array": (_doc("0.25, 0.75")[:-8], False),
    "nan-elsewhere": ('{"variables": ' + _VARS + ', "w": NaN, "pmf": [0.25, 0.75]}', False),
}


@pytest.mark.parametrize("chunk", [1 << 20, 7, 1])
@pytest.mark.parametrize("name", list(JSON_INPUTS))
def test_dist_json_route_reads_what_json_reads(tmp_path, monkeypatch, name, chunk):
    monkeypatch.setattr(probcore, "_CHUNK_BYTES", chunk)
    raw, fast = JSON_INPUTS[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    got = probcore._fast_dist_doc(path.read_bytes())
    assert (got is not None) == fast
    if fast:
        want = read_json(path, "JSON")
        ref = np.array(want["pmf"])
        assert ref.dtype.kind in "iuf"
        assert got["pmf"].dtype == np.float64
        assert got["pmf"].tobytes() == ref.astype(np.float64).tobytes()
        assert {**got, "pmf": None} == {**want, "pmf": None}

    def load(route):
        try:
            J = route(path)
        except PreconditionError as exc:
            return f"error: {exc}"
        return J.vars, J.eve, J.pmf.tobytes()

    assert load(load_dist) == load(lambda p: dist_from_json(read_json(p, f"JSON in {p}")))


def test_flat_pmf_skips_read_json(tmp_path, monkeypatch):
    def refuse(path, what):
        raise AssertionError("read_json called")

    J = random_dist(np.random.default_rng(3), (3, 4, 5), eve="X2")
    path = tmp_path / "d.json"
    save_dist(J, path)
    monkeypatch.setattr(probcore, "read_json", refuse)
    back = load_dist(path)
    assert back.vars == J.vars and back.eve == J.eve
    assert back.pmf.tobytes() == J.pmf.tobytes()
