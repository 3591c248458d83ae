import importlib
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skconverse import (
    Alphabet,
    Channel,
    JointDist,
    Partition,
    PreconditionError,
    bc_bound,
    bc_capacity_bound,
    beta_epsilon,
    beta_epsilon_iid,
    cit_bound,
    cit_bound_best,
    divergence,
    enum_partitions,
    aux_capacity_bound,
    aux_singleshot_bound,
    iid_extend,
    mutual_information,
    ot_bounds,
    ot_capacity_bound,
    sc_necessary_check,
    secure_transmission_check,
    sk_capacity_formula,
)
from skconverse import bounds, cli, hyptest
from skconverse.bounds import BoundReport, even_slack_split
from skconverse.probcore import (
    _chunk_rows,
    conditional_product,
    extend_with_channel,
    fuse_vars,
    load_dist,
)
from skconverse.protosim import ideal_ot_correlation
from skconverse.smoothinfo import h_min_smooth
from skconverse.errors import CapExceededError
from skconverse.bounds import duplicated_statistic_joint
from skconverse.structure import _partition_count, _partition_of, mcf, mss
from support import (
    BIT,
    binary_entropy,
    conditional_product_oracle,
    dsbs,
    duplicated_statistic_loop,
    random_dist,
    uniform_bits,
)


def indep_bits(names=("X1", "X2")):
    return JointDist(
        ((names[0], BIT), (names[1], BIT)), [0.25, 0.25, 0.25, 0.25]
    )


def three_identical_bits():
    pmf = np.zeros(8)
    pmf[0] = pmf[7] = 0.5
    return JointDist((("X1", BIT), ("X2", BIT), ("X3", BIT)), pmf)


def mixed_length_message(n: int) -> JointDist:
    """Messages of n bits w.p. 1/2 or 2n bits w.p. 1/2, uniform inside."""
    short, long = 1 << n, 1 << (2 * n)
    syms = tuple(f"s{i}" for i in range(short)) + tuple(f"l{i}" for i in range(long))
    pmf = [0.5 / short] * short + [0.5 / long] * long
    return JointDist((("Y", Alphabet(syms)),), pmf)


def shared_key_instance(n: int, kappa: int):
    """Party i sees (U_i, K): independent n-bit strings plus a shared key."""
    nu, nk = 1 << n, 1 << kappa
    syms = tuple(f"{u}.{k}" for u in range(nu) for k in range(nk))
    pmf = np.zeros((nu * nk, nu * nk))
    w = 1.0 / (nu * nu * nk)
    for u1 in range(nu):
        for u2 in range(nu):
            for k in range(nk):
                pmf[u1 * nk + k, u2 * nk + k] = w
    J = JointDist((("X1", Alphabet(syms)), ("X2", Alphabet(syms))), pmf.reshape(-1))

    def parity(sym_pair):
        u1 = int(sym_pair[0].split(".")[0])
        u2 = int(sym_pair[1].split(".")[0])
        return format(u1 ^ u2, f"0{n}b")

    return J, parity


# ---------------------------------------------------------------------------
# conditional independence testing bound


def test_cit_bound_independent_parties():
    J = indep_bits()
    eps, eta = 0.1, 0.05
    rep = cit_bound(J, Partition((frozenset([1]), frozenset([2])), 2), eps, eta)
    expect = math.log2(1 / (1 - eps - eta)) + 2 * math.log2(1 / eta)
    assert abs(rep.value - expect) <= 1e-9


def test_cit_bound_matches_two_party_display():
    # with Z constant the bound is -log2 beta_{eps+eta}(P, P1 x P2) + 2 log2(1/eta)
    J = dsbs(0.11)
    eps, eta = 0.1, 0.05
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    rep = cit_bound(J, pi, eps, eta)
    q = conditional_product(J, pi, None)
    direct = beta_epsilon(J, q, eps + eta).neg_log2_beta + 2 * math.log2(1 / eta)
    assert abs(rep.value - direct) <= 1e-12


def test_cit_bound_three_identical_bits():
    J = three_identical_bits()
    pi = Partition((frozenset([1]), frozenset([2]), frozenset([3])), 3)
    rep = cit_bound(J, pi, 0.1, 0.1)
    # ratio to the product of singleton marginals is constant 4 on the
    # support, so beta_0.2 = (1 - 0.2)/4 = 0.2 exactly
    beta = rep.intermediates["beta"]
    assert abs(beta - 0.2) <= 1e-12
    expect = 0.5 * (-math.log2(0.2) + 3 * math.log2(10))
    assert abs(rep.value - expect) <= 1e-12


def test_cit_bound_supplied_q_validation():
    J = dsbs(0.11)
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    ok_q = conditional_product(J, pi, None)
    rep = cit_bound(J, pi, 0.1, 0.05, q=ok_q)
    assert rep.value > 0
    with pytest.raises(PreconditionError):
        cit_bound(J, pi, 0.1, 0.05, q=J)  # correlated: fails factorization
    with pytest.raises(PreconditionError):
        cit_bound(J, pi, 0.1, 0.95)


def test_cit_bound_report_recomputable():
    J = dsbs(0.2)
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    rep = cit_bound(J, pi, 0.1, 0.05)
    l = rep.intermediates["num_blocks"]
    re = (rep.intermediates["neg_log2_beta"] + l * math.log2(1 / 0.05)) / (l - 1)
    assert abs(re - rep.value) <= 1e-9


def test_cit_bound_best():
    J = dsbs(0.11)
    best = cit_bound_best(J, 0.1, 0.05)
    only = cit_bound(J, Partition((frozenset([1]), frozenset([2])), 2), 0.1, 0.05)
    assert abs(best.value - only.value) <= 1e-12

    J3 = three_identical_bits()
    best3 = cit_bound_best(J3, 0.1, 0.1)
    cap, _ = sk_capacity_formula(J3)
    # the argmin partition is capacity-consistent: its divergence rate is
    # also minimal for the capacity formula
    pi = best3.partition
    q = conditional_product(J3, pi, None)
    rate = divergence(J3, q) / (pi.num_blocks - 1)
    assert abs(rate - cap) <= 1e-9

    rng = np.random.default_rng(71)
    for _ in range(10):
        J = random_dist(rng, [2, 2], names=["X1", "X2"])
        assert cit_bound_best(J, 0.1, 0.05).value >= -1e-12


def test_capacity_formula():
    d = dsbs(0.11)
    val, pi = sk_capacity_formula(d)
    assert abs(val - (1 - binary_entropy(0.11))) <= 1e-12
    assert pi.num_blocks == 2

    val3, _ = sk_capacity_formula(three_identical_bits())
    assert val3 == 1.0

    val0, _ = sk_capacity_formula(indep_bits())
    assert abs(val0) <= 1e-12

    rng = np.random.default_rng(73)
    for _ in range(20):
        J = random_dist(rng, [3, 3], names=["X1", "X2"])
        v, _ = sk_capacity_formula(J)
        assert abs(v - mutual_information(J, "X1", "X2")) <= 1e-9

    with pytest.raises(PreconditionError):
        sk_capacity_formula(random_dist(rng, [2, 2, 2], names=["X1", "X2", "Z"], eve="Z"))


# ---------------------------------------------------------------------------
# the partition scan against a loop over enum_partitions


def _scan_source(rng, sizes, eve=False):
    """A source with about a quarter of its cells zero, and its array.

    With ``eve`` the last variable is the eavesdropper's, and its value 1
    has zero mass.
    """
    arr = rng.random(sizes)
    arr[rng.random(sizes) < 0.25] = 0.0
    if eve:
        arr[..., 1] = 0.0
    arr /= arr.sum()
    m = len(sizes) - eve
    names = [f"X{i + 1}" for i in range(m)] + (["Z"] if eve else [])
    vars = tuple(
        (n, Alphabet(tuple(str(s) for s in range(k)))) for n, k in zip(names, sizes)
    )
    return JointDist(vars, arr.reshape(-1), eve="Z" if eve else None), arr


def _scan_sources(eve):
    rng = np.random.default_rng(1018 + eve)
    sizes = [[k] * m for m in range(2, 6) for k in (2, 3)]
    if eve:
        sizes = [s + [3] for s in sizes if len(s) < 5] + [[3, 2, 2, 2, 3]]
    return [_scan_source(rng, s, eve) for s in sizes]


def _oracle_q(arr, pi, eve):
    z_axes = [arr.ndim - 1] if eve else []
    blocks = [sorted(i - 1 for i in b) for b in pi.blocks]
    return conditional_product_oracle(arr, blocks, z_axes)


def _check_q_pi(J, arr, parts, eve):
    """Each Q^pi is the oracle's up to rounding; returns the library's Q^pi."""
    qs = [conditional_product(J, pi, J.eve) for pi in parts]
    for pi, q in zip(parts, qs):
        np.testing.assert_allclose(q.pmf, _oracle_q(arr, pi, eve), rtol=1e-12, atol=1e-15)
    return qs


@pytest.mark.parametrize("eve", [False, True])
def test_cit_bound_best_equals_loop_over_partitions(eve):
    eps, eta = 0.1, 0.05
    for J, arr in _scan_sources(eve):
        parts = enum_partitions(arr.ndim - eve)
        _check_q_pi(J, arr, parts, eve)
        reports = [cit_bound(J, pi, eps, eta) for pi in parts]
        best = min(range(len(parts)), key=lambda i: (reports[i].value, i))
        assert cit_bound_best(J, eps, eta) == reports[best]


def _cit_reference(J, pi, eps, eta):
    """The testing-bound report of ``pi`` from ``conditional_product`` and
    ``beta_epsilon``, field by field."""
    zs = [J.eve] if J.eve else []
    cert = beta_epsilon(J, conditional_product(J, pi, zs or None), eps + eta)
    l = pi.num_blocks
    return BoundReport(
        kind="cit",
        value=(cert.neg_log2_beta + l * math.log2(1.0 / eta)) / (l - 1),
        params={"eps": eps, "eta": eta, "z": zs},
        partition=pi,
        intermediates={"neg_log2_beta": cert.neg_log2_beta, "beta": cert.beta,
                       "eps_plus_eta": eps + eta, "num_blocks": l},
    )


@pytest.mark.parametrize("eve", [False, True])
def test_cit_reports_build_no_q_and_no_certificate(eve, monkeypatch):
    # the reports come from the partition scan's rows and betas alone
    eps, eta = 0.1, 0.05
    sources = _scan_sources(eve)[:6]
    refs = [[_cit_reference(J, pi, eps, eta) for pi in enum_partitions(arr.ndim - eve)]
            for J, arr in sources]

    def refuse(*args, **kwargs):
        raise AssertionError("the testing bound built a Q^pi or a beta certificate")

    monkeypatch.setattr(bounds, "conditional_product", refuse)
    monkeypatch.setattr(bounds, "beta_epsilon", refuse)
    for (J, arr), reps in zip(sources, refs):
        for rep in reps:
            assert cit_bound(J, rep.partition, eps, eta) == rep
        best = min(range(len(reps)), key=lambda i: (reps[i].value, i))
        assert cit_bound_best(J, eps, eta) == reps[best]


def _capacity_loop(J, parts, qs):
    best_val, best_pi = math.inf, None
    for pi, q in zip(parts, qs):
        val = divergence(J, q, kind="kl") / (pi.num_blocks - 1)
        if val < best_val - 1e-12:
            best_val, best_pi = val, pi
    return best_val, best_pi


def test_capacity_formula_equals_loop_over_partitions():
    # independent parties: every divergence is zero up to rounding
    rng = np.random.default_rng(1019)
    independent = []
    for sizes in ([2, 3, 2], [3, 2, 2, 2]):
        arr = np.ones(())
        for k in sizes:
            arr = np.multiply.outer(arr, rng.random(k) / 2 + 0.25)
        arr /= arr.sum()
        vars = tuple(
            (f"X{i + 1}", Alphabet(tuple(map(str, range(k))))) for i, k in enumerate(sizes)
        )
        independent.append((JointDist(vars, arr.reshape(-1)), arr))
    for J, arr in _scan_sources(False) + independent:
        parts = enum_partitions(arr.ndim)
        qs = _check_q_pi(J, arr, parts, False)
        assert sk_capacity_formula(J) == _capacity_loop(J, parts, qs)


def _bits_source(pmf):
    m = int(np.log2(len(pmf)))
    return JointDist(tuple((f"X{i + 1}", BIT) for i in range(m)), np.asarray(pmf) / np.sum(pmf))


def _tie_sources():
    """Sources whose partitions tie or nearly tie in the capacity formula
    (``test_partition_scan_across_chunks`` checks its m = 8 source too)."""
    out = [_bits_source(np.ones(1 << m)) for m in range(4, 9)]  # every value 0
    for a, b in ((3, 3), (2, 5)):  # two independent groups of correlated bits
        groups = []
        for k, f in ((a, 0.1), (b, 0.2)):
            ones = np.array([bin(x).count("1") for x in range(1 << k)])
            groups.append(f ** ones * (1 - f) ** (k - ones) + (1 - f) ** ones * f ** (k - ones))
        out.append(_bits_source(np.multiply.outer(*groups).reshape(-1)))
    for m in (5, 7):  # copies of one bit: every value exactly 1
        pmf = np.zeros(1 << m)
        pmf[0] = pmf[-1] = 1.0
        out.append(_bits_source(pmf))
    for seed in range(3):  # near-independent bits: values near 1e-12
        rng = np.random.default_rng(seed)
        out.append(_bits_source(1 + 1e-5 * rng.random(1 << (5 + seed))))
    return out


def test_capacity_screen_equals_full_scan_on_ties(monkeypatch):
    """The screen's winner is the full scan's, also when every subset entropy
    is moved by up to 1e-11: well inside the margin the screen allows for
    rounding, and enough to reorder the near-independent sources' rows."""
    entropies, rng = bounds._subset_entropies, np.random.default_rng(100)

    def jittered(J):
        h = entropies(J)
        return h + np.concatenate([[0.0], rng.uniform(-1e-11, 1e-11, len(h) - 1)])

    for J in _tie_sources():
        parts = enum_partitions(len(J.vars))
        want = _capacity_loop(J, parts, [conditional_product(J, pi) for pi in parts])
        assert sk_capacity_formula(J) == want
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_subset_entropies", jittered)
            assert sk_capacity_formula(J) == want


def test_capacity_screen_falls_back_when_q_underflows():
    """A cell of mass 1e-170 whose product of marginals underflows to 0 gives
    its partitions an infinite divergence, far from their screen; the scan
    then tests every partition, as the full scan does."""
    pmf = np.zeros(8)
    pmf[[0, 3, 7]] = 1 - 2e-170, 1e-170, 1e-170
    J = JointDist((("X1", BIT), ("X2", BIT), ("X3", BIT)), pmf)
    parts = enum_partitions(3)
    assert sk_capacity_formula(J) == _capacity_loop(J, parts, [conditional_product(J, pi) for pi in parts])


def _sc_rows(J, parts, qs, lhs, mu, zeta, eta):
    rows = []
    for pi, q in zip(parts, qs):
        l = pi.num_blocks
        rhs = (beta_epsilon(J, q, mu).neg_log2_beta + l * math.log2(1 / eta)) / (l - 1)
        rhs += 2 * math.log2(1 / (2 * zeta)) + 1
        rows.append((str(pi), rhs, rhs - lhs))
    return tuple(rows)


def test_sc_check_equals_loop_over_partitions():
    xi, zeta, eta = 0.01, 0.1, 0.1
    for J, arr in _scan_sources(False):
        parts = enum_partitions(arr.ndim)
        qs = _check_q_pi(J, arr, parts, False)
        g = [str(i % 3) for i in range(J.n_cells)]
        rep = sc_necessary_check(J, g, 0.02, 0.02, xi, zeta, eta)
        rows = _sc_rows(J, parts, qs, rep.lhs, rep.params["mu"], zeta, eta)
        assert rep.per_partition == rows
        worst = min(range(len(rows)), key=lambda i: rows[i][2])
        assert rep.partition == parts[worst]
        assert (str(rep.partition), rep.rhs, rep.slack) == rows[worst]
        one = sc_necessary_check(J, g, 0.02, 0.02, xi, zeta, eta, partition=parts[-1])
        assert one.per_partition == (rows[-1],)


def test_sc_check_reports_the_first_of_tied_least_slacks():
    """Two uniform 16-ary symbols, each held by two parties: 2^16 cells, so
    each partition is a chunk of its own.  Every mass and product is a power
    of two, so partitions that keep both pairs whole, or split them all,
    tie exactly; the first of them in enumeration order is reported."""
    sym = Alphabet(tuple(map(str, range(16))))
    arr = np.zeros((16,) * 4)
    for a in range(16):
        arr[a, a, :, :] = np.diag(np.full(16, 1 / 256))
    J = JointDist(tuple((f"X{i}", sym) for i in range(1, 5)), arr.reshape(-1))
    assert _chunk_rows(J.n_cells) == 1
    rep = sc_necessary_check(J, [0] * J.n_cells, 0.0, 0.0, 0.125, 0.125, 0.125)
    slacks = [row[2] for row in rep.per_partition]
    tied = [row[0] for row in rep.per_partition if row[2] == min(slacks)]
    assert tied == ["1,2|3,4", "1,2|3|4", "1|2|3,4", "1|2|3|4"]
    assert [str(p) for p in enum_partitions(4) if str(p) in tied] == tied
    assert rep.partition == Partition.parse("1,2|3,4", 4)
    assert (str(rep.partition), rep.rhs, rep.slack) == rep.per_partition[2]


def test_duplicated_statistic_joint_equals_its_loop():
    rng = np.random.default_rng(23)
    for _ in range(100):
        shape = tuple(int(n) for n in rng.integers(1, 6, 2))
        w = rng.integers(0, 4, shape).astype(float) * rng.random(shape)
        w[rng.integers(shape[0])] = 0.0  # an X1 symbol of zero mass
        if not w.any():
            w[0, 0] = 1.0
        J = random_dist(rng, shape, names=["X1", "X2"])
        J = JointDist(J.vars, (w / w.sum()).reshape(-1))
        for lab in (mss(J, given="X1", target="X2"), mcf(J, "X1", "X2")[0]):
            p_dup, q_dup = duplicated_statistic_joint(J, lab)
            p_loop, q_loop = duplicated_statistic_loop(J, lab)
            assert p_dup.pmf.tobytes() == p_loop.tobytes()
            assert q_dup.pmf.tobytes() == q_loop.tobytes()
            assert p_dup.var_names == q_dup.var_names == ("V1", "V1b", "X2")


@pytest.mark.parametrize("names", [("V0", "V1"), ("V1", "V1b"), ("V1b", "V0")])
def test_ot_bc_on_sources_named_like_the_statistics(names):
    rng = np.random.default_rng(24)
    J = random_dist(rng, [3, 4], names=["X1", "X2"])
    R = JointDist(tuple((n, a) for n, (_, a) in zip(names, J.vars)), J.pmf)
    args = (0.02, 0.02, 0.02, 0.05)
    for f in (ot_capacity_bound, bc_capacity_bound):
        assert f(R) == f(J)
    for f in (ot_bounds, bc_bound):
        assert f(R, *args) == f(J, *args)
    p, q = duplicated_statistic_joint(R, mss(R, given=names[0], target=names[1]))
    assert len(set(p.var_names)) == 3 and p.var_names[2] == names[1]


def test_partition_scan_across_chunks():
    """m = 8 binary parties: the 4,139 partitions span 17 chunks of Q^pi rows."""
    J, arr = _scan_source(np.random.default_rng(88), [2] * 8)
    parts = enum_partitions(8)
    assert len(parts) > 16 * _chunk_rows(J.n_cells)
    qs = [conditional_product(J, pi) for pi in parts]
    eps, eta = 0.1, 0.05
    reports = [cit_bound(J, pi, eps, eta) for pi in parts]
    best = min(range(len(parts)), key=lambda i: (reports[i].value, i))
    assert cit_bound_best(J, eps, eta) == reports[best]
    assert sk_capacity_formula(J) == _capacity_loop(J, parts, qs)
    g = [str(bin(i).count("1") % 2) for i in range(J.n_cells)]
    rep = sc_necessary_check(J, g, 0.02, 0.02, 0.01, 0.1, 0.1)
    assert rep.per_partition == _sc_rows(J, parts, qs, rep.lhs, rep.params["mu"], 0.1, 0.1)
    # the oracle on the first and last row of every chunk
    rows = _chunk_rows(J.n_cells)
    firsts = range(0, len(parts), rows)
    for i in sorted({*firsts, *(min(c + rows, len(parts)) - 1 for c in firsts)}):
        np.testing.assert_allclose(
            qs[i].pmf, _oracle_q(arr, parts[i], False), rtol=1e-12, atol=1e-15
        )


def _binary_source(pmf, m, eve=False):
    names = [f"X{i + 1}" for i in range(m)] + (["Z"] if eve else [])
    return JointDist(tuple((n, BIT) for n in names), pmf, eve="Z" if eve else None)


def _bits_of(n):
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _lattice_style(rng, m, eve):
    """Noisy copies of three correlated latent bits (Z copies the first),
    mixed with 3% uniform noise: partition-lattice's kind of source."""
    n = m + eve
    bits = _bits_of(n)
    latent = rng.random(8) + 0.1
    group = np.append(rng.integers(0, 3, m), np.zeros(int(eve), int))
    flip = 0.05 + 0.3 * rng.random(n)
    pmf = np.zeros(1 << n)
    for u, w in enumerate(latent / latent.sum()):
        pmf += w * np.prod(np.where(bits == (u >> (2 - group)) & 1, 1 - flip, flip), axis=1)
    return _binary_source(0.97 * pmf + 0.03 / pmf.size, m, eve)


def _screen_sources():
    rng = np.random.default_rng(1818)
    bits = _bits_of(8)
    noisy = 0.5 * np.prod(np.where(bits[:, 1:] == bits[:, :1], 0.9, 0.1), axis=1)
    groups = np.kron(*(p / p.sum() for p in rng.random((2, 16)) + 0.2))
    return {
        "lattice": _lattice_style(rng, 8, False),
        "lattice-eve": _lattice_style(rng, 8, True),
        "noisy-copies": _binary_source(noisy, 8),
        "independent-bits": _binary_source(np.full(256, 2.0 ** -8), 8),
        "two-groups": _binary_source(groups, 8),
    }


@pytest.mark.parametrize("name", list(_screen_sources()))
def test_screened_scan_equals_full_scan(name, monkeypatch):
    """The screened scan reports what an argmin over every row reports.

    Every row after the first chunk gets a floor from its Q^pi built only on
    the cells of the winner's test; a skipped row's exact value is at least
    its floor and above the best.  On the lattice sources at most 10% of the
    4,139 rows reach ``_betas``.
    """
    J = _screen_sources()[name]
    eps, eta = 0.1, 0.05
    zs = [J.eve] if J.eve else []
    chunks = list(bounds._partition_scan(J, zs, len(J.vars) - len(zs)))
    assert len(chunks) > 1
    values, betas = [], []
    for masks, rows in chunks:
        chunk = hyptest._betas(J.pmf, rows(), eps + eta)
        nlbs = np.array([-math.log2(b) if b > 0 else math.inf for b in chunk])
        values.append(bounds._cit_value(nlbs, np.count_nonzero(masks, axis=1), eta))
        betas += chunk
    best = int(np.argmin(np.concatenate(values)))
    floors, widths, sent = [], [], []
    floor_of = bounds._cit_floor

    def floor(q_on_t, *args):
        widths.append(q_on_t.shape[1])
        floors.append(floor_of(q_on_t, *args))
        return floors[-1]

    def counted(p, q, eps):
        sent.append(len(q))
        return hyptest._betas(p, q, eps)

    monkeypatch.setattr(bounds, "_cit_floor", floor)
    monkeypatch.setattr(bounds, "_betas", counted)
    rep = cit_bound_best(J, eps, eta)
    assert rep.partition == _partition_of(np.concatenate([c[0] for c in chunks])[best], 8)
    assert float.hex(rep.intermediates["beta"]) == float.hex(betas[best])
    assert rep.value == np.concatenate(values)[best]
    assert len(floors) == len(chunks) - 1
    assert 0 < max(widths) < J.n_cells
    skipped = 0
    for k, (lb, value) in enumerate(zip(floors, values[1:]), 1):
        assert (value >= lb).all()
        before = np.concatenate(values[:k]).min()
        skip = lb > before + 1e-6 * max(1.0, abs(before))
        assert (value[skip] > before).all()
        skipped += skip.sum()
    assert sum(sent) == len(betas) - skipped
    if name.startswith("lattice"):
        assert sum(sent) <= 0.1 * len(betas)


def test_screen_keeps_a_row_that_beats_the_best_by_less_than_the_margin():
    """A later row whose floor is within the margin of the best, and whose
    value is below it, still reaches ``_betas`` and wins."""
    # the winner's test accepts cell 0 and, in full, the tiny boundary cell 1
    J = JointDist((("X", Alphabet(("a", "b", "c"))),), [0.85, 1e-7, 0.15 - 1e-7])
    q_first = np.array([[0.5, 1e-7, 0.5 - 1e-7]])
    q_later = np.array([[0.5 * (1 + 1e-9), 1e-7, 0.5 - 1e-7 - 0.5e-9]])
    scan = [(np.array([[1, 6]]), bounds._given_rows(q_first)),
            (np.array([[3, 4]]), bounds._given_rows(q_later))]
    rep = bounds._least_cit(J, 3, [], 0.1, 0.05, scan)
    first = bounds._least_cit(J, 3, [], 0.1, 0.05, scan[:1])
    assert (str(first.partition), str(rep.partition)) == ("1|2,3", "1,2|3")
    assert rep.value < first.value < rep.value * (1 + 1e-6)


def test_one_chunk_scans_build_no_rows_on_cells(monkeypatch, capsys):
    """Only a screened chunk builds Q^pi on a test's cells: ``cit_bound`` on
    one partition and ``protocol fuzz`` (scans of one chunk) never give the
    builder a list of cells, which a scan of many chunks does."""
    q_pi_rows = bounds._q_pi_rows

    def spied(J, zs):
        build = q_pi_rows(J, zs)

        def full_rows_only(masks, cells=None):
            if cells is not None:
                raise _Scanned
            return build(masks)
        return full_rows_only

    monkeypatch.setattr(bounds, "_q_pi_rows", spied)
    for J in _screen_sources().values():
        m = len(J.vars) - (J.eve is not None)
        for pi in (Partition.parse("1|2|3|4|5|6|7|8", m), Partition.parse("1,2,3|4,5,6,7,8", m)):
            cit_bound(J, pi, 0.1, 0.05)
    assert cli.main(["protocol", "fuzz", "--count", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["ok"]
    with pytest.raises(_Scanned):
        cit_bound_best(_screen_sources()["lattice-eve"], 0.1, 0.05)


#: (call, ceiling): peak traced memory of each partition scan on the
#: partition-lattice benchmark's seed-11 m = 8 sources, in arrays of one
#: chunk (2^16 float64 cells).  ``_betas`` sorts a chunk's rows in blocks of
#: half a chunk, so the measured peaks are 3.44, 4.57 and 4.97 (5.11, 5.24
#: and 6.64 when it sorted whole chunks); the ceilings lie 0.13 to 0.28 above.
SCAN_WORKING_SETS = {
    "cit_bound_best": (lambda s: cit_bound_best(s["joint"], 0.1, 0.05), 3.7),
    "cit_bound_best with Z": (lambda s: cit_bound_best(s["joint-eve"], 0.1, 0.05), 4.7),
    "sc_necessary_check": (lambda s: sc_necessary_check(
        s["joint"], s["parity"], 0.02, 0.02, **even_slack_split(0.02, 0.02)), 5.25),
}


@pytest.fixture(scope="module")
def lattice_sources(tmp_path_factory):
    """The partition-lattice benchmark's inputs at seed 11."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(root / "bench"))
    base = tmp_path_factory.mktemp("lattice")
    workloads.build("partition-lattice", 11, str(base))
    return {name: load_dist(base / f"{name}.json") for name in ("joint", "joint-eve")} | {
        "parity": json.loads((base / "parity.json").read_text())}


@pytest.mark.parametrize("name", list(SCAN_WORKING_SETS))
def test_partition_scan_working_set_ceilings(name, lattice_sources):
    call, ceiling = SCAN_WORKING_SETS[name]
    call(lattice_sources)  # module-level caches are filled outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(lattice_sources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    chunks = (peak - before) / (8 << 16)
    assert chunks <= ceiling, f"{name} peaks at {chunks:.2f} chunk-sized arrays"


# ---------------------------------------------------------------------------
# auxiliary-channel bound


def _z_instance(seed=5):
    rng = np.random.default_rng(seed)
    return random_dist(rng, [2, 2, 2], names=["X1", "X2", "Z"], eve="Z")


def test_aux_bound_constant_u():
    J = _z_instance()
    const = Channel(
        (("Z", BIT),), (("U", Alphabet(("u",))),), {(0,): [1.0], (1,): [1.0]}
    )
    eps, delta, eta, eta1, eta2 = 0.05, 0.05, 0.3, 0.05, 0.05
    rep = aux_singleshot_bound(J, const, eps, delta, eta, eta1, eta2)
    # a constant U adds nothing: the divergence term is exactly the
    # removable-mass slack log2(1 - eta1)
    assert abs(rep.intermediates["dmax_term"] - math.log2(1 - eta1)) <= 1e-9
    recomputed = (
        rep.intermediates["neg_log2_beta"]
        + rep.intermediates["dmax_term"]
        + rep.intermediates["tail_term"]
    )
    assert abs(rep.value - recomputed) <= 1e-12


def test_aux_bound_copy_channel():
    J = _z_instance()
    copy = Channel((("Z", BIT),), (("U", BIT),), {(0,): [1, 0], (1,): [0, 1]})
    rep = aux_singleshot_bound(J, copy, 0.05, 0.05, 0.3, 0.05, 0.05)
    # U = Z: the joint equals P_{X1X2Z} P_{U|Z}, so again only the slack term
    assert abs(rep.intermediates["dmax_term"] - math.log2(1 - 0.05)) <= 1e-9
    # and the beta argument factorizes given (Z, U) by construction
    J2 = extend_with_channel(J, copy)
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    q = conditional_product(J2, pi, ["Z", "U"])
    from skconverse.probcore import factorizes

    assert factorizes(q, pi, ["Z", "U"])


def test_aux_bound_dominates_cit_term_by_term():
    J = _z_instance(9)
    rng = np.random.default_rng(11)
    rows = {}
    for z in range(2):
        r = rng.random(2) + 0.1
        rows[(z,)] = r / r.sum()
    ch = Channel((("Z", BIT),), (("U", BIT),), rows)
    eps, delta, eta, eta1, eta2 = 0.05, 0.05, 0.3, 0.05, 0.05
    rep = aux_singleshot_bound(J, ch, eps, delta, eta, eta1, eta2)
    J2 = extend_with_channel(J, ch)
    cit = cit_bound(
        J2,
        Partition((frozenset([1]), frozenset([2])), 2),
        eps + 2 * delta,
        eta,
        z=["Z", "U"],
    )
    offset = (
        rep.intermediates["dmax_term"]
        + 4 * math.log2(1 / (eta - eta1 - eta2))
        + 1
        - 2 * math.log2(1 / eta)
    )
    assert abs(rep.value - (cit.value + offset)) <= 1e-9

    with pytest.raises(PreconditionError):
        aux_singleshot_bound(J, ch, 0.05, 0.05, 0.3, 0.2, 0.2)


def test_aux_capacity():
    J = JointDist(
        (("X1", BIT), ("X2", BIT), ("Z", Alphabet(("z",)))),
        dsbs(0.11).pmf,
        eve="Z",
    )
    const = Channel(
        (("Z", Alphabet(("z",))),), (("U", Alphabet(("u",))),), {(0,): [1.0]}
    )
    val = aux_capacity_bound(J, const)
    assert abs(val - (1 - binary_entropy(0.11))) <= 1e-12

    Jz = _z_instance(13)
    copy = Channel((("Z", BIT),), (("U", BIT),), {(0,): [1, 0], (1,): [0, 1]})
    val = aux_capacity_bound(Jz, copy)
    assert abs(val - mutual_information(Jz, "X1", "X2", given="Z")) <= 1e-12
    assert val >= -1e-12


# ---------------------------------------------------------------------------
# oblivious transfer and bit commitment


def test_ot_bounds_independent():
    J = indep_bits()
    eps, d1, d2, xi = 0.02, 0.02, 0.02, 0.04
    eta = eps + d1 + 2 * d2 + xi
    rep = ot_bounds(J, eps, d1, d2, xi)
    expect1 = math.log2(1 / (1 - eta)) + 2 * math.log2(1 / xi)
    assert abs(rep.intermediates["bound1"] - expect1) <= 1e-9


def test_ot_capacity_quantities_ideal_correlation():
    J = ideal_ot_correlation(1)
    assert abs(ot_capacity_bound(J) - 1.0) <= 1e-12
    assert abs(bc_capacity_bound(J) - 1.0) <= 1e-12


def test_ot_capacity_degenerate():
    assert abs(ot_capacity_bound(indep_bits())) <= 1e-12
    copy = JointDist((("X1", BIT), ("X2", BIT)), [0.5, 0, 0, 0.5])
    assert abs(ot_capacity_bound(copy)) <= 1e-12
    assert abs(bc_capacity_bound(copy)) <= 1e-12


def test_ot_copy_source_bound2_constant():
    copy = JointDist((("X1", BIT), ("X2", BIT)), [0.5, 0, 0, 0.5])
    eps, d1, d2, xi = 0.02, 0.02, 0.02, 0.04
    eta = eps + d1 + 2 * d2 + xi
    rep = ot_bounds(copy, eps, d1, d2, xi)
    expect2 = math.log2(1 / (1 - eta)) + 2 * math.log2(1 / xi)
    assert abs(rep.intermediates["bound2"] - expect2) <= 1e-9


def test_bc_bound_shares_ot_bound2_instance():
    rng = np.random.default_rng(83)
    J = random_dist(rng, [4, 3], names=["X1", "X2"])
    eps, d1, d2, xi = 0.03, 0.02, 0.04, 0.05
    eta_bc = eps + d1 + d2 + xi
    bc = bc_bound(J, eps, d1, d2, xi)
    # same beta instance as ot bound2 evaluated at bc's eta
    xi_adj = eta_bc - eps - d1 - 2 * d2
    if xi_adj > 0:
        ot = ot_bounds(J, eps, d1, d2, xi_adj)
        shift = 2 * math.log2(1 / xi) - 2 * math.log2(1 / xi_adj)
        assert abs(bc.value - (ot.intermediates["bound2"] + shift)) <= 1e-9


def test_bc_bound_ot_correlation_no_dispersion():
    # commitment from an n-string OT correlation: the test instance has
    # constant ratio 2^n, so the bound is n + log2 1/(1-eta) + 2 log2(1/xi)
    for n in (1, 2):
        J = ideal_ot_correlation(n)
        eps, d1, d2, xi = 0.05, 0.05, 0.05, 0.1
        eta = eps + d1 + d2 + xi
        rep = bc_bound(J, eps, d1, d2, xi)
        expect = n + math.log2(1 / (1 - eta)) + 2 * math.log2(1 / xi)
        assert abs(rep.value - expect) <= 1e-9


def test_bc_capacity_cases():
    # X2 constant: the sufficient statistic collapses, and indeed no
    # commitment can bind without correlation, so the capacity is 0
    three = uniform_bits(3, "X1")
    const = Alphabet(("c",))
    J = JointDist(
        (three.vars[0], ("X2", const)), three.pmf.reshape(-1, 1).reshape(-1)
    )
    assert abs(bc_capacity_bound(J)) <= 1e-12


def test_capacity_bounds_invariant_under_relabeling():
    rng = np.random.default_rng(89)
    J = random_dist(rng, [4, 3], names=["X1", "X2"])
    perm1 = rng.permutation(4)
    perm2 = rng.permutation(3)
    arr = J.array()[np.ix_(perm1, perm2)]
    J2 = JointDist(J.vars, arr.reshape(-1))
    assert abs(ot_capacity_bound(J) - ot_capacity_bound(J2)) <= 1e-9
    assert abs(bc_capacity_bound(J) - bc_capacity_bound(J2)) <= 1e-9


# ---------------------------------------------------------------------------
# secure computing checks


def test_sc_check_constant_function_passes():
    rng = np.random.default_rng(97)
    J = random_dist(rng, [3, 3], names=["X1", "X2"])
    rep = sc_necessary_check(J, lambda s: "c", 0.05, 0.05, 0.05, 0.1, 0.1)
    assert rep.passed


def test_sc_check_parity_small_n_passes_large_n_fails():
    # independent uniform strings, elementwise parity, no shared key: the
    # condition caps the extractable bits near 6.8 for the best slack split,
    # so parity passes at n = 4 and fails at n = 7
    for n, expect_pass in ((4, True), (7, False)):
        u = uniform_bits(n, "X1")
        pmf = np.outer(u.pmf, u.pmf).reshape(-1)
        J = JointDist((u.vars[0], ("X2", u.vars[0][1])), pmf)

        def parity(sym):
            return format(int(sym[0], 2) ^ int(sym[1], 2), f"0{n}b")

        rep = sc_necessary_check(J, parity, 0.0, 0.0, 0.01, 0.4, 0.4)
        assert rep.passed == expect_pass, (n, rep.slack)


def test_sc_check_shared_key_instance_passes():
    J, parity = shared_key_instance(3, 3)
    rep = sc_necessary_check(J, parity, 0.05, 0.05, 0.05, 0.1, 0.1)
    assert rep.passed
    # the testing instance has constant ratio 2^kappa: beta is exact there
    pi = Partition.parse(rep.per_partition[0][0], 2)
    q = conditional_product(J, pi, None)
    mu = rep.params["mu"]
    cert = beta_epsilon(J, q, mu)
    assert abs(cert.beta - (1 - mu) * 2.0 ** (-3)) <= 1e-12

    with pytest.raises(PreconditionError):
        sc_necessary_check(J, parity, 0.3, 0.3, 0.2, 0.2, 0.2)


def test_partition_count_is_enum_length():
    assert [_partition_count(m) for m in range(2, 9)] == [
        len(enum_partitions(m)) for m in range(2, 9)]
    assert (_partition_count(11), _partition_count(12)) == (678_569, 4_213_596)


class _Scanned(Exception):
    pass


def test_sc_check_row_cap(monkeypatch):
    # a report over all partitions of 12 parties would hold 4,213,596 rows,
    # about 3.6 GB of Python objects: refused before the function's law or
    # any scan, which raise _Scanned here
    def scanned(*args, **kwargs):
        raise _Scanned

    monkeypatch.setattr(bounds, "_partition_scan", scanned)
    monkeypatch.setattr(bounds, "pushforward_function", scanned)
    J = JointDist(tuple((f"X{i}", BIT) for i in range(1, 13)), np.full(4096, 2.0 ** -12))
    with pytest.raises(CapExceededError) as info:
        sc_necessary_check(J, [0] * 4096, 0.02, 0.02, 0.05, 0.1, 0.1)
    assert str(info.value) == "4213596 partition rows exceed the cap 1000000"
    # one partition, and the 678,569 rows of 11 parties, stay under the cap
    with pytest.raises(_Scanned):
        sc_necessary_check(J, [0] * 4096, 0.02, 0.02, 0.05, 0.1, 0.1,
                           partition=Partition.parse("1|2,3,4,5,6,7,8,9,10,11,12", 12))
    J11 = JointDist(J.vars[:11], np.full(2048, 2.0 ** -11))
    with pytest.raises(_Scanned):
        sc_necessary_check(J11, [0] * 2048, 0.02, 0.02, 0.05, 0.1, 0.1)


def test_transmission_check_uniform_passes():
    msg = uniform_bits(4, "M")
    rep = secure_transmission_check(msg, 4, 0.0, 0.0, 0.05, 0.1, 0.1)
    assert rep.passed and rep.slack > 0


def test_transmission_check_mixed_message_values():
    # two-block message (n-bit half the time, 2n-bit otherwise): capping at
    # the exact water-filling level, not just deleting the heavy block,
    # gives H_min^{1/4} = log2(2^{2n+1} + 2^{n+1+...}) ... = log2(544) at n=4
    mix = mixed_length_message(4)
    res = h_min_smooth(mix, 0.25)
    assert abs(res.value - math.log2(544)) <= 1e-9
    assert res.value >= 8.0  # the worst-case-length claim: at least 2n bits

    # at n = 8 the check genuinely fails for kappa = 4 with a good split
    mix8 = mixed_length_message(8)
    bad = secure_transmission_check(mix8, 4, 0.0, 0.0, 0.25, 0.2, 0.2)
    assert not bad.passed
    # but kappa = 2n - 3 = 13 passes even at that split: the additive
    # constant in the condition exceeds the 4-bit gap to the entropy
    ok = secure_transmission_check(mix8, 13, 0.0, 0.0, 0.25, 0.2, 0.2)
    assert ok.passed


# ---------------------------------------------------------------------------
# IID tracking of the capacity formula


def test_cit_bound_tracks_capacity_on_iid_extensions():
    J = dsbs(0.11)
    cap, _ = sk_capacity_formula(J)
    eps, eta = 0.1, 0.05
    pi = Partition((frozenset([1]), frozenset([2])), 2)

    diffs = []
    for n in (4, 6, 8):
        Jn = iid_extend(J, n)
        groups = [[f"X1#{t}" for t in range(1, n + 1)],
                  [f"X2#{t}" for t in range(1, n + 1)]]
        fused = fuse_vars(Jn, groups, ["A", "B"])
        rep = cit_bound(fused, pi, eps, eta)
        diffs.append(abs(rep.value / n - cap))
    assert diffs[0] > diffs[1] > diffs[2]

    fuse = lambda d: fuse_vars(d, [list(d.var_names)], ["AB"])
    pair, prod = fuse(J), fuse(conditional_product(J, pi, None))
    for n in (50, 200):
        cert = beta_epsilon_iid(pair, prod, n, eps + eta)
        val = (cert.neg_log2_beta + 2 * math.log2(1 / eta)) / n
        assert abs(val - cap) < diffs[-1]
        if n == 200:
            assert abs(val - cap) <= 0.1


def test_ot_bc_reports_recomputable():
    rng = np.random.default_rng(101)
    J = random_dist(rng, [3, 3], names=["X1", "X2"])
    eps, d1, d2, xi = 0.02, 0.03, 0.01, 0.05
    ot = ot_bounds(J, eps, d1, d2, xi)
    two_log = 2 * math.log2(1 / xi)
    assert abs(ot.intermediates["bound1"]
               - (ot.intermediates["neg_log2_beta_1"] + two_log)) <= 1e-9
    assert abs(ot.intermediates["bound2"]
               - (ot.intermediates["neg_log2_beta_2"] + two_log)) <= 1e-9
    assert ot.value == min(ot.intermediates["bound1"], ot.intermediates["bound2"])
    bc = bc_bound(J, eps, d1, d2, xi)
    assert abs(bc.value - (bc.intermediates["neg_log2_beta"] + two_log)) <= 1e-9


def test_bound_report_json_forms():
    # every report's JSON lists its fields in order; a partition is written
    # as its string and the dicts are copies
    J = three_identical_bits()
    pi = Partition((frozenset([1, 2]), frozenset([3])), 3)
    rep = cit_bound(J, pi, 0.1, 0.05)
    js = rep.as_json()
    assert list(js) == ["kind", "value", "params", "partition", "intermediates"]
    assert js == {
        "kind": "cit",
        "value": rep.value,
        "params": {"eps": 0.1, "eta": 0.05, "z": []},
        "partition": "1,2|3",
        "intermediates": {
            "neg_log2_beta": rep.intermediates["neg_log2_beta"],
            "beta": rep.intermediates["beta"],
            "eps_plus_eta": 0.1 + 0.05,
            "num_blocks": 2,
        },
    }
    assert list(js["intermediates"]) == [
        "neg_log2_beta", "beta", "eps_plus_eta", "num_blocks",
    ]
    # P puts 1/2 on 000 and 111, Q^pi 1/4 on each of 000, 001, 110, 111
    assert abs(js["intermediates"]["beta"] - 0.85 / 2) <= 1e-12
    assert js["params"] is not rep.params
    assert js["intermediates"] is not rep.intermediates

    ot = ot_bounds(indep_bits(), 0.02, 0.03, 0.01, 0.05)
    js = ot.as_json()
    assert list(js) == ["kind", "value", "params", "partition", "intermediates"]
    assert js["kind"] == "ot" and js["partition"] is None
    assert js["params"] == {
        "eps": 0.02, "delta1": 0.03, "delta2": 0.01, "xi": 0.05,
        "eta": 0.02 + 0.03 + 2 * 0.01 + 0.05,
    }
    assert js["intermediates"] == ot.intermediates

    check = sc_necessary_check(
        J, ["0", "1", "1", "0", "1", "0", "0", "1"], 0.02, 0.02,
        xi=0.01, zeta=0.1, eta=0.1,
    )
    js = check.as_json()
    assert list(js) == [
        "passed", "lhs", "rhs", "slack", "partition", "per_partition", "params",
    ]
    assert js["partition"] == str(check.partition)
    assert (js["passed"], js["lhs"], js["rhs"], js["slack"]) == (
        check.passed, check.lhs, check.rhs, check.slack,
    )
    assert js["per_partition"] == [
        {"partition": s, "rhs": r, "slack": r - check.lhs}
        for s, (_, r, _) in zip(["1,2|3", "1,3|2", "1|2,3", "1|2|3"], check.per_partition)
    ]
    assert all(list(row) == ["partition", "rhs", "slack"] for row in js["per_partition"])
    assert js["params"] == {
        "eps": 0.02, "delta": 0.02, "xi": 0.01, "zeta": 0.1, "eta": 0.1,
        "mu": 0.02 + 0.02 + 2 * 0.01 + 0.1 + 0.1,
    }

    tr = secure_transmission_check(mixed_length_message(2), 1.0, 0.02, 0.02, 0.01, 0.1, 0.1)
    js = tr.as_json()
    assert js == {
        "passed": tr.passed, "lhs": tr.lhs, "rhs": tr.rhs, "slack": tr.rhs - tr.lhs,
        "partition": None, "per_partition": [],
        "params": {
            "kappa": 1.0, "eps": 0.02, "delta": 0.02, "xi": 0.01, "zeta": 0.1,
            "eta": 0.1, "mu": 0.02 + 0.02 + 2 * 0.01 + 0.1 + 0.1,
        },
    }
    assert list(js) == [
        "passed", "lhs", "rhs", "slack", "partition", "per_partition", "params",
    ]
    assert list(js["params"]) == ["kappa", "eps", "delta", "xi", "zeta", "eta", "mu"]


def test_cit_formula_monotonicity_shape():
    # for a fixed beta value the bound falls as eta grows, and for a fixed
    # eta it falls as beta grows
    def formula(beta, eta, l=2):
        return (-math.log2(beta) + l * math.log2(1 / eta)) / (l - 1)

    assert formula(0.3, 0.1) > formula(0.3, 0.2)
    assert formula(0.2, 0.1) > formula(0.4, 0.1)


def test_divergence_positive_when_different():
    rng = np.random.default_rng(103)
    from skconverse import tv_distance

    for _ in range(20):
        P, Q = random_dist(rng, [4]), random_dist(rng, [4])
        if tv_distance(P, Q) > 1e-2:
            assert divergence(P, Q) > 0


# ---------------------------------------------------------------------------
# input checks: each row is a call, the exception it raises and its message

_J2, _J3 = dsbs(0.1), random_dist(np.random.default_rng(0), [2, 2, 2])
_J3E = random_dist(np.random.default_rng(1), [2, 2, 2], eve="X3")
_PI2 = Partition((frozenset([1]), frozenset([2])), 2)
_U = Channel((("X1", BIT),), (("U", BIT),), {(0,): [1.0, 0.0], (1,): [0.0, 1.0]})
_M = JointDist((("M", BIT),), [0.5, 0.5])

INPUT_CHECKS = [
    (lambda: cit_bound(_J2, _PI2, 1.0, 0.05),
     PreconditionError, "eps must lie in [0, 1)"),
    (lambda: cit_bound(_J2, Partition((frozenset([1]), frozenset([2, 3])), 3), 0.1, 0.05),
     PreconditionError, "partition is over 3 parties but J has 2"),
    (lambda: cit_bound(_J2, _PI2, 0.1, 0.05, q=dsbs(0.1, names=("A", "B"))),
     PreconditionError, "supplied Q has a different variable structure"),
    (lambda: cit_bound(_J3E, _PI2, 0.1, 0.05, z=["X3", "X3"]),
     PreconditionError, "conditioning variables must be unique"),
    (lambda: cit_bound(_J3E, _PI2, 0.1, 0.05, z=["X3", "X3"], q=_J3E),
     PreconditionError, "conditioning variables must be unique"),
    (lambda: aux_singleshot_bound(_J2, _U, 0.5, 0.3, 0.1, 0.01, 0.01),
     PreconditionError, "need eps, delta >= 0 with eps + 2*delta < 1"),
    (lambda: aux_singleshot_bound(_J3, _U, 0.1, 0.05, 0.3, 0.05, 0.05),
     PreconditionError, "this bound is for two parties"),
    (lambda: aux_capacity_bound(_J3, _U),
     PreconditionError, "this bound is for two parties"),
    (lambda: ot_bounds(_J2, 0.1, 0.1, 0.1, 0.0),
     PreconditionError, "xi must be positive"),
    (lambda: bc_bound(_J2, 0.1, 0.1, 0.1, -0.1),
     PreconditionError, "xi must be positive"),
    (lambda: ot_bounds(_J2, -0.1, 0.0, 0.0, 0.1),
     PreconditionError, "error parameters must be nonnegative"),
    (lambda: ot_bounds(_J2, 0.3, 0.3, 0.2, 0.1),
     PreconditionError, "need eps + delta1 + 2*delta2 + xi < 1"),
    (lambda: bc_bound(_J2, 0.5, 0.3, 0.2, 0.1),
     PreconditionError, "need eps + delta1 + delta2 < 1"),
    (lambda: bc_bound(_J2, 0.4, 0.3, 0.2, 0.2),
     PreconditionError, "need eps + delta1 + delta2 + xi < 1"),
    (lambda: secure_transmission_check(_M, 1.0, 0.02, 0.02, 0.0, 0.1, 0.1),
     PreconditionError, "xi, zeta, eta must be positive"),
    (lambda: secure_transmission_check(_M, 1.0, -0.02, 0.02, 0.05, 0.1, 0.1),
     PreconditionError, "eps and delta must be nonnegative"),
    (lambda: secure_transmission_check(_M, -1.0, 0.02, 0.02, 0.05, 0.1, 0.1),
     PreconditionError, "kappa must be nonnegative"),
    (lambda: sc_necessary_check(_J3E, [0] * 8, 0.02, 0.02, 0.05, 0.1, 0.1),
     PreconditionError, "secure computing check expects no eve variable"),
    (lambda: even_slack_split(0.6, 0.4),
     PreconditionError, "eps + delta must be below 1"),
]


def test_cit_bound_takes_one_conditioning_name_as_a_string():
    J = random_dist(np.random.default_rng(4), [2, 2, 2], names=["X1", "X2", "Z"])
    assert cit_bound(J, _PI2, 0.1, 0.05, z="Z") == cit_bound(J, _PI2, 0.1, 0.05, z=["Z"])


@pytest.mark.parametrize("call, exc, message", INPUT_CHECKS,
                         ids=[m for _, _, m in INPUT_CHECKS])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
