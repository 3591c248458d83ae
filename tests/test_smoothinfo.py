import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skconverse import (
    Alphabet,
    JointDist,
    PreconditionError,
    SubDist,
    beta_epsilon,
    d_max,
    d_max_smooth,
    divergence,
    dmax_convergence_scan,
    h_min,
    h_min_cond,
    h_min_smooth,
    iid_extend,
)
from skconverse.probcore import Channel
from skconverse.smoothinfo import _SEGMENT_BLOCK, _dmax_cap_log, _waterfill_cap
from support import (
    BIT,
    apply_channel,
    ber,
    d_max_smooth_oracle,
    dense_pair,
    h_min_cond_grid_oracle,
    h_min_smooth_oracle,
    int_weight_pairs,
    one_var_dist,
    random_dist,
    uniform_bits,
)


def test_h_min_basics():
    assert abs(h_min(uniform_bits(3)) - 3.0) <= 1e-12
    point = JointDist((("X", BIT),), [1.0, 0.0])
    assert h_min(point) == 0.0
    tri = JointDist((("X", Alphabet(("a", "b", "c"))),), [0.5, 0.3, 0.2])
    assert abs(h_min(tri) - 1.0) <= 1e-12
    with pytest.raises(PreconditionError):
        h_min(SubDist((("X", BIT),), [0.0, 0.0]))


def test_h_min_cond_independent_and_copy():
    px = np.array([0.5, 0.3, 0.2])
    py = np.array([0.6, 0.4])
    J = JointDist(
        (("X", Alphabet(("a", "b", "c"))), ("Y", BIT)),
        np.outer(px, py).reshape(-1),
    )
    assert abs(h_min_cond(J, ["X"], ["Y"]) - (-math.log2(0.5))) <= 1e-12

    copy = JointDist((("X", BIT), ("Y", BIT)), [0.5, 0, 0, 0.5])
    assert abs(h_min_cond(copy, ["X"], ["Y"])) <= 1e-12


def test_h_min_cond_matches_grid_oracle():
    rng = np.random.default_rng(19)
    for _ in range(5):
        J = random_dist(rng, [4, 2], names=["X", "Y"])
        got = h_min_cond(J, ["X"], ["Y"])
        want = h_min_cond_grid_oracle(J, ["X"], ["Y"])
        assert abs(got - want) <= 1e-4


def test_h_min_smooth_hand_example():
    P = JointDist((("X", Alphabet(("a", "b", "c"))),), [0.5, 0.25, 0.25])
    res = h_min_smooth(P, 0.125)
    assert abs(res.value - 2.0) <= 1e-12
    assert np.allclose(res.witness.pmf, [0.25, 0.25, 0.25])
    assert abs(res.removed_mass - 0.25) <= 1e-12

    zero = h_min_smooth(P, 0.0)
    assert abs(zero.value - h_min(P)) <= 1e-12

    with pytest.raises(PreconditionError):
        h_min_smooth(P, 0.5)


def test_h_min_smooth_matches_bisection_oracle():
    rng = np.random.default_rng(37)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        P = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        eps = float(rng.uniform(0.0, 0.45))
        got = h_min_smooth(P, eps).value
        want = h_min_smooth_oracle(P.pmf, eps)
        assert abs(got - want) <= 1e-6


def test_h_min_smooth_witness_and_monotone():
    rng = np.random.default_rng(43)
    P = random_dist(rng, [6])
    values = []
    for eps in (0.0, 0.1, 0.2, 0.3, 0.4):
        res = h_min_smooth(P, eps)
        values.append(res.value)
        assert np.all(res.witness.pmf <= P.pmf + 1e-15)
        assert abs(res.removed_mass - 2 * eps) <= 1e-9
        # witness achieves the value exactly: largest mass equals the cap
        assert abs(-math.log2(res.witness.pmf.max()) - res.value) <= 1e-12
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_mass_addition_never_helps_binary_grid():
    # unrestricted witness search over the binary simplex cannot beat the
    # capped witness: justification for restricting to witnesses <= P
    P = ber(0.7)
    eps = 0.15
    best = math.inf
    for a in np.linspace(0, 1, 401):
        for b in np.linspace(0, 1, 401):
            if a + b > 1 + 1e-12:
                continue
            if 0.5 * (abs(0.7 - a) + abs(0.3 - b)) <= eps:
                best = min(best, max(a, b))
    assert h_min_smooth(P, eps).value >= -math.log2(best) - 5e-3


def test_d_max_values():
    P, Q = ber(0.6), ber(0.5)
    assert d_max(P, P) == 0.0
    assert abs(d_max(P, Q) - math.log2(1.2)) <= 1e-12
    rng = np.random.default_rng(47)
    for _ in range(100):
        A, B = random_dist(rng, [5]), random_dist(rng, [5])
        assert d_max(A, B) >= divergence(A, B) - 1e-12
    # support violation
    pa = JointDist((("X", BIT),), [1.0, 0.0])
    pb = JointDist((("X", BIT),), [0.0, 1.0])
    assert d_max(pa, pb) == math.inf


def test_d_max_smooth_hand_example_and_limit():
    P, Q = ber(0.6), ber(0.5)
    res = d_max_smooth(P, Q, 0.2)
    assert abs(res.value - math.log2(0.8)) <= 1e-12
    assert abs(res.removed_mass - 0.2) <= 1e-12
    tiny = d_max_smooth(P, Q, 1e-12)
    assert abs(tiny.value - d_max(P, Q)) <= 1e-9


def test_d_max_smooth_matches_bisection_oracle():
    rng = np.random.default_rng(59)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        P = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        Q = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        eps = float(rng.uniform(0.05, 0.6))
        got = d_max_smooth(P, Q, eps).value
        want = d_max_smooth_oracle(P.pmf, Q.pmf, eps)
        if want == math.inf:
            assert got == math.inf
        else:
            assert abs(got - want) <= 1e-9


def _segment_loop(lp, lq, target):
    """The scalar segment loop the blocked search in _dmax_cap_log replaced.

    Kept as its exact reference, on the same kept cells (P and Q both
    positive): it walks every segment j (first j outcomes by ratio capped
    at p, the rest at q*t) and returns at the first that reaches ``target``
    at its breakpoint or brackets its solution.
    """
    ratio = lp - lq
    order = np.argsort(ratio, kind="stable")
    lq, ratio = lq[order], ratio[order]
    p_cum = np.concatenate([[0.0], np.cumsum(np.exp2(lp[order]))])
    q_tail = np.full(lq.size + 1, -math.inf)
    q_tail[:-1] = np.logaddexp2.accumulate(lq[::-1])[::-1]
    for j in range(lq.size + 1):
        if j > 0 and p_cum[j] >= target - 1e-15:
            return float(ratio[j - 1])
        if q_tail[j] == -math.inf:
            continue
        log_t = math.log2(target - p_cum[j]) - q_tail[j]
        lo = ratio[j - 1] if j > 0 else -math.inf
        hi = ratio[j] if j < lq.size else math.inf
        if lo - 1e-12 <= log_t <= hi + 1e-12:
            return float(min(max(log_t, lo), hi))
    return float(ratio[-1])


def test_dmax_segment_search_across_blocks():
    rng = np.random.default_rng(83)
    for segments in (_SEGMENT_BLOCK - 1, _SEGMENT_BLOCK, _SEGMENT_BLOCK + 1, 2 * _SEGMENT_BLOCK + 1):
        p, q = rng.random(segments) ** 2, rng.random(segments) + 0.05
        # one cell with a fifth of the P-mass and the top ratio: for eps below
        # that it stays uncapped, so the answer lies in the last segment
        p[0], q[0] = p[1:].sum() / 4, 1e-3 * q.mean()
        # cells outside the segments: P only (mass 1e-5), Q only, neither
        p = np.append(p / p.sum() * (1 - 1e-5), [1e-5, 0.0, 0.0])
        q = np.append(q / q.sum(), [0.0, 0.5, 0.0])
        q /= q.sum()
        keep = (p > 0) & (q > 0)
        lp, lq = np.log2(p[keep]), np.log2(q[keep])
        for eps in (1e-3, 0.1, 0.3, 0.6, 0.95):
            got = _dmax_cap_log(lp.copy(), lq.copy(), 1.0 - eps)  # it overwrites both
            assert got == _segment_loop(lp, lq, 1.0 - eps), (segments, eps)
            assert abs(got - d_max_smooth_oracle(p, q, eps)) <= 1e-9, (segments, eps)


_DENSE = dense_pair(18, 5)

#: (call, ceiling): peak traced memory above the inputs, in pmf-sized float64
#: arrays, of each dense call at 2^18 cells with ties and zeros in P and Q.
#: The measured peaks are about 5.1 (dmax), 3.2 (hmin) and 4.25 (beta).
WORKING_SETS = {
    "d_max_smooth": (lambda P, Q: d_max_smooth(P, Q, 0.2), 7.0),
    "h_min_smooth": (lambda P, Q: h_min_smooth(P, 0.1), 4.0),
    "beta_epsilon": (lambda P, Q: beta_epsilon(P, Q, 0.1), 4.5),
}


@pytest.mark.parametrize("name", list(WORKING_SETS))
def test_dense_working_set_ceilings(name):
    call, ceiling = WORKING_SETS[name]
    P, Q = _DENSE
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(P, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    arrays = (peak - before) / P.pmf.nbytes
    assert arrays <= ceiling, f"{name} peaks at {arrays:.2f} pmf-sized arrays"


def test_d_max_smooth_infinite_when_offsupport_mass_exceeds_eps():
    five = Alphabet(tuple("abcde"))
    P = JointDist((("X", five),), [0.4, 0.3, 0.3, 0.0, 0.0])
    Q = JointDist((("X", five),), [0.0, 0.0, 0.0, 0.5, 0.5])
    assert d_max_smooth(P, Q, 0.3).value == math.inf


def test_dmax_cap_log_target_reached_without_mass():
    half = np.log2([0.5, 0.5])
    assert _dmax_cap_log(half.copy(), half.copy(), 0.0) == -math.inf
    assert _dmax_cap_log(half.copy(), half.copy(), -0.25) == -math.inf


def test_d_max_smooth_coverage_within_slack_at_a_breakpoint():
    # Sorted by ratio the cells are a, mid, b; capping a and mid covers
    # 1 - b, which is 5e-16 short of the target 1 - eps: within MASS_SLACK, so
    # the answer is mid's breakpoint and not the solve on b's tiny Q-mass
    b = 0.3
    three = Alphabet(tuple("abc"))
    P = JointDist((("X", three),), [1 - b - 1e-6, 1e-6, b])
    Q = JointDist((("X", three),), [1 - 1e-7 - 1e-30, 1e-7, 1e-30])
    res = d_max_smooth(P, Q, b - 5e-16)
    assert res.value == float(np.log2(1e-6) - np.log2(1e-7))
    assert abs(res.witness.pmf.sum() - (1 - b)) <= 1e-15


def test_d_max_smooth_target_just_above_the_coverable_mass():
    # Q covers 0.7 of P, and the target 0.7 + 9e-13 is within the 1e-12 that
    # counts as covered.  No segment's solve lies in its interval, since each
    # asks for more than P's mass, so the search returns the largest ratio.
    two = Alphabet(("a", "b"))
    P = JointDist((("X", two),), [0.7, 0.3])
    Q = JointDist((("X", two),), [1.0, 0.0])
    assert d_max_smooth(P, Q, 0.3 - 9e-13).value == math.log2(0.7)


def test_d_max_smooth_witness_and_monotone():
    rng = np.random.default_rng(61)
    P, Q = random_dist(rng, [6]), random_dist(rng, [6])
    values = []
    for eps in (0.05, 0.1, 0.2, 0.4):
        res = d_max_smooth(P, Q, eps)
        values.append(res.value)
        w = res.witness.pmf
        assert np.all(w <= P.pmf + 1e-15)
        assert abs(w.sum() - (1 - eps)) <= 1e-9
        # cap binds on the support of Q
        mask = Q.pmf > 0
        assert abs(np.max(w[mask] / Q.pmf[mask]) - 2.0 ** res.value) <= 1e-9
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_d_max_smooth_data_processing():
    rng = np.random.default_rng(67)
    for _ in range(100):
        P, Q = random_dist(rng, [4]), random_dist(rng, [4])
        rows = {}
        for i in range(4):
            r = rng.random(3) + 0.01
            rows[(i,)] = r / r.sum()
        W = Channel(P.vars, (("Y", Alphabet(("0", "1", "2"))),), rows)
        eps = float(rng.uniform(0.05, 0.5))
        before = d_max_smooth(P, Q, eps).value
        after = d_max_smooth(apply_channel(P, W), apply_channel(Q, W), eps).value
        assert after <= before + 1e-9


def test_dmax_scan():
    # P = Q: the witness may shed eps of mass, so the exact per-n value is
    # log2(1-eps)/n, vanishing with n rather than identically zero
    P = ber(0.4)
    rows = dmax_convergence_scan(P, P, 0.25, [10, 50])
    for n, v in rows:
        assert abs(v - math.log2(0.75) / n) <= 1e-12
    assert abs(rows[1][1]) < abs(rows[0][1])

    kl = divergence(ber(0.3), ber(0.5))
    rows = dmax_convergence_scan(ber(0.3), ber(0.5), 0.25, [2000])
    assert abs(rows[0][1] - kl) <= 0.02

    # nonincreasing in eps at fixed n
    vals = [
        dmax_convergence_scan(ber(0.3), ber(0.5), e, [200])[0][1]
        for e in (0.1, 0.25, 0.5)
    ]
    assert vals[0] >= vals[1] - 1e-12 >= vals[2] - 2e-12


def test_dmax_scan_rows_are_d_max_smooth_of_the_product():
    # rows solve against P^n's mass minus eps, as d_max_smooth does against
    # P's: the n = 1 row is d_max_smooth of P, the n = 2 row half that of P^2
    rng = np.random.default_rng(29)
    pairs = [([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])]
    pairs += [(rng.random(4) + 0.01, rng.random(4) + 0.01) for _ in range(3)]
    for p, q in pairs:
        p, q = np.asarray(p) / np.sum(p), np.asarray(q) / np.sum(q)
        for off in (-9e-10, -6e-10, -4.5e-10, -1e-12, 0.0, 4e-10, 9e-10):
            P = one_var_dist(p + np.eye(p.size)[-1] * off)
            Q = one_var_dist(q)
            for eps in (0.05, 0.3, 0.6):
                rows = dict(dmax_convergence_scan(P, Q, eps, [1, 2]))
                one = d_max_smooth(P, Q, eps).value
                assert abs(rows[1] - one) <= 1e-12, (off, eps)
                if abs(off) < 5e-10:  # P^2 is off 1 by 2 off, within 1e-9
                    two = d_max_smooth(iid_extend(P, 2), iid_extend(Q, 2), eps).value
                    assert abs(rows[2] - two / 2) <= 1e-12, (off, eps)


@settings(max_examples=200, deadline=None)
@given(
    int_weight_pairs(),
    st.floats(0.0, 0.49),
    st.floats(0.0, 0.99, exclude_min=True),
)
def test_smoothing_witnesses_sit_at_distance_eps_property(pair, eps_h, eps_d):
    # witnesses only remove mass: h_min_smooth removes 2*eps (distance eps);
    # a finite d_max_smooth value removes eps, the least mass its constraint
    # sum min(P, Q 2^lam) >= 1 - eps allows
    P, Q = pair
    h = h_min_smooth(P, eps_h)
    assert np.all(h.witness.pmf <= P.pmf)
    removed = float(P.pmf.sum() - h.witness.pmf.sum())
    assert abs(removed - 2 * eps_h) <= 1e-9
    assert abs(0.5 * float(np.abs(P.pmf - h.witness.pmf).sum()) - eps_h) <= 1e-9
    assert h.removed_mass == removed

    d = d_max_smooth(P, Q, eps_d)
    assert np.all(d.witness.pmf <= P.pmf)
    if math.isfinite(d.value):
        assert abs(float(P.pmf.sum() - d.witness.pmf.sum()) - eps_d) <= 1e-9
    else:
        assert d.removed_mass > eps_d


# ---------------------------------------------------------------------------
# input checks: each row is a call, the exception it raises and its message

_PAIR = random_dist(np.random.default_rng(0), [2, 2])
_P, _Q = ber(0.3), ber(0.6)

INPUT_CHECKS = [
    (lambda: h_min_cond(_PAIR, ["X1"], ["X1"]),
     PreconditionError, "x_vars and y_vars must partition the variables"),
    (lambda: h_min_cond(SubDist(_PAIR.vars, [0.0] * 4), ["X1"], ["X2"]),
     PreconditionError, "conditional min-entropy of a zero function"),
    (lambda: h_min_smooth(SubDist(_P.vars, [0.0, 0.0]), 0.0),
     PreconditionError, "min-entropy of an identically zero function"),
    (lambda: h_min_smooth(SubDist(_P.vars, [0.05, 0.05]), 0.2),
     PreconditionError, "smoothing budget would remove all mass"),
    (lambda: _waterfill_cap(np.array([0.5, 0.5]), 2.0),
     PreconditionError, "water-filling budget exceeds removable mass"),
    (lambda: d_max_smooth(_P, _Q, 0.0),
     PreconditionError, "smoothing parameter must lie in (0, 1)"),
    (lambda: dmax_convergence_scan(_PAIR, _PAIR, 0.1, [1]),
     PreconditionError, "scan expects one shared variable"),
    (lambda: dmax_convergence_scan(_P, _Q, 1.0, [1]),
     PreconditionError, "smoothing parameter must lie in (0, 1)"),
    (lambda: dmax_convergence_scan(_P, _Q, 0.1, [3, 0, -1]),
     PreconditionError, "n must be >= 1"),
]


@pytest.mark.parametrize("call, exc, message", INPUT_CHECKS,
                         ids=[m for _, _, m in INPUT_CHECKS])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
