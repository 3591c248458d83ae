"""Top-level validation suite: one test per acceptance criterion.

Each test prints a "[criterion NN] PASS/FAIL" line (run with -s to see them
for passing tests).  All expected values are produced by independent
oracles in tests/support.py or by closed forms derived in the test body.

Criteria 8a/8b check the mixed-length message example against closed forms
derived in their docstrings: the smoothed min-entropy log2(2^{n+1} + 2^{2n+1})
(log2 544 at n = 4), and the transmission check's slack, which is positive
at kappa = 2n-3 for every n and negative at n = 8, kappa = 0.
"""

import math
import time

import numpy as np

from skconverse import (
    Alphabet,
    Channel,
    JointDist,
    bc_bound,
    bc_capacity_bound,
    beta_epsilon,
    beta_epsilon_iid,
    d_max_smooth,
    dmax_convergence_scan,
    eval_sk_security,
    fuzz_converse,
    h_min_smooth,
    ideal_bc_protocol,
    ideal_ot_protocol,
    measure_bc,
    measure_ot,
    mutual_information,
    ot_capacity_bound,
    reduce_bc_to_sk,
    reduce_ot_to_sk,
    secure_transmission_check,
    sk_capacity_formula,
)
from skconverse.protosim import ideal_ot_correlation
from support import (
    BIT,
    apply_channel,
    ber,
    beta_oracle,
    d_max_smooth_oracle,
    h_min_smooth_oracle,
    random_dist,
)


def report(num: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_beta_oracle_equivalence():
    """200 random pairs, |X| <= 6, eps in {0, 0.1, 0.3}, within 1e-9, < 5 s."""
    rng = np.random.default_rng(20240901)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 7))
        P = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        Q = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        for eps in (0.0, 0.1, 0.3):
            got = beta_epsilon(P, Q, eps).beta
            want = beta_oracle(P, Q, eps)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    report(
        "01", worst <= 1e-9 and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_stein_reproduction():
    """n = 10^4 type-class run lands within 0.01 of the 0.11870-bit limit, < 2 s;
    the smooth max-divergence scan is within 0.02 of the same limit at n = 2000."""
    P, Q = ber(0.3), ber(0.5)
    t0 = time.perf_counter()
    cert = beta_epsilon_iid(P, Q, 10_000, 0.1)
    elapsed = time.perf_counter() - t0
    val = cert.neg_log2_beta / 10_000
    ok1 = abs(val - 0.11870) <= 0.01 and elapsed < 2.0

    rows = dmax_convergence_scan(P, Q, 0.25, [2000])
    ok2 = abs(rows[0][1] - 0.11870) <= 0.02
    report(
        "02", ok1 and ok2,
        f"stein {val:.5f} in {elapsed:.2f}s; dmax/n at 2000 = {rows[0][1]:.5f}",
    )


def test_criterion_03_no_dispersion_exactness():
    """Constant likelihood ratio 2^D on supp(P): beta = (1-eps) 2^-D to 1e-12."""
    five = Alphabet(tuple("abcde"))
    P = JointDist((("X", five),), [0.25, 0.25, 0.25, 0.25, 0.0])
    Q = JointDist((("X", five),), [0.125, 0.125, 0.125, 0.125, 0.5])
    worst = 0.0
    for eps in (0.0, 0.1, 0.3, 0.6):
        cert = beta_epsilon(P, Q, eps)
        worst = max(worst, abs(cert.beta - (1 - eps) * 0.5))
        worst = max(
            worst, abs(cert.neg_log2_beta - (1.0 + math.log2(1 / (1 - eps))))
        )
    report("03", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_04_data_processing():
    """100 random channels: both the testing DPI and the smooth-divergence DPI."""
    rng = np.random.default_rng(20240904)
    violations = 0
    for _ in range(100):
        P, Q = random_dist(rng, [4]), random_dist(rng, [4])
        rows = {}
        for i in range(4):
            r = rng.random(3) + 0.01
            rows[(i,)] = r / r.sum()
        W = Channel(P.vars, (("Y", Alphabet(("0", "1", "2"))),), rows)
        PW, QW = apply_channel(P, W), apply_channel(Q, W)
        eps = float(rng.uniform(0.02, 0.5))
        if beta_epsilon(P, Q, eps).beta > beta_epsilon(PW, QW, eps).beta + 1e-9:
            violations += 1
        if d_max_smooth(PW, QW, eps).value > d_max_smooth(P, Q, eps).value + 1e-9:
            violations += 1
    report("04", violations == 0, f"{violations} violations")


def test_criterion_05_smooth_entropy_oracles():
    """h_min_smooth and d_max_smooth vs bisection oracles, 100 cases, 1e-6."""
    rng = np.random.default_rng(20240905)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        P = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        Q = random_dist(rng, [k], full_support=bool(rng.integers(0, 2)))
        eps_h = float(rng.uniform(0.0, 0.45))
        worst = max(
            worst,
            abs(h_min_smooth(P, eps_h).value - h_min_smooth_oracle(P.pmf, eps_h)),
        )
        eps_d = float(rng.uniform(0.05, 0.6))
        got = d_max_smooth(P, Q, eps_d).value
        want = d_max_smooth_oracle(P.pmf, Q.pmf, eps_d)
        if math.isinf(want):
            worst = max(worst, 0.0 if math.isinf(got) else math.inf)
        else:
            worst = max(worst, abs(got - want))
    report("05", worst <= 1e-6, f"max deviation {worst:.2e}")


def test_criterion_06_capacity_formula():
    """m=2 equals I(X1;X2) within 1e-9 on 100 random sources; exact anchors."""
    rng = np.random.default_rng(20240906)
    worst = 0.0
    for _ in range(100):
        k1, k2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        J = random_dist(rng, [k1, k2], names=["X1", "X2"],
                        full_support=bool(rng.integers(0, 2)))
        v, _ = sk_capacity_formula(J)
        worst = max(worst, abs(v - mutual_information(J, "X1", "X2")))

    pmf = np.zeros(8)
    pmf[0] = pmf[7] = 0.5
    three, _ = sk_capacity_formula(
        JointDist((("X1", BIT), ("X2", BIT), ("X3", BIT)), pmf)
    )
    indep, _ = sk_capacity_formula(
        JointDist((("X1", BIT), ("X2", BIT)), [0.25] * 4)
    )
    ok = worst <= 1e-9 and three == 1.0 and abs(indep) <= 1e-12
    report("06", ok, f"max |val - I| {worst:.2e}, identical-bits {three}, indep {indep:.1e}")


def test_criterion_07_ot_bc_structural_bounds():
    """Ideal correlation: both capacities exactly 1; commitment-from-OT bound
    reproduces the additive-logarithmic slack form exactly."""
    J1 = ideal_ot_correlation(1)
    ot_cap = ot_capacity_bound(J1)
    bc_cap = bc_capacity_bound(J1)
    ok = abs(ot_cap - 1.0) <= 1e-12 and abs(bc_cap - 1.0) <= 1e-12

    detail = f"ot {ot_cap}, bc {bc_cap}"
    for n in (1, 2):
        Jn = ideal_ot_correlation(n)
        eps, d1, d2, xi = 0.05, 0.05, 0.05, 0.1
        rep = bc_bound(Jn, eps, d1, d2, xi)
        expect = (
            n + math.log2(1 / (1 - eps - d1 - d2 - xi)) + 2 * math.log2(1 / xi)
        )
        ok = ok and abs(rep.value - expect) <= 1e-9
        detail += f"; n={n} slack-form dev {abs(rep.value - expect):.1e}"
    report("07", ok, detail)


def _mixed_message(n: int) -> JointDist:
    short, long = 1 << n, 1 << (2 * n)
    syms = tuple(f"s{i}" for i in range(short)) + tuple(f"l{i}" for i in range(long))
    pmf = [0.5 / short] * short + [0.5 / long] * long
    return JointDist((("Y", Alphabet(syms)),), pmf)


def test_criterion_08a_mixed_message_entropy():
    """H_min^{1/4} of the mixed-length message (2^n short symbols of mass
    2^{-n-1}, 2^{2n} long ones of mass 2^{-2n-1}) equals
    log2(2^{n+1} + 2^{2n+1}) for n = 1..8; log2 544 = 9.0875 at n = 4.

    Deleting the heavy block (mass 1/2 = the full budget 2*eps) leaves a
    witness with min-entropy 2n+1, but h_min_smooth maximizes over the
    eps-ball.  Water-filling caps every symbol at the level c solving
    2^n (2^{-n-1} - c) + 2^{2n} (2^{-2n-1} - c) = 1/2, i.e.
    c = 1 / (2 (2^n + 2^{2n})) <= 2^{-2n-1}, which gives the closed form.
    It lies strictly above 2n+1, so a solver returning the deletion
    witness fails here; the bisection oracle agrees, and the
    worst-case-length claim value >= 2n holds.
    """
    worst = 0.0
    for n in range(1, 9):
        mix = _mixed_message(n)
        value = h_min_smooth(mix, 0.25).value
        want = math.log2(2 ** (n + 1) + 2 ** (2 * n + 1))
        assert abs(value - h_min_smooth_oracle(mix.pmf, 0.25)) <= 1e-6
        assert value >= 2 * n
        assert value > 2 * n + 1
        worst = max(worst, abs(value - want))
    report(
        "08a", worst <= 1e-9,
        f"max |H_min^0.25 - log2(2^(n+1) + 2^(2n+1))| over n=1..8 {worst:.1e}",
    )


def _transmission_slack(n, kappa, xi, zeta, eta, mu):
    """Closed-form slack of secure_transmission_check on _mixed_message(n),
    valid for xi < 1/4 while the cap 2^{-n} (1/2 - 2 xi) >= 2^{-2n-1}."""
    assert 2 * xi < 0.5 and 0.5 - 2 * xi >= 2.0 ** (-n - 1)
    h_min = n + math.log2(1 / (0.5 - 2 * xi))
    return (
        kappa + 2 * math.log2(1 / eta) + math.log2(1 / (1 - mu))
        + 2 * math.log2(1 / (2 * zeta)) + 1 - h_min
    )


def test_criterion_08b_transmission_check_failure():
    """The transmission check's verdict and slack on the mixed-length
    message match the closed form: it passes for kappa = 2n-3 at n = 4 on
    every split of mu = 0.45, and fails at n = 8, kappa = 0 for
    (eta, zeta, xi) = (0.2, 0.225, 0.0125).

    For xi < 1/4 the water-filling cap lands in the heavy block at
    c = 2^{-n} (1/2 - 2 xi) (while c >= 2^{-2n-1}), so H_min^xi =
    n + log2(1/(1/2 - 2 xi)) and the slack is kappa + 2 log2(1/eta)
    + log2(1/(1-mu)) + 2 log2(1/(2 zeta)) + 1 - n - log2(1/(1/2 - 2 xi)).

    The check passes at kappa = 2n-3 for every n: in general the short
    block keeps at most 2^n c, so 1 - 2 xi <= 2^n c + 1/2 and
    H_min^xi <= n + log2(1/(1/2 - 2 xi)) <= n + log2(20) with 2 xi <= 0.45;
    with eta + zeta <= 0.45 the additive terms are at least
    2 log2(1/(2 * 0.225^2)) + log2(1/0.55) + 1 = 8.47 bits.  The slack is
    therefore at least kappa - n + 4.1, which is n + 1.1 > 0 at
    kappa = 2n-3.  At n = 8 the same bound leaves room for a failure at
    kappa = 0, where the closed form gives slack -0.2636; kappa = 1
    passes with 0.7364.
    """
    n, kappa, budget = 4, 2 * 4 - 3, 0.45
    mix = _mixed_message(n)
    worst = 0.0
    min_slack = math.inf
    grid = [i / 40 for i in range(1, 40)]
    for eta in grid:
        for zeta in grid:
            two_xi = budget - eta - zeta
            if two_xi <= 0 or zeta >= 0.5:
                continue
            rep = secure_transmission_check(
                mix, kappa, 0.0, 0.0, two_xi / 2, zeta, eta
            )
            want = _transmission_slack(
                n, kappa, two_xi / 2, zeta, eta, two_xi + zeta + eta
            )
            assert rep.passed == (want > 0)
            worst = max(worst, abs(rep.slack - want))
            min_slack = min(min_slack, rep.slack)
    assert min_slack >= kappa - n + 4.1

    big = _mixed_message(8)
    verdicts = []
    for k in (0, 1):
        rep = secure_transmission_check(big, k, 0.0, 0.0, 0.0125, 0.225, 0.2)
        want = _transmission_slack(8, k, 0.0125, 0.225, 0.2, 0.45)
        assert rep.passed == (want > 0)
        worst = max(worst, abs(rep.slack - want))
        verdicts.append((rep.passed, rep.slack))
    ok = worst <= 1e-9 and not verdicts[0][0] and verdicts[1][0]
    report(
        "08b", ok,
        f"max |slack - closed form| {worst:.1e}; n=4 kappa=5 min slack "
        f"{min_slack:.3f}; n=8 kappa=0 slack {verdicts[0][1]:.6f}, "
        f"kappa=1 slack {verdicts[1][1]:.6f}",
    )


def test_criterion_09_converse_fuzzing():
    """500 seeded protocols: no converse violation at eta = 0.05, and the
    acceptance-region and criterion-equivalence relations hold throughout;
    < 60 s."""
    t0 = time.perf_counter()
    rep = fuzz_converse(count=500, seed=20240909, eta=0.05)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and elapsed < 60.0
    report(
        "09", ok,
        f"{rep.converse_violations}/{rep.region_test_violations}/{rep.criteria_relation_violations} "
        f"violations, min slack {rep.min_converse_slack:.3f}, {elapsed:.1f}s",
    )


def test_criterion_10_reductions():
    """Reductions of the ideal protocols meet the reduction arithmetic exactly."""
    ok = True
    detail = []
    for l in (1, 2):
        J, otp = ideal_ot_protocol(l)
        base = measure_ot(J, otp)
        budget = base.eps + base.delta1 + 2 * base.delta2
        for variant in (1, 2):
            red = reduce_ot_to_sk(J, otp, variant=variant)
            rep = eval_sk_security(red.dist, red.protocol)
            ok = ok and rep.eps <= budget + 1e-12
            detail.append(f"ot{variant}@l={l}: eps {rep.eps:.1e}<= {budget:.1e}")

        Jb, bcp = ideal_bc_protocol(l)
        mb = measure_bc(Jb, bcp)
        redb = reduce_bc_to_sk(Jb, bcp)
        skb = eval_sk_security(redb.dist, redb.protocol)
        ok = ok and skb.eps_rec <= mb.eps + mb.delta2 + 1e-12
        ok = ok and skb.delta_sec <= mb.delta1 + 1e-12
        detail.append(
            f"bc@l={l}: ({skb.eps_rec:.1e},{skb.delta_sec:.1e}) <= "
            f"({mb.eps + mb.delta2:.1e},{mb.delta1:.1e})"
        )
    report("10", ok, "; ".join(detail))
