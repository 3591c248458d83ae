import dataclasses
import hashlib
import itertools
import json
import math
from collections import defaultdict

import numpy as np
import pytest

from skconverse import (
    Alphabet,
    JointDist,
    LocalRand,
    Partition,
    PreconditionError,
    Protocol,
    OTProtocol,
    check_converse,
    enum_partitions,
    eval_sk_security,
    fuzz_converse,
    ideal_bc_protocol,
    ideal_ot_protocol,
    interactive_independence_check,
    leftover_hash,
    leftover_hash_search,
    acceptance_region_test,
    cit_bound,
    cit_bound_best,
    measure_bc,
    measure_ot,
    reduce_bc_to_sk,
    reduce_ot_to_sk,
)
from skconverse import bounds, cli, protosim
from skconverse.errors import CapExceededError
from skconverse.probcore import conditional_product, fuse_vars, marginal
from skconverse.protosim import (
    _product_tv,
    _region_mass,
    _tv,
    ideal_ot_correlation,
    protocol_from_json,
    protocol_law,
    protocol_to_json,
    random_sk_instance,
)
from skconverse.structure import mss
from support import (
    BIT, bc_decoder_oracle, bc_oracle, bc_pass_oracle, disagreeing_keys, independence_oracle,
    laws_oracle, leftover_hash_oracle, noisy_bc, ot_oracle, posteriors_oracle, product_oracle,
    random_dist, region_test_oracle, security_oracle, tv_oracle,
)


def shared_bit() -> JointDist:
    return JointDist((("X1", BIT), ("X2", BIT)), [0.5, 0, 0, 0.5])


def indep_bits() -> JointDist:
    return JointDist((("X1", BIT), ("X2", BIT)), [0.25] * 4)


def observation_keys(m=2) -> Protocol:
    return Protocol(
        num_parties=m,
        obs_vars=tuple((f"X{i+1}",) for i in range(m)),
        rounds=0,
        message_maps={},
        key_maps=tuple((lambda obs, rand, tr: obs[0]) for _ in range(m)),
        key_symbols=("0", "1"),
    )


def test_eval_perfect_key():
    rep = eval_sk_security(shared_bit(), observation_keys())
    assert rep.eps == 0.0 and rep.eps_rec == 0.0 and rep.delta_sec == 0.0
    assert rep.key_len_bits == 1.0


def test_eval_independent_bits_half():
    rep = eval_sk_security(indep_bits(), observation_keys())
    assert abs(rep.eps - 0.5) <= 1e-12
    assert abs(rep.eps_rec - 0.5) <= 1e-12
    assert rep.delta_sec == 0.0  # each key alone is uniform


def test_eval_constant_keys_zero_length():
    p = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=0,
        message_maps={},
        key_maps=(lambda o, r, t: "k", lambda o, r, t: "k"),
        key_symbols=("k",),
    )
    rep = eval_sk_security(indep_bits(), p)
    assert rep.eps == 0.0 and rep.key_len_bits == 0.0


def test_proposition_relations_on_fuzz():
    for i in range(40):
        J, proto = random_sk_instance([99, i], m=2 + (i % 2), rounds=1 + (i % 2))
        rep = eval_sk_security(J, proto)
        assert rep.eps <= rep.eps_rec + rep.delta_sec + 1e-12
        assert rep.eps_rec <= rep.eps + 1e-12
        assert rep.delta_sec <= rep.eps + 1e-12


def test_check_converse_perfect_key():
    rep = check_converse(shared_bit(), observation_keys(), eta=0.05)
    assert rep.ok and rep.bound >= 1.0


def test_check_converse_trivial_when_eps_large():
    # keys disagree deterministically: eps close to 1, eta leaves no room
    p = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=0,
        message_maps={},
        key_maps=(lambda o, r, t: "0", lambda o, r, t: "1"),
        key_symbols=("0", "1"),
    )
    rep = check_converse(shared_bit(), p, eta=0.3)
    assert rep.trivial and rep.ok


def perfect_key(m: int, bits: int) -> tuple[JointDist, Protocol]:
    """m parties observe the same uniform ``bits``-bit key, one variable per
    bit, and output it without a message."""
    names = [f"X{i}b{b}" for i in range(1, m + 1) for b in range(bits)]
    pmf = np.zeros(2 ** len(names))
    for key in range(2 ** bits):
        pmf[int(format(key, f"0{bits}b") * m, 2)] = 2.0 ** -bits
    J = JointDist(tuple((n, BIT) for n in names), pmf)
    p = Protocol(
        num_parties=m,
        obs_vars=tuple(tuple(names[i * bits:(i + 1) * bits]) for i in range(m)),
        rounds=0,
        message_maps={},
        key_maps=tuple((lambda o, r, t: "".join(o)) for _ in range(m)),
        key_symbols=tuple("".join(k) for k in itertools.product("01", repeat=bits)),
    )
    return J, p


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_perfect_key_converse_slack(m):
    # the singletons give beta = (1 - eta) 2^-(m-1)bits, so the bound exceeds
    # the key length by (log2 1/(1-eta) + m log2 1/eta) / (m-1), and no
    # coarser partition comes closer
    singletons = Partition(tuple(frozenset([i]) for i in range(1, m + 1)), m)
    for bits in (1, 2):
        J, p = perfect_key(m, bits)
        for eta in (0.05, m / (m + 1)):
            rep = check_converse(J, p, eta)
            assert rep.eps == 0.0 and rep.key_len_bits == bits
            assert rep.partition == singletons
            slack = (math.log2(1 / (1 - eta)) + m * math.log2(1 / eta)) / (m - 1)
            assert abs(rep.slack - slack) <= 1e-9
    if m == 5:  # the 5-party key at eta = 5/6 sits 0.975 bits below its bound
        assert 0.97 < check_converse(*perfect_key(5, 1), 5 / 6).slack < 1.0


def noisy_keys(m: int, flip: float, by_key_map: bool) -> tuple[JointDist, Protocol]:
    """m copies of one uniform bit, each flipped independently with
    probability ``flip``: by the source, each party outputting its bit, or
    by each party's stochastic key map on an exact copy."""
    names = [f"X{i}" for i in range(1, m + 1)]
    q = 0.0 if by_key_map else flip
    pmf = np.zeros(2 ** m)
    for x in range(2 ** m):
        for u in (0, 2 ** m - 1):
            flips = bin(x ^ u).count("1")
            pmf[x] += 0.5 * q ** flips * (1 - q) ** (m - flips)
    other = {"0": "1", "1": "0"}

    def noisy(o, r, t):
        return {o[0]: 1 - flip, other[o[0]]: flip}

    p = Protocol(
        num_parties=m,
        obs_vars=tuple((n,) for n in names),
        rounds=0,
        message_maps={},
        key_maps=tuple((noisy if by_key_map else (lambda o, r, t: o[0])) for _ in range(m)),
        key_symbols=("0", "1"),
    )
    return JointDist(tuple((n, BIT) for n in names), pmf), p


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_noisy_key_converse_and_region_tests(m):
    # flips by the source or by the key maps give the same key law; the
    # latter expands 2^m key branches per run.  eps + eta stays below 1
    for eta in (0.05, 0.7):
        reports = []
        for by_key_map in (False, True):
            J, p = noisy_keys(m, 0.05, by_key_map)
            rep = check_converse(J, p, eta)
            assert rep.ok and not rep.trivial and math.isfinite(rep.slack)
            for pi in enum_partitions(m):
                assert acceptance_region_test(J, p, pi, eta).ok, (m, eta, by_key_map, pi)
            reports.append(eval_sk_security(J, p))
        source, keyed = reports
        for f in ("eps", "eps_rec", "delta_sec"):
            assert abs(getattr(source, f) - getattr(keyed, f)) <= 1e-12
        # the keys disagree unless no party or every party flips
        assert abs(source.eps_rec - (1 - 0.95 ** m - 0.05 ** m)) <= 1e-12


def test_region_test_perfect_key_and_unit_alphabet():
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    rep = acceptance_region_test(shared_bit(), observation_keys(), pi, eta=0.1)
    assert rep.ok
    assert rep.type1 <= 1e-12  # perfect key, generous threshold
    assert rep.type2 <= rep.type2_bound

    unit = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=0,
        message_maps={},
        key_maps=(lambda o, r, t: "k", lambda o, r, t: "k"),
        key_symbols=("k",),
    )
    rep = acceptance_region_test(indep_bits(), unit, pi, eta=0.1)
    assert rep.lam < 0 and rep.type1 == 0.0 and rep.ok


def test_region_test_fuzz_exact():
    for i in range(30):
        J, proto = random_sk_instance([123, i], m=2, rounds=1)
        pi = Partition((frozenset([1]), frozenset([2])), 2)
        rep = acceptance_region_test(J, proto, pi, eta=0.1)
        assert rep.ok


def test_independence_check_no_comm_and_one_round():
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    assert interactive_independence_check(indep_bits(), observation_keys(), pi)

    one_round = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=1,
        message_maps={
            (1, 1): lambda o, r, t: o[0],
            (1, 2): lambda o, r, t: "0" if o[0] == "1" else "1",
        },
        key_maps=(lambda o, r, t: o[0], lambda o, r, t: o[0]),
        key_symbols=("0", "1"),
    )
    assert interactive_independence_check(indep_bits(), one_round, pi)

    with pytest.raises(PreconditionError):
        interactive_independence_check(shared_bit(), one_round, pi)


def test_independence_check_evaluates_no_key_map():
    # the key maps leave the key alphabet, which protocol_law rejects; the
    # check reads only the transcript and the eavesdropper view
    p = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=1,
        message_maps={(1, 1): lambda o, r, t: o[0]},
        key_maps=(lambda o, r, t: "?", lambda o, r, t: "?"),
        key_symbols=("0", "1"),
    )
    with pytest.raises(PreconditionError):
        protocol_law(indep_bits(), p)
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    assert interactive_independence_check(indep_bits(), p, pi)


def test_independence_check_with_a_party_seeing_only_z():
    # party 3 observes only the eavesdropper variable: a constant block
    p = Protocol(
        num_parties=3,
        obs_vars=(("X1",), ("X2",), ("Z",)),
        rounds=1,
        message_maps={(1, 1): lambda o, r, t: o[0], (1, 3): lambda o, r, t: o[0]},
        key_maps=(lambda o, r, t: "0",) * 3,
        key_symbols=("0", "1"),
        eve_vars=("Z",),
    )
    pi = Partition.parse("1|2|3", 3)
    J = random_dist(np.random.default_rng(3), [2, 2, 2], names=["X1", "X2", "Z"], eve="Z")
    assert interactive_independence_check(conditional_product(J, [{1}, {2}], "Z"), p, pi)
    with pytest.raises(PreconditionError) as info:
        interactive_independence_check(J, p, pi)
    assert str(info.value) == "J does not conditionally factorize across the partition"


def test_independence_check_with_one_block_left():
    # party 2 observes only Z: one block of variables, which factorizes
    # trivially, while the converse and the region test evaluate the protocol
    p = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("Z",)),
        rounds=1,
        message_maps={(1, 1): lambda o, r, t: o[0]},
        key_maps=(lambda o, r, t: o[0], lambda o, r, t: t[0]),
        key_symbols=("0", "1"),
        eve_vars=("Z",),
    )
    pi = Partition.parse("1|2", 2)
    J = random_dist(np.random.default_rng(4), [2, 2], names=["X1", "Z"], eve="Z")
    assert interactive_independence_check(J, p, pi)
    assert interactive_independence_check(J, p, Partition.parse("1,2", 2))
    assert check_converse(J, p, eta=0.05, partition=pi).partition == pi
    assert acceptance_region_test(J, p, pi, eta=0.05).ok


def test_independence_check_random_protocols():
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    with_eve = 0
    for i in range(200):
        Jr, proto = random_sk_instance([7, i], m=2, rounds=1)
        with_eve += Jr.eve is not None
        Jq = conditional_product(Jr, [{1}, {2}], Jr.eve)
        assert interactive_independence_check(Jq, proto, pi)
    assert 80 <= with_eve <= 120


def test_report_json_forms():
    # every report's JSON lists its fields in order, then a derived "ok"
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    J, p = shared_bit(), observation_keys()
    assert list(eval_sk_security(J, p).as_json()) == [
        "eps", "eps_rec", "delta_sec", "key_len_bits", "num_key_values",
    ]
    region = acceptance_region_test(J, p, pi, eta=0.1)
    assert region.as_json() == {
        "lambda": region.lam, "type1": region.type1,
        "type1_bound": region.type1_bound, "type2": region.type2,
        "type2_bound": region.type2_bound, "ok": True,
    }
    conv = check_converse(J, p, eta=0.05, partition=pi).as_json()
    assert conv["partition"] == str(pi) and list(conv)[-2:] == ["trivial", "ok"]
    # eps = 1/2 on independent bits: eps + eta >= 1 leaves no partition
    assert check_converse(indep_bits(), p, eta=0.6).as_json()["partition"] is None
    u16 = JointDist(
        (("X", Alphabet(tuple(f"x{i}" for i in range(16)))),), [1 / 16] * 16
    )
    search = leftover_hash_search(u16, ["X"], [], eps=0.0, eta=0.25)
    assert search.as_json() == {
        "out_len": search.out_len, "entropy_bits": search.entropy_bits,
        "threshold": search.threshold, "best": search.best.as_json(),
        "ok": search.ok,
    }
    assert list(search.best.as_json()) == ["out_len", "seed", "distance"]


# ---------------------------------------------------------------------------
# leftover hashing


def test_leftover_hash_bijective_and_zero_length():
    u16 = JointDist(
        (("X", Alphabet(tuple(f"x{i}" for i in range(16)))),), [1 / 16] * 16
    )
    # a full-length hash keeps a uniform X uniform exactly when its Toeplitz
    # matrix maps the 16 bit strings to 16 distinct keys
    bits = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
    bijective = set()
    for seed in range(16):
        keys = {tuple(row) for row in bits @ protosim._toeplitz(seed, 4, 4).T % 2}
        res = leftover_hash(u16, ["X"], [], 4, seed=seed)
        assert (res.distance <= 1e-12) == (len(keys) == 16), seed
        bijective.add(len(keys) == 16)
    assert bijective == {True, False}
    res0 = leftover_hash(u16, ["X"], [], 0, seed=5)
    assert res0.distance <= 1e-12
    with pytest.raises(PreconditionError):
        leftover_hash(u16, ["X"], [], 7, seed=0)


def test_leftover_hash_matches_oracle():
    rng = np.random.default_rng(5)
    for trial in range(40):
        kx, ky = int(rng.integers(1, 21)), int(rng.integers(1, 4))
        pmf = rng.random(kx * ky) * (rng.random(kx * ky) >= 0.3)
        pmf[0] += 0.01
        J = JointDist((("X", Alphabet(tuple(f"x{i}" for i in range(kx)))),
                       ("Y", Alphabet(tuple(f"y{i}" for i in range(ky))))), pmf / pmf.sum())
        nbits = max(1, math.ceil(math.log2(kx)))
        for out_len in range(nbits + 1):
            got = leftover_hash(J, ["X"], ["Y"], out_len, seed=trial).distance
            want = leftover_hash_oracle(J.array(), out_len, trial)
            assert abs(got - want) <= 1e-12, (trial, out_len)


def test_leftover_hash_search_meets_lemma_threshold():
    rng = np.random.default_rng(31)
    for trial in range(6):
        k = int(rng.integers(4, 17))
        J = random_dist(rng, [k, 3], names=["X", "Y"])
        out = leftover_hash_search(J, ["X"], ["Y"], eps=0.0, eta=0.25)
        assert out.ok, (trial, out)
    # a nearly uniform X forces a positive output length
    pmf = np.full(16, 1 / 16)
    pmf[0] += 0.01
    pmf /= pmf.sum()
    J = JointDist((("X", Alphabet(tuple(f"x{i}" for i in range(16)))),), pmf)
    out = leftover_hash_search(J, ["X"], [], eps=0.0, eta=0.25)
    assert out.out_len >= 1 and out.ok
    # smoothing with no side information is supported
    out = leftover_hash_search(J, ["X"], [], eps=0.05, eta=0.25)
    assert out.ok

    Jxy = random_dist(np.random.default_rng(1), [4, 2], names=["X", "Y"])
    with pytest.raises(PreconditionError):
        leftover_hash_search(Jxy, ["X"], ["Y"], eps=0.1, eta=0.25)


def test_leftover_hash_search_caps_the_length_at_x_bits():
    # once eta > 1/2, -2 log2(1/(2 eta)) is positive: a uniform 4-symbol X at
    # eta = 0.9 asks for floor(2 + 1.70) = 3 bits, and a 3-symbol X for
    # floor(1.58 + 1.70) = 3; each gets all of X's 2 bits
    for k in (4, 3):
        J = JointDist((("X", Alphabet(tuple(f"x{i}" for i in range(k)))),), [1 / k] * k)
        out = leftover_hash_search(J, ["X"], [], eps=0.0, eta=0.9)
        assert out.out_len == out.best.out_len == 2 and out.ok, (k, out)
        assert out.best == min(
            (leftover_hash(J, ["X"], [], 2, seed) for seed in range(64)),
            key=lambda r: r.distance,
        )
    # with side information (a Y independent of X), and an eta below 1/2
    # that the cap leaves alone
    Jxy = JointDist((("X", Alphabet(("x0", "x1", "x2", "x3"))), ("Y", BIT)), [1 / 8] * 8)
    assert leftover_hash_search(Jxy, ["X"], ["Y"], eps=0.0, eta=0.99).out_len == 2
    u16 = JointDist((("X", Alphabet(tuple(f"x{i}" for i in range(16)))),), [1 / 16] * 16)
    assert leftover_hash_search(u16, ["X"], [], eps=0.0, eta=0.25).out_len == 2


# ---------------------------------------------------------------------------
# ideal protocols and reductions


@pytest.mark.parametrize("l", range(5))
def test_ideal_ot_correlation_equals_symbol_loop(l):
    """The pmf, filled cell by cell from the symbols: (K0', K1') and
    (B', K') have mass 1/2 over the 4^l key pairs exactly when K' = K'_{B'}."""
    J = ideal_ot_correlation(l)
    sym1, sym2 = J.alphabet("X1").symbols, J.alphabet("X2").symbols
    assert len(sym1) == 4 ** l and len(sym2) == 2 * 2 ** l
    expect = np.zeros((len(sym1), len(sym2)))
    for i, s in enumerate(sym1):
        for j, t in enumerate(sym2):
            if t[1:] == (s[:l] if t[0] == "0" else s[l:]):
                expect[i, j] = (1.0 / len(sym1)) * 0.5
    assert np.array_equal(J.pmf, expect.reshape(-1))


def test_ideal_ot_is_perfect():
    for l in (1, 2):
        J, otp = ideal_ot_protocol(l)
        rep = measure_ot(J, otp)
        assert rep.eps == 0.0
        assert rep.delta1 <= 1e-12
        assert rep.delta2 <= 1e-12


def test_reduce_ot_variant1_perfect():
    J, otp = ideal_ot_protocol(1)
    base = measure_ot(J, otp)
    red = reduce_ot_to_sk(J, otp, variant=1)
    rep = eval_sk_security(red.dist, red.protocol)
    assert rep.eps <= base.eps + base.delta1 + 2 * base.delta2 + 1e-12
    assert rep.eps == 0.0 and rep.key_len_bits == 1.0
    assert red.protocol.eve_vars == ("V0",)


def test_reduce_ot_variant2_perfect():
    for l in (1, 2):
        J, otp = ideal_ot_protocol(l)
        base = measure_ot(J, otp)
        red = reduce_ot_to_sk(J, otp, variant=2)
        rep = eval_sk_security(red.dist, red.protocol)
        assert rep.eps <= base.eps + base.delta1 + 2 * base.delta2 + 1e-12
        assert rep.eps == 0.0 and rep.key_len_bits == float(l)
        assert not red.used_fallback
        assert red.protocol.eve_vars == ("X2",)
    with pytest.raises(PreconditionError):
        reduce_ot_to_sk(J, otp, variant=3)


def test_reductions_on_a_source_named_v0_v1():
    # the attached statistic takes a primed name, and the figures are the same
    def renamed(J):
        return JointDist((("V0", J.vars[0][1]), ("V1", J.vars[1][1])), J.pmf)

    J, otp = ideal_ot_protocol(1)
    Jb, bcp = noisy_bc(1, 0)
    for red, again in [(reduce_ot_to_sk(J, otp, v), reduce_ot_to_sk(renamed(J), otp, v))
                       for v in (1, 2)] + [(reduce_bc_to_sk(Jb, bcp),
                                            reduce_bc_to_sk(renamed(Jb), bcp))]:
        assert again.dist.var_names == ("V0", "V1", again.dist.var_names[2])
        assert again.dist.var_names[2] in ("V0'", "V1'")
        assert again.dist.pmf.tobytes() == red.dist.pmf.tobytes()
        assert eval_sk_security(again.dist, again.protocol) == eval_sk_security(
            red.dist, red.protocol)


def test_reduce_ot_variant2_fallback_flagged():
    # party 2's first message reveals its choice bit, so no transcript is
    # reachable under the flipped bit: the resampler must fall back
    J, otp = ideal_ot_protocol(1)

    def leak_b(obs, rand, tr):
        return rand

    leaky = OTProtocol(
        length=1,
        rounds=2,
        message_maps={(1, 2): leak_b, (2, 1): otp.message_maps[(2, 1)]},
        khat=lambda x2, b, tr: "0",
    )
    red = reduce_ot_to_sk(J, leaky, variant=2)
    assert red.used_fallback


def test_ideal_bc_measures_and_reduction():
    J, bcp = ideal_bc_protocol(1)
    rep = measure_bc(J, bcp)
    assert rep.eps == 0.0
    assert rep.delta1 <= 1e-12
    assert abs(rep.delta2 - 0.5) <= 1e-12  # flip one string, guess the check

    red = reduce_bc_to_sk(J, bcp)
    sk = eval_sk_security(red.dist, red.protocol)
    # measured key error within eps + delta2; secrecy within delta1
    assert sk.eps_rec <= rep.eps + rep.delta2 + 1e-12
    assert sk.delta_sec <= rep.delta1 + 1e-12
    # here the decoder actually nails the key: a perfect SK of full length
    assert sk.eps == 0.0 and sk.key_len_bits == 1.0


def test_ideal_bc_length_two():
    J, bcp = ideal_bc_protocol(2)
    rep = measure_bc(J, bcp)
    assert rep.eps == 0.0 and rep.delta1 <= 1e-12
    assert abs(rep.delta2 - 0.5) <= 1e-12
    red = reduce_bc_to_sk(J, bcp)
    sk = eval_sk_security(red.dist, red.protocol)
    assert sk.eps == 0.0 and sk.key_len_bits == 2.0


def test_bc_reduction_deterministic():
    J, bcp = ideal_bc_protocol(1)
    a = eval_sk_security(reduce_bc_to_sk(J, bcp).dist, reduce_bc_to_sk(J, bcp).protocol)
    b = eval_sk_security(reduce_bc_to_sk(J, bcp).dist, reduce_bc_to_sk(J, bcp).protocol)
    assert a == b


@pytest.mark.parametrize("l", [1, 2])
def test_noisy_bc_matches_oracle(l):
    for seed in range(3):
        J, bcp = noisy_bc(l, seed)
        label_of = {x1: str(v) for x1, v in mss(J, given="X1", target="X2").as_table().items()}
        eps, delta1, delta2, decode = bc_oracle(J, bcp, label_of)
        rep = measure_bc(J, bcp)
        assert 0.05 < rep.delta2 < 1 and 0 < rep.delta1 and 0 < rep.eps
        for got, want in zip((rep.eps, rep.delta1, rep.delta2), (eps, delta1, delta2)):
            assert abs(got - want) <= 1e-12, (seed, rep)
        key2 = reduce_bc_to_sk(J, bcp).protocol.key_maps[1]
        assert len(set(decode.values())) > 1
        for (v, f), key in decode.items():
            assert key2((v, None), None, f) == key, (seed, v, f)


def test_primitives_need_a_bivariate_resource():
    J3 = random_dist(np.random.default_rng(0), [2, 2, 2])
    _, otp = ideal_ot_protocol(1)
    _, bcp = ideal_bc_protocol(1)
    for call in (lambda: measure_ot(J3, otp), lambda: measure_bc(J3, bcp),
                 lambda: reduce_ot_to_sk(J3, otp, 1), lambda: reduce_ot_to_sk(J3, otp, 2),
                 lambda: reduce_bc_to_sk(J3, bcp)):
        with pytest.raises(PreconditionError, match="bivariate"):
            call()


def counting_test(bcp, calls):
    def test(*claim):
        calls.append(claim)
        return bcp.test(*claim)

    return dataclasses.replace(bcp, test=test)


def test_bc_reveal_test_runs_once_per_claim():
    J, bcp = ideal_bc_protocol(2)
    total = 0
    for fn in (measure_bc, reduce_bc_to_sk):
        calls = []
        fn(J, counting_test(bcp, calls))
        assert len(calls) == len(set(calls)), fn
        total += len(calls)
    assert total <= 4224


def _logged(p, log: list):
    """``p`` (a Protocol, OTProtocol or BCProtocol) with every message and
    key map appending (map, obs, rand, transcript) to ``log`` per call."""
    def wrap(name, m):
        def logged(obs, rand, tr):
            log.append((name, obs, rand, tr))
            return protosim._map_value(m, obs, rand, tr)
        return logged

    fields = {"message_maps": {k: wrap(k, m) for k, m in p.message_maps.items()}}
    if isinstance(p, Protocol):
        fields["key_maps"] = tuple(wrap(("key", i), m) for i, m in enumerate(p.key_maps))
    return dataclasses.replace(p, **fields)


def test_each_map_runs_once_per_distinct_input():
    # within one walk, no (obs, rand, transcript) reaches a map twice
    def walks():
        J, otp = ideal_ot_protocol(3)
        yield lambda log: measure_ot(J, _logged(otp, log))
        red = reduce_ot_to_sk(J, otp, 2)
        yield lambda log: eval_sk_security(red.dist, _logged(red.protocol, log))
        J, bcp = ideal_bc_protocol(3)
        yield lambda log: measure_bc(J, _logged(bcp, log))
        red = reduce_bc_to_sk(J, bcp)
        yield lambda log: eval_sk_security(red.dist, _logged(red.protocol, log))
        J, p = next(inst for inst in (random_sk_instance([3, i], m=3, rounds=2) for i in range(40))
                    if inst[1].randomness[0] is not None)
        yield lambda log: protocol_law(J, _logged(p, log))
        J, p = stochastic_three_party(0)
        yield lambda log: protocol_law(J, _logged(p, log))

    for walk in walks():
        log: list = []
        walk(log)
        assert log and len(log) == len(set(log))


def cli_reduce_bc(monkeypatch, capsys, length):
    """Exit code, stderr and reveal-test calls of ``protocol reduce --kind bc``."""
    calls = []
    monkeypatch.setattr(
        cli, "ideal_bc_protocol",
        lambda l: (lambda J, bcp: (J, counting_test(bcp, calls)))(*ideal_bc_protocol(l)),
    )
    code = cli.main(["protocol", "reduce", "--kind", "bc", "--length", str(length)])
    return code, capsys.readouterr().err, calls


def test_cli_bc_tabulates_the_reveal_test_once(monkeypatch, capsys):
    code, _, calls = cli_reduce_bc(monkeypatch, capsys, 2)
    assert code == 0
    assert len(calls) == len(set(calls)) == 4 * 16 * 32  # |K| |X1| (x2, transcript)


def test_bc_reveal_table_capped_before_any_column(monkeypatch, capsys):
    code, err, calls = cli_reduce_bc(monkeypatch, capsys, 5)
    assert code == 1
    assert err == "error: 67108864 reveal-test cells exceed the cap 10000000\n"
    assert calls == []


def test_bc_reveal_table_bounded_before_the_walk(monkeypatch, capsys):
    # |K| |X1| |supp X2| = 2^7 2^14 2^8 cells, known before the 2^22 runs are walked
    monkeypatch.setattr(protosim, "_runs", lambda *a, **k: pytest.fail("runs walked"))
    code, err, calls = cli_reduce_bc(monkeypatch, capsys, 7)
    assert code == 1
    assert err == "error: at least 536870912 reveal-test cells exceed the cap 10000000\n"
    assert calls == []


@pytest.mark.parametrize("kind", ["ot1", "ot2"])
def test_ot_runs_capped_before_the_walk(kind, monkeypatch, capsys):
    # 2^11 outcomes x 2^11 randomness points = 2^22 runs, 8 times the run cap
    monkeypatch.setattr(protosim, "_map_value", lambda *a: pytest.fail("a run was walked"))
    assert cli.main(["protocol", "reduce", "--kind", kind, "--length", "5"]) == 1
    assert capsys.readouterr().err == (
        "error: 2048 outcomes x 2048 randomness points exceed the cap 524288\n"
    )


@pytest.mark.parametrize("kind", ["bc", "ot2"])
def test_reduce_walks_the_base_runs_once(kind, monkeypatch, capsys):
    walks = []
    runs = protosim._runs

    def counting(*args, **kwargs):
        walks.append(args[0])
        return runs(*args, **kwargs)

    monkeypatch.setattr(protosim, "_runs", counting)
    assert cli.main(["protocol", "reduce", "--kind", kind, "--length", "2"]) == 0
    assert len(walks) == 2  # the base pass, then the reduced protocol's law


@pytest.mark.parametrize("l", [1, 2])
def test_reduction_base_is_the_measured_report(l):
    J, otp = ideal_ot_protocol(l)
    for variant in (1, 2):
        assert reduce_ot_to_sk(J, otp, variant).base == measure_ot(J, otp)
    for J, bcp in [ideal_bc_protocol(l)] + [noisy_bc(l, seed) for seed in range(3)]:
        assert reduce_bc_to_sk(J, bcp).base == measure_bc(J, bcp)


# ---------------------------------------------------------------------------
# fuzz harness and JSON interchange


def test_fuzz_quick():
    rep = fuzz_converse(count=60, seed=4242)
    assert rep.ok
    assert rep.converse_violations == 0
    assert rep.region_test_violations == 0
    assert rep.criteria_relation_violations == 0


#: ((eps, eps_rec, delta_sec), region test verdicts, converse ok) of one
#: fuzzed instance, then the (converse, region test, relation) counts it gives
FUZZ_CASES = {
    "sound": ((0.1, 0.06, 0.05), [True, True], True, (0, 0, 0)),
    "converse-fails": ((0.1, 0.06, 0.05), [True], False, (1, 0, 0)),
    "two-region-tests-fail": ((0.1, 0.06, 0.05), [False, True, False], True, (0, 2, 0)),
    "eps-above-its-split-sum": ((0.3, 0.1, 0.1), [True], True, (0, 0, 1)),
    "eps-rec-above-eps": ((0.1, 0.2, 0.0), [True], True, (0, 0, 1)),
    "delta-sec-above-eps": ((0.1, 0.05, 0.2), [True], True, (0, 0, 1)),
}


@pytest.mark.parametrize("case", [[c] for c in FUZZ_CASES] + [list(FUZZ_CASES)])
def test_fuzz_counts_each_violation(case, monkeypatch):
    # the converse and region tests are scripted per instance, so every
    # counter of the fuzzer is seen to count (real instances give zeros)
    scripts, slacks = [FUZZ_CASES[c] for c in case], []

    def region_tests(J, proto, scan, eta):
        (eps, eps_rec, delta_sec), verdicts, _, _ = scripts[len(slacks)]
        rep = protosim.SecurityReport(eps, eps_rec, delta_sec, 1.0, 2)
        return rep, [protosim.RegionTestReport(0.0, 0.0, 0.0, 0.0 if ok else 1.0, 0.5)
                     for ok in verdicts]

    def converse(J, proto, rep, eta, scan):
        slacks.append(0.25 * len(slacks) + (0.5 if scripts[len(slacks)][2] else -0.5))
        return protosim.ConverseReport(rep.eps, 1.0, 1.0 + slacks[-1], slacks[-1], None, False)

    monkeypatch.setattr(protosim, "_party_scan", lambda J, proto: [])
    monkeypatch.setattr(protosim, "_region_tests", region_tests)
    monkeypatch.setattr(protosim, "_converse", converse)
    rep = fuzz_converse(count=len(case), seed=7)
    want = [sum(FUZZ_CASES[c][3][i] for c in case) for i in range(3)]
    assert [rep.converse_violations, rep.region_test_violations,
            rep.criteria_relation_violations] == want
    assert rep.ok == (want == [0, 0, 0])
    assert rep.max_eps == max(FUZZ_CASES[c][0][0] for c in case)
    assert rep.min_converse_slack == min(slacks)


def test_fuzz_checks_arguments_before_any_instance(monkeypatch):
    built = []
    monkeypatch.setattr(protosim, "random_sk_instance", lambda *a, **k: built.append(a))
    for bad in ({"count": 0}, {"count": -3}, {"eta": 1.5}, {"eta": math.nan}, {"seed": -1}):
        with pytest.raises(PreconditionError):
            fuzz_converse(**({"count": 2} | bad))
    assert built == []


def test_fuzz_walks_the_runs_once_per_instance(monkeypatch):
    # one walk per instance weighs P and every partition's Q^pi, and one
    # builder makes every Q^pi that the region tests and the converse read
    walks, builds = [], []
    runs, q_pi_rows = protosim._runs, bounds._q_pi_rows

    def counting(J, pmfs, *args):
        walks.append(len(pmfs))
        return runs(J, pmfs, *args)

    def building(J, zs):
        builds.append(J)
        return q_pi_rows(J, zs)

    def refuse(*args, **kwargs):
        raise AssertionError("the fuzzer built a Q^pi alone or re-evaluated a bound")

    monkeypatch.setattr(protosim, "_runs", counting)
    monkeypatch.setattr(bounds, "_q_pi_rows", building)
    monkeypatch.setattr(bounds, "conditional_product", refuse)
    monkeypatch.setattr(bounds, "cit_bound", refuse)
    monkeypatch.setattr(bounds, "cit_bound_best", refuse)
    fuzz_converse(count=7, seed=3)
    ms = [(2, 3)[idx % 2] for idx in range(7)]
    assert walks == [1 + len(enum_partitions(m)) for m in ms]
    assert len(builds) == 7


def test_reductions_evaluate_no_law_of_their_own(monkeypatch):
    calls = []

    def counting(J, p):
        calls.append(p)
        return protocol_law(J, p)

    monkeypatch.setattr(protosim, "protocol_law", counting)
    J, otp = ideal_ot_protocol(1)
    for variant in (1, 2):
        reduce_ot_to_sk(J, otp, variant=variant)
    reduce_bc_to_sk(*ideal_bc_protocol(1))
    assert calls == []


def stochastic_three_party(seed: int) -> tuple[JointDist, Protocol]:
    """Three parties, party 2 observing (X2, Y2), two eavesdropper variables
    and a quarter of the cells at zero mass; party 1 draws a coin of bias
    1/3, and a message and a key map draw 0.3/0.7 coins."""
    names = ["X1", "X2", "Y2", "X3", "Z1", "Z2"]
    J = random_dist(np.random.default_rng(seed), [2] * 6, names, full_support=False)
    coin = {"0": 0.3, "1": 0.7}
    p = Protocol(
        num_parties=3,
        obs_vars=(("X1",), ("X2", "Y2"), ("X3",)),
        rounds=2,
        message_maps={
            (1, 1): lambda o, r, t: str(int(o[0]) ^ int(r)),
            (1, 2): lambda o, r, t: coin if o[0] == o[1] else o[1],
            (2, 3): lambda o, r, t: {"0": 0.7, "1": 0.3} if t[0] == o[0] else "1",
        },
        key_maps=(
            lambda o, r, t: o[0] if r == "0" else t[1],
            lambda o, r, t: coin if t[0] == o[0] else o[1],
            lambda o, r, t: str(int(o[0]) ^ int(t[5])),
        ),
        key_symbols=("0", "1"),
        eve_vars=("Z1", "Z2"),
        randomness=(LocalRand(("0", "1"), (1 / 3, 2 / 3)), None, None),
    )
    return J, p


def _walk_instances() -> list[tuple[JointDist, Protocol]]:
    return (
        [(shared_bit(), observation_keys()), (indep_bits(), observation_keys())]
        + [stochastic_three_party(seed) for seed in range(3)]
        + [random_sk_instance([31, i], m=2 + i % 2, rounds=1 + i % 2) for i in range(8)]
    )


def _var_blocks(J: JointDist, p: Protocol, pi: Partition) -> list[frozenset[int]]:
    """Each block of ``pi`` as the variables its parties observe outside the
    eavesdropper's, numbered from 1 in J's order."""
    index_of = {n: i + 1 for i, n in enumerate(n for n in J.var_names if n not in p.eve_vars)}
    return [frozenset(index_of[n] for i in b for n in p.obs_vars[i - 1] if n in index_of)
            for b in pi.blocks]


def _q_pi(J: JointDist, p: Protocol, pi: Partition) -> JointDist:
    return conditional_product(J, _var_blocks(J, p, pi), list(p.eve_vars) or None)


def _assert_same_law(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    assert [w.hex() for w in got.values()] == [w.hex() for w in want.values()]


def test_laws_of_many_rows_equal_one_walk_per_row():
    q_only_support = 0
    for J, p in _walk_instances():
        dists = [J] + [_q_pi(J, p, pi) for pi in enum_partitions(p.num_parties)]
        laws = protosim._laws(J, p, np.array([d.pmf for d in dists]))
        assert len(laws) == len(dists)
        for d, law in zip(dists, laws):
            _assert_same_law(protosim._law_dict(J, p, law), protocol_law(d, p))
        q_only_support += bool(np.any((J.pmf == 0) & (dists[-1].pmf > 0)))
    assert q_only_support >= 4  # shared_bit and the three-party instances


def test_region_tests_equal_one_law_per_partition():
    # the reference builds each Q^pi and walks its runs alone, one run at a
    # time, into dict laws
    eta = 0.1
    for J, p in _walk_instances():
        (law,) = laws_oracle(J, p, J.pmf[None])
        rep = eval_sk_security(J, p)
        parts = enum_partitions(p.num_parties)
        q_laws = [laws_oracle(J, p, _q_pi(J, p, pi).pmf[None])[0] for pi in parts]
        refs = [
            protosim.RegionTestReport(*region_test_oracle(p, pi.num_blocks, eta, law, q_law, rep.eps))
            for pi, q_law in zip(parts, q_laws)
        ]
        assert [acceptance_region_test(J, p, pi, eta) for pi in parts] == refs
        scan = list(protosim._party_scan(J, p))
        assert protosim._region_tests(J, p, scan, eta) == (rep, refs)


# ---------------------------------------------------------------------------
# the level-at-a-time array walk against the one-run-at-a-time dict oracle


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def zero_coin_three_party(seed: int) -> tuple[JointDist, Protocol]:
    """``stochastic_three_party`` with a third randomness symbol of
    probability 0 and a third key symbol, which party 3's stochastic key
    value gives probability 0."""
    J, p = stochastic_three_party(seed)
    key3 = p.key_maps[2]
    return J, dataclasses.replace(
        p, key_symbols=("0", "1", "2"),
        key_maps=(*p.key_maps[:2],
                  lambda o, r, t: {"0": 0.2, "1": 0.8, "2": 0.0} if t[5] == "1" else key3(o, r, t)),
        randomness=(LocalRand(("0", "1", "2"), (1 / 3, 2 / 3, 0.0)), None, None))


def public_coin_without_variables() -> tuple[JointDist, Protocol]:
    p = Protocol(
        num_parties=2,
        obs_vars=((), ()),
        rounds=1,
        message_maps={(1, 1): lambda o, r, t: {"0": 0.5, "1": 0.5}},
        key_maps=(lambda o, r, t: t[0],) * 2,
        key_symbols=("0", "1"),
    )
    return JointDist((), [1.0]), p


def _oracle_instances() -> list[tuple[JointDist, Protocol]]:
    return (
        [(shared_bit(), observation_keys()), (indep_bits(), observation_keys())]
        + [stochastic_three_party(seed) for seed in range(3)]
        + [zero_coin_three_party(seed) for seed in range(3)]
        + [random_sk_instance([41, i], m=2 + i % 2, rounds=1 + i % 2) for i in range(12)]
    )


def test_walk_matches_the_depth_first_oracle():
    # every law of a walk over P and each partition's Q^pi, then the figures
    # read from them, against dict laws summed one run at a time
    eta = 0.1
    for J, p in _oracle_instances() + [public_coin_without_variables()]:
        parts = enum_partitions(p.num_parties) if J.vars else []
        scan = list(protosim._party_scan(J, p)) if parts else []
        pmfs = np.vstack([J.pmf, *(rows() for _, rows in scan)])
        want = laws_oracle(J, p, pmfs)
        got = protosim._laws(J, p, pmfs)
        assert len(got) == len(want) == 1 + len(parts)
        for law, ref in zip(got, want):
            _assert_same_law(protosim._law_dict(J, p, law), ref)
        rep = protosim._security(got[0], p)
        assert _hex([rep.eps, rep.eps_rec, rep.delta_sec]) == _hex(security_oracle(want[0], p))
        if parts:
            tests = protosim._region_tests(J, p, scan, eta)[1]
            refs = [region_test_oracle(p, pi.num_blocks, eta, want[0], q, rep.eps)
                    for pi, q in zip(parts, want[1:])]
            assert [_hex(dataclasses.astuple(t)) for t in tests] == [_hex(r) for r in refs]


def test_laws_renumber_codes_of_wide_key_alphabets():
    # four keys over 2^16 symbols would need a 64-bit joint code, so _laws
    # renumbers the codes it has before it adds the last key
    keys = tuple(f"k{v}" for v in range(1 << 16))
    J = random_dist(np.random.default_rng(9), [2, 3, 2, 2], full_support=False)
    p = Protocol(
        num_parties=4,
        obs_vars=tuple((n,) for n in J.var_names),
        rounds=0,
        message_maps={},
        key_maps=tuple(lambda o, r, t, i=i: keys[(int(o[0]) + 1) * 9973 * (i + 1) % len(keys)]
                       for i in range(4)),
        key_symbols=keys,
    )
    pmfs = np.vstack([J.pmf, np.full(J.pmf.size, 1 / J.pmf.size)])
    want = laws_oracle(J, p, pmfs)
    got = protosim._laws(J, p, pmfs)
    assert len(got) == len(want) == 2
    for law, ref in zip(got, want):
        _assert_same_law(protosim._law_dict(J, p, law), ref)


def test_independence_check_matches_the_oracle():
    checked = 0
    for J, p in _oracle_instances():
        finest = Partition(tuple(frozenset([i]) for i in range(1, p.num_parties + 1)), p.num_parties)
        Jq = _q_pi(J, p, finest)  # factorizes across every partition given z
        for pi in enum_partitions(p.num_parties):
            blocks = [b for b in _var_blocks(Jq, p, pi) if b]
            want = len(blocks) < 2 or independence_oracle(Jq, p, blocks)
            assert interactive_independence_check(Jq, p, pi) == want
            checked += len(blocks) >= 2
    assert checked >= 40


def _ot2_key_oracle(J: JointDist, otp, runs):
    """Variant 2's resampled key map and fallback flag, from oracle runs."""
    lab1 = mss(J, given="X1", target="X2")
    label_of = {s: str(lab1.label_of(s)) for s in J.alphabet("X1").symbols}
    cond = posteriors_oracle(((label_of[x1], b, tr), x2, w) for x1, x2, (_, b), tr, w in runs)
    cond_v = posteriors_oracle((label_of[x1], x2, w) for x1, x2, _, _, w in runs)
    flip = {"0": "1", "1": "0"}

    def key2(obs, rand, tr):
        bbar, f_ot = flip[rand], tr[:2 * otp.rounds]
        out: dict = defaultdict(float)
        for x2, pw in cond.get((obs[0], bbar, f_ot), cond_v[obs[0]]).items():
            out[otp.khat(x2, bbar, f_ot)] += pw
        return dict(out)

    return key2, any((v, flip[b], f) not in cond for v, b, f in cond)


@pytest.mark.parametrize("l", [1, 2])
def test_primitives_and_reductions_match_the_oracle(l):
    J, otp = ideal_ot_protocol(l)
    figures, runs = ot_oracle(J, otp)
    assert _hex(dataclasses.astuple(measure_ot(J, otp))) == _hex(figures)
    key2, fallback = _ot2_key_oracle(J, otp, runs)
    for variant in (1, 2):
        red = reduce_ot_to_sk(J, otp, variant)
        assert _hex(dataclasses.astuple(red.base)) == _hex(figures)
        proto = red.protocol
        if variant == 2:
            assert red.used_fallback == fallback
            proto = dataclasses.replace(proto, key_maps=(proto.key_maps[0], key2))
        _assert_same_law(protocol_law(red.dist, red.protocol),
                         laws_oracle(red.dist, proto, red.dist.pmf[None])[0])
    for J, bcp in [ideal_bc_protocol(l)] + [noisy_bc(l, seed) for seed in range(2)]:
        figures, _, _ = bc_pass_oracle(J, bcp)
        assert _hex(dataclasses.astuple(measure_bc(J, bcp))) == _hex(figures)
        red = reduce_bc_to_sk(J, bcp)
        assert _hex(dataclasses.astuple(red.base)) == _hex(figures)
        lab1 = mss(J, given="X1", target="X2")
        decoder = bc_decoder_oracle(J, bcp, {s: str(lab1.label_of(s)) for s in J.alphabet("X1").symbols})
        proto = dataclasses.replace(red.protocol, key_maps=(
            red.protocol.key_maps[0], lambda obs, rand, tr: decoder[(obs[0], tr)]))
        _assert_same_law(protocol_law(red.dist, red.protocol),
                         laws_oracle(red.dist, proto, red.dist.pmf[None])[0])


def _fused(J: JointDist, p: Protocol) -> JointDist:
    """J as one fused variable per party, then one fused eavesdropper
    variable, through ``marginal`` and ``fuse_vars``: a route to the testing
    bound that shares no block mapping with ``check_converse``."""
    blocks = [[n for n in group if n not in p.eve_vars] for group in p.obs_vars]
    names = [f"P{i + 1}" for i in range(len(blocks))]
    sub = marginal(J, [n for b in blocks for n in b] + list(p.eve_vars))
    if not p.eve_vars:
        return fuse_vars(sub, blocks, names)
    fused = fuse_vars(sub, blocks + [list(p.eve_vars)], names + ["Z"])
    return JointDist(fused.vars, fused.pmf, eve="Z")


def blocky_instance(
    seed, m: int, z_at: str, independent: bool, eve_party: bool = False,
) -> tuple[JointDist, Protocol]:
    """m parties observing one or two bits each, their variables shuffled in
    J's order and the eavesdropper's bit put ``z_at`` "first", "middle" or
    "last", then with ``eve_party`` one more party that sees only that bit;
    one round of messages and random key tables.  An ``independent`` source
    is uniform, so every partition's Q^pi equals P and the partitions tie."""
    rng = np.random.default_rng(seed)
    obs = [tuple(f"X{i}{c}" for c in "ab"[: 1 + int(rng.integers(0, 2))]) for i in range(1, m + 1)]
    names = [n for group in obs for n in group]
    rng.shuffle(names)
    names.insert({"first": 0, "middle": len(names) // 2, "last": len(names)}[z_at], "Z")
    obs += [("Z",)] * eve_party
    pmf = np.ones(2 ** len(names)) if independent else rng.random(2 ** len(names)) + 0.05
    J = JointDist(tuple((n, BIT) for n in names), pmf / pmf.sum(), eve="Z")
    key_size = int(rng.choice([2, 3]))

    def table(i: int, pos: int, size: int) -> dict:
        keys = itertools.product(
            itertools.product("01", repeat=len(obs[i - 1])), (None,),
            itertools.product("01", repeat=pos),
        )
        return {key: str(rng.integers(0, size)) for key in keys}

    parties = range(1, len(obs) + 1)
    p = Protocol(
        num_parties=len(obs),
        obs_vars=tuple(obs),
        rounds=1,
        message_maps={(1, i): table(i, i - 1, 2) for i in parties},
        key_maps=tuple(table(i, len(obs), key_size) for i in parties),
        key_symbols=tuple(str(v) for v in range(key_size)),
        eve_vars=("Z",),
    )
    return J, p


def test_converse_equals_the_fused_instance():
    # the bound on J's own cells, each party's variables one block, against
    # cit_bound_best and cit_bound on J fused to one variable per party; a
    # party that sees only the eavesdropper's bit is a constant variable there
    eta, checked, tied, eve_party = 0.05, 0, 0, 0
    for seed in range(40):
        for z_at in ("first", "middle", "last"):
            J, p = blocky_instance([7, seed], 2 + seed % 2, z_at, independent=seed % 5 == 0,
                                   eve_party=seed % 4 == 1)
            got = check_converse(J, p, eta)
            if got.trivial:
                continue
            checked += 1
            tied += seed % 5 == 0 and p.num_parties >= 3
            eve_party += seed % 4 == 1
            F = _fused(J, p)
            best = cit_bound_best(F, got.eps, eta)
            assert got.partition == best.partition
            assert abs(got.bound - best.value) <= 1e-12
            for pi in enum_partitions(p.num_parties):
                one = check_converse(J, p, eta, partition=pi)
                ref = cit_bound(F, pi, got.eps, eta)
                assert one.partition == ref.partition == pi
                assert abs(one.bound - ref.value) <= 1e-12
    assert checked >= 80 and tied >= 2 and eve_party >= 10, (checked, tied, eve_party)


def test_random_instances_are_reproducible():
    J1, p1 = random_sk_instance([5, 0], m=2, rounds=2)
    J2, p2 = random_sk_instance([5, 0], m=2, rounds=2)
    assert np.allclose(J1.pmf, J2.pmf)
    assert eval_sk_security(J1, p1) == eval_sk_security(J2, p2)


#: sha256 (first 16 hex digits) of each instance's protocol JSON, then its pmf
#: bytes, as drawn one table entry at a time by ``rng.integers(0, size)``
PINNED_INSTANCES = {
    (0, 0): "a5cdc63556f8effa",
    (0, 1): "aa39aec2901d484a",
    (0, 2): "93488e63d21b750e",
    (0, 3): "e49a618326ed382c",
    (11, 0): "4408e183c3cf31e2",
    (11, 1): "33e0941aeae36e2a",
    (11, 2): "3e86c78b054c4b86",
    (11, 3): "ac7b18ce2f9b6506",
    (20240913, 0): "5497b44881cd871b",
    (20240913, 1): "90323332b212bc3c",
    (20240913, 2): "f51016a91ec83086",
    (20240913, 3): "c92131b2ac416093",
}


@pytest.mark.parametrize("seed, idx", sorted(PINNED_INSTANCES))
def test_random_instances_pinned(seed, idx):
    # the tables are drawn with one rng.integers call per size; on every
    # numpy version admitted, that must give the per-entry draws' instances
    J, p = random_sk_instance([seed, idx], m=2 + idx % 2, rounds=1 + idx % 2)
    text = json.dumps(protocol_to_json(p), sort_keys=True).encode()
    digest = hashlib.sha256(text + J.pmf.tobytes()).hexdigest()[:16]
    assert digest == PINNED_INSTANCES[seed, idx]


def test_protocol_json_roundtrip():
    J, proto = random_sk_instance([77, 3], m=2, rounds=1)
    obj = protocol_to_json(proto)
    back = protocol_from_json(obj)
    assert eval_sk_security(J, back) == eval_sk_security(J, proto)


def test_protocol_law_total_domain_error():
    p = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=1,
        message_maps={(1, 1): {}},  # empty table: not total
        key_maps=(lambda o, r, t: "0", lambda o, r, t: "0"),
        key_symbols=("0", "1"),
    )
    with pytest.raises(PreconditionError):
        protocol_law(indep_bits(), p)


def test_protocol_cap(monkeypatch):
    ten = LocalRand.uniform([str(i) for i in range(10)])
    p = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=0,
        message_maps={},
        key_maps=(lambda o, r, t: "0", lambda o, r, t: "0"),
        key_symbols=("0", "1"),
        randomness=(ten, ten),
    )
    # 4 outcomes x 100 randomness points: at the cap, then one run over it
    monkeypatch.setattr(protosim, "STATE_CAP", 400)
    assert abs(sum(protocol_law(indep_bits(), p).values()) - 1.0) <= 1e-12
    monkeypatch.setattr(protosim, "STATE_CAP", 399)
    with pytest.raises(CapExceededError) as info:
        protocol_law(indep_bits(), p)
    assert str(info.value) == "4 outcomes x 100 randomness points exceed the cap 399"


def test_law_of_a_source_without_variables():
    # one cell and no symbols to read: only the public coin decides the keys
    p = Protocol(
        num_parties=2,
        obs_vars=((), ()),
        rounds=1,
        message_maps={(1, 1): lambda o, r, t: {"0": 0.5, "1": 0.5}},
        key_maps=(lambda o, r, t: t[0],) * 2,
        key_symbols=("0", "1"),
    )
    assert protocol_law(JointDist((), [1.0]), p) == {
        (("1", "1"), ("1", "-"), ()): 0.5, (("0", "0"), ("0", "-"), ()): 0.5,
    }


def test_stochastic_message_maps_branch_exactly():
    # a public fair coin both parties adopt as their key: always agreed,
    # uniform, but fully visible, so the combined criterion sits at 1/2
    p = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=1,
        message_maps={(1, 1): lambda o, r, t: {"0": 0.5, "1": 0.5}},
        key_maps=(lambda o, r, t: t[0], lambda o, r, t: t[0]),
        key_symbols=("0", "1"),
    )
    rep = eval_sk_security(indep_bits(), p)
    assert rep.eps_rec == 0.0
    assert abs(rep.eps - 0.5) <= 1e-12
    assert abs(rep.delta_sec - 0.5) <= 1e-12


def test_non_finite_randomness_and_map_values_rejected():
    with pytest.raises(PreconditionError):
        LocalRand(("0", "1"), (math.nan, 1.0))
    p = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=1,
        message_maps={(1, 1): lambda o, r, t: {"0": math.nan, "1": 1.0}},
        key_maps=(lambda o, r, t: "0", lambda o, r, t: "0"),
        key_symbols=("0", "1"),
    )
    with pytest.raises(PreconditionError):
        protocol_law(indep_bits(), p)


def test_distances_clipped_to_one():
    # rounding once reported eps = 1.0000000000000002 on this instance
    J, p = random_sk_instance([0, 0], m=2, rounds=1)
    rep = eval_sk_security(J, p)
    assert rep.eps == 1.0
    assert 0.0 <= rep.delta_sec <= 1.0
    # a distance above 1 is returned as 1; one above the mean of the two
    # masses is a fault (here a negative weight)
    key, ref = np.array([0]), np.array([[1.0]])
    assert _tv(np.array([1.0 + 1e-13]), key, key, ref, np.array([False])) == 1.0
    with pytest.raises(AssertionError):
        _tv(np.array([-0.5]), key, key, ref)


def test_region_masses_clipped_to_one():
    # rounding once reported type1 = 1.0000000000000002 on every partition
    J, p = random_sk_instance([0, 13], m=3, rounds=2)
    for pi in enum_partitions(3):
        rep = acceptance_region_test(J, p, pi, 0.05)
        assert rep.type1 == 1.0
        assert 0.0 <= rep.type2 <= 1.0
    # a region mass above 1 is returned as 1; one above the law's whole
    # mass is a fault (here a negative weight outside the region)
    assert _region_mass(np.array([1.0 + 1e-13]), np.array([True])) == 1.0
    with pytest.raises(AssertionError):
        _region_mass(np.array([1.0, -0.5]), np.array([True, False]))


def test_distance_on_mass_within_input_tolerance():
    # the pmf check admits a mass of 1 + 5e-10; the keys never agree
    J, p = disagreeing_keys(1.0 + 5e-10)
    rep = eval_sk_security(J, p)
    assert rep.eps == 1.0 and rep.eps_rec == 1.0
    # party 1's key is constant: half the mass away from uniform
    assert abs(rep.delta_sec - 0.5) <= 1e-9


def test_product_law_matches_dict_product():
    # runs repeat keys, so the law sums them first; the distance is the
    # dict product's, term for term
    rng = np.random.default_rng(5)
    a = np.array([0, 0, 1, 2, 2, 1, 0, 2])
    b = np.array([0, 1, 1, 0, 2, 2, 0, 1])
    w = rng.random(8)
    w /= w.sum()
    law: dict = defaultdict(float)
    for x, y, v in zip(a.tolist(), b.tolist(), w.tolist()):
        law[(x, y)] += v
    want = tv_oracle(law, product_oracle(law))
    assert _product_tv(a, 3, b, 3, w).hex() == want.hex()
    # a product law is independent of itself
    u = np.array([0.1, 0.3, 0.6])
    grid = np.multiply.outer(u, u).ravel()
    assert _product_tv(np.repeat(np.arange(3), 3), 3, np.tile(np.arange(3), 3), 3, grid) <= 1e-16


def test_measure_ot_respects_state_cap():
    # 2^13 resource outcomes x 2^13 randomness points = 6.7e7 runs
    with pytest.raises(CapExceededError):
        measure_ot(*ideal_ot_protocol(6))


# ---------------------------------------------------------------------------
# input checks: each row is a call, the exception it raises and its message


def _keys_with(**fields) -> Protocol:
    return dataclasses.replace(observation_keys(), **fields)


_COIN = {(1, 1): lambda o, r, t: {"0": 0.5, "1": 0.6}}
_BAD_KEY = {"parties": 2, "obs_vars": [["X1"], ["X2"]], "rounds": 1, "key_symbols": ["0"],
            "messages": {"1:1": {"bad": "0"}}, "keys": [{}, {}]}
_U16 = JointDist((("X", Alphabet(tuple(f"x{i}" for i in range(16)))),), [1 / 16] * 16)
#: achieves eps = 1, so eps + eta >= 1 for every eta
_EPS_ONE = random_sk_instance([0, 0], m=2, rounds=1)

INPUT_CHECKS = [
    (lambda: LocalRand(("0", "1"), (1.0,)),
     PreconditionError, "randomness symbols and probs differ in length"),
    (lambda: LocalRand(("0", "1"), (0.5, 0.6)),
     PreconditionError, "randomness probabilities must form a pmf"),
    (lambda: protocol_law(indep_bits(), _keys_with(rounds=1, message_maps=_COIN)),
     PreconditionError, "stochastic map values must form a pmf"),
    (lambda: _keys_with(num_parties=0),
     PreconditionError, "need at least one party"),
    (lambda: _keys_with(obs_vars=(("X1",),)),
     PreconditionError, "one observation tuple per party required"),
    (lambda: _keys_with(key_maps=(lambda o, r, t: "0",)),
     PreconditionError, "one key map per party required"),
    (lambda: _keys_with(rounds=-1),
     PreconditionError, "rounds must be nonnegative"),
    (lambda: _keys_with(key_symbols=()),
     PreconditionError, "key alphabet must be nonempty"),
    (lambda: _keys_with(key_symbols=("0", "0", "1")),
     PreconditionError, "key symbols must be unique"),
    (lambda: _keys_with(eve_vars=("Z", "Z")),
     PreconditionError, "eavesdropper variables must be unique"),
    (lambda: _keys_with(randomness=(None,)),
     PreconditionError, "one randomness entry per party required"),
    (lambda: _keys_with(message_maps={(1, 1): {}}),
     PreconditionError, "message map (1,1) outside the round schedule"),
    (lambda: protocol_law(indep_bits(), _keys_with(obs_vars=(("X1",), ("Y",)))),
     PreconditionError, "protocol observes unknown variable 'Y'"),
    (lambda: protocol_law(indep_bits(), _keys_with(eve_vars=("Z",))),
     PreconditionError, "unknown eavesdropper variable 'Z'"),
    # the walk's errors: the first missing table entry in walk order, and
    # a key outside the alphabet, deterministic or stochastic
    (lambda: protocol_law(indep_bits(), _keys_with(
        rounds=1, message_maps={(1, 2): {(("0",), None, ("-",)): "1"}})),
     PreconditionError,
     "map table is not total: missing entry for obs=('1',) rand=None transcript=('-',)"),
    (lambda: protocol_law(indep_bits(), _keys_with(
        key_maps=(lambda o, r, t: o[0], lambda o, r, t: "2"))),
     PreconditionError, "key map returned '2' outside the key alphabet"),
    (lambda: protocol_law(indep_bits(), _keys_with(
        key_maps=(lambda o, r, t: {"0": 0.5, "x": 0.5}, lambda o, r, t: o[0]))),
     PreconditionError, "key map returned 'x' outside the key alphabet"),
    (lambda: check_converse(random_dist(np.random.default_rng(0), [2, 2, 2]),
                            observation_keys(), eta=0.05),
     PreconditionError, "party observations must partition the non-conditioning variables"),
    (lambda: acceptance_region_test(*_EPS_ONE, Partition.parse("1|2|3", 3), eta=0.05),
     PreconditionError, "partition is over 3 parties but the protocol has 2"),
    (lambda: interactive_independence_check(*_EPS_ONE, Partition.parse("1|2|3", 3)),
     PreconditionError, "partition is over 3 parties but the protocol has 2"),
    (lambda: check_converse(*_EPS_ONE, eta=0.05, partition=Partition.parse("1|2|3", 3)),
     PreconditionError, "partition is over 3 parties but the protocol has 2"),
    (lambda: check_converse(*random_sk_instance([0, 13], m=3, rounds=2), eta=0.05,
                            partition=Partition.parse("1|2", 2)),
     PreconditionError, "partition is over 2 parties but the protocol has 3"),
    *[(lambda eta=eta: check_converse(*_EPS_ONE, eta=eta),
       PreconditionError, "eta must lie in (0, 1)") for eta in (0.0, 1.0, 1.5, -0.2)],
    (lambda: leftover_hash_search(_U16, ["X"], [], eps=0.0, eta=0.0),
     PreconditionError, "eta must be positive"),
    (lambda: ideal_ot_correlation(8),
     CapExceededError, "33554432 cells exceed the cap 10000000"),
    (lambda: protocol_from_json(_BAD_KEY),
     PreconditionError, "malformed protocol JSON: malformed map key 'bad'"),
    (lambda: protocol_to_json(observation_keys()),
     PreconditionError, "only table-based protocols serialize to JSON"),
]


@pytest.mark.parametrize("call, exc, message", INPUT_CHECKS,
                         ids=[m for _, _, m in INPUT_CHECKS])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_partition_and_observations_checked_before_any_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run was walked before the partition was checked")

    monkeypatch.setattr(protosim, "_runs", refuse)
    three, two = Partition.parse("1|2|3", 3), Partition.parse("1|2", 2)
    split = random_dist(np.random.default_rng(0), [2, 2, 2]), observation_keys()
    over = "partition is over 3 parties but the protocol has 2"
    unsplit = "party observations must partition the non-conditioning variables"
    for call, message in (
        (lambda: check_converse(*_EPS_ONE, 0.05, partition=three), over),
        (lambda: acceptance_region_test(*_EPS_ONE, three, 0.05), over),
        (lambda: interactive_independence_check(*_EPS_ONE, three), over),
        (lambda: check_converse(*split, 0.05), unsplit),
        (lambda: check_converse(*split, 0.05, partition=two), unsplit),
        (lambda: acceptance_region_test(*split, two, 0.05), unsplit),
        (lambda: interactive_independence_check(*split, two), unsplit),
    ):
        with pytest.raises(PreconditionError) as info:
            call()
        assert str(info.value) == message
