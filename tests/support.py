"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the implementation's algorithms: the beta
oracles enumerate candidate tests as subset-plus-one-fractional-point
vertices of the linear program, hand the program to scipy's LP solver, or
fill the test in exact rational arithmetic, the composition oracle
filters all k-tuples by their sum, the smoothing oracles bisect the
monotone feasibility functions, the conditional product oracle
accumulates marginals one cell at a time, the bit commitment oracle sums
the definitions over every (key, X1, X2, message), the leftover-hash
oracle hashes one X value at a time, and the protocol oracles walk one
run at a time into dict laws.  Expected values
asserted in the tests are computed by these oracles, not copied from the
code under test.  The per-row loops are the exception: they are the
earlier forms of laws that the package now builds with array operations,
kept so that tests can hold the new forms to the same bits.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from skconverse import (
    Alphabet, BCProtocol, Channel, JointDist, PreconditionError, Protocol, ideal_bc_protocol,
    marginal,
)
from skconverse.structure import attach_label

BIT = Alphabet(("0", "1"))


@st.composite
def int_weight_pmfs(draw, k):
    """A pmf on k outcomes with integer weights, zeros allowed."""
    w = draw(st.lists(st.integers(0, 1000), min_size=k, max_size=k).filter(any))
    return np.array(w, dtype=np.float64) / sum(w)


def one_var_dist(pmf, name="X"):
    return JointDist(((name, Alphabet(tuple(str(i) for i in range(len(pmf))))),), pmf)


@st.composite
def int_weight_pairs(draw):
    """Two pmfs on the same 1 to 8 outcomes, from ``int_weight_pmfs``."""
    k = draw(st.integers(1, 8))
    return one_var_dist(draw(int_weight_pmfs(k))), one_var_dist(draw(int_weight_pmfs(k)))


def ber(p: float, name: str = "X") -> JointDist:
    """Binary distribution with mass p on symbol '0'."""
    return JointDist(((name, BIT),), [p, 1.0 - p])


def dsbs(p: float, names=("X1", "X2")) -> JointDist:
    """Uniform bit plus an independent binary symmetric noise copy."""
    a, b = names
    pmf = [0.5 * (1 - p), 0.5 * p, 0.5 * p, 0.5 * (1 - p)]
    return JointDist(((a, BIT), (b, BIT)), pmf)


def uniform_bits(k: int, name: str = "X") -> JointDist:
    symbols = tuple(format(v, f"0{k}b") for v in range(1 << k))
    return JointDist(((name, Alphabet(symbols)),), [1.0 / (1 << k)] * (1 << k))


def random_dist(rng, sizes, names=None, full_support=True, eve=None) -> JointDist:
    names = names or [f"X{i+1}" for i in range(len(sizes))]
    cells = int(np.prod(sizes))
    pmf = rng.random(cells) + (0.02 if full_support else 0.0)
    if not full_support:
        pmf[rng.random(cells) < 0.25] = 0.0
        if pmf.sum() == 0:
            pmf[0] = 1.0
    pmf /= pmf.sum()
    vars = tuple(
        (n, Alphabet(tuple(str(s) for s in range(k)))) for n, k in zip(names, sizes)
    )
    return JointDist(vars, pmf, eve=eve)


def dense_pair(nv: int, seed: int) -> tuple[JointDist, JointDist]:
    """P and Q on ``nv`` binary variables, built like the dense benchmark
    workload: integer weights, a tenth of the cells repeating one of 64
    (P, Q) pairs (exact ratio ties), 1% of the cells with P = 0 (half of
    them Q = 0 too) and 1.5% with Q = 0 < P."""
    rng = np.random.default_rng(seed)
    n = 1 << nv
    a = rng.integers(1, 1 << 16, n)
    b = rng.integers(1, 1 << 16, n)
    tie = rng.choice(n, n // 10, replace=False)
    pool = rng.integers(1, 1 << 16, (64, 2))
    pick = rng.integers(0, 64, tie.size)
    a[tie], b[tie] = pool[pick, 0], pool[pick, 1]
    zero = rng.choice(n, n // 40, replace=False)
    a[zero[: n // 100]] = 0
    b[zero[n // 200 :]] = 0
    vars = tuple((f"X{i + 1}", BIT) for i in range(nv))
    return JointDist(vars, a / a.sum()), JointDist(vars, b / b.sum())


def disagreeing_keys(mass: float = 1.0) -> tuple[JointDist, Protocol]:
    """Two bits of total mass ``mass``; party 1 always outputs key 0, party 2 key 1.

    The keys never agree, so eps is the whole mass of the law.
    """
    J = JointDist((("X1", BIT), ("X2", BIT)), [0.25, 0.25, 0.25, mass - 0.75])
    tables = tuple(
        {((s,), None, ()): key for s in BIT.symbols} for key in ("0", "1")
    )
    p = Protocol(
        num_parties=2,
        obs_vars=(("X1",), ("X2",)),
        rounds=0,
        message_maps={},
        key_maps=tables,
        key_symbols=("0", "1"),
    )
    return J, p


def apply_channel(J: JointDist, ch: Channel) -> JointDist:
    """Pushforward of J through a channel consuming all of J's variables, one
    input cell at a time."""
    if ch.in_vars != J.vars:
        raise PreconditionError("channel input variables must match J exactly")
    out_size = math.prod(ch.out_shape)
    out = np.zeros(out_size)
    flat = J.pmf
    for i, p in enumerate(flat):
        if p == 0.0:
            continue
        key = tuple(int(k) for k in np.unravel_index(i, J.shape))
        row = ch.rows.get(key)
        if row is None:
            raise PreconditionError(
                f"channel has no row for positive-probability input {key}"
            )
        out += p * row
    return JointDist(ch.out_vars, out)


def random_channel_rows(rng, n_in: int, n_out: int) -> dict:
    rows = {}
    for i in range(n_in):
        r = rng.random(n_out) + 0.01
        rows[(i,)] = r / r.sum()
    return rows


def binary_entropy(p: float) -> float:
    if p <= 0 or p >= 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# ---------------------------------------------------------------------------
# beta oracle: enumerate subset-plus-one-fractional-point candidate tests


def beta_oracle(P: JointDist, Q: JointDist, eps: float) -> float:
    """LP-vertex enumeration: minimal Q-mass over all tests that include a
    subset fully plus at most one outcome fractionally, at P-mass 1-eps."""
    p, q = P.pmf, Q.pmf
    n = p.size
    target = 1.0 - eps
    best = math.inf
    for bits in range(1 << n):
        sel = [(bits >> i) & 1 for i in range(n)]
        pmass = sum(p[i] for i in range(n) if sel[i])
        qmass = sum(q[i] for i in range(n) if sel[i])
        if pmass >= target - 1e-12:
            best = min(best, qmass)
            continue
        for j in range(n):
            if sel[j] or p[j] == 0:
                continue
            if pmass + p[j] >= target - 1e-12:
                frac = (target - pmass) / p[j]
                best = min(best, qmass + frac * q[j])
    return best


def beta_exact_oracle(p: np.ndarray, q: np.ndarray, eps: float) -> Fraction:
    """Exact beta_eps of the input floats, in rational arithmetic.

    Cells are taken in decreasing exact p/q (ties by index, p = 0 cells
    last), whole while the P-mass stays below min(1 - eps, P's total),
    then the rest of that mass as a fraction of the next cell.
    """
    ps, qs = [Fraction(float(v)) for v in p], [Fraction(float(v)) for v in q]
    # q = 0 < p cells first; Fraction compares with -inf
    ratio = [-(a / b) if b else -math.inf for a, b in zip(ps, qs)]
    target = min(1 - Fraction(eps), sum(ps))  # > 0, so a p > 0 cell reaches it
    mass = beta = Fraction(0)
    for i in sorted(range(len(ps)), key=lambda i: (ps[i] == 0, ratio[i], i)):
        if mass + ps[i] >= target:
            return beta + (target - mass) / ps[i] * qs[i]
        mass, beta = mass + ps[i], beta + qs[i]


def beta_lp_oracle(P: JointDist, Q: JointDist, eps: float) -> float:
    """Solve min Q[T] s.t. P[T] >= 1 - eps, 0 <= T <= 1 with scipy's LP solver."""
    from scipy.optimize import linprog

    res = linprog(
        c=Q.pmf,
        A_ub=-P.pmf[None, :],
        b_ub=[-(1.0 - eps)],
        bounds=[(0.0, 1.0)] * P.pmf.size,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# type classes: filter all k-tuples in [0, n]^k by their sum


def compositions_oracle(n: int, k: int) -> np.ndarray:
    """Count vectors of length k summing to n, in lexicographic order."""
    rows = [c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n]
    return np.array(rows, dtype=np.int64).reshape(len(rows), k)


# ---------------------------------------------------------------------------
# smoothing oracles: bisection on the monotone feasibility functions


def h_min_smooth_oracle(pmf: np.ndarray, eps: float, iters: int = 200) -> float:
    """Bisect the cap c with sum max(p - c, 0) = 2*eps; value is -log2 c."""
    budget = 2.0 * eps
    lo, hi = 0.0, float(pmf.max())
    if budget <= 0:
        return -math.log2(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        removed = float(np.maximum(pmf - mid, 0.0).sum())
        if removed > budget:
            lo = mid
        else:
            hi = mid
    return -math.log2(0.5 * (lo + hi))


def d_max_smooth_oracle(p: np.ndarray, q: np.ndarray, eps: float, iters: int = 200) -> float:
    """Bisect the least lam with sum min(p, q*2^lam) >= 1 - eps."""
    target = float(p.sum()) - eps
    if float(p[q > 0].sum()) < target - 1e-12:
        return math.inf
    lo, hi = -60.0, 60.0
    mask = q > 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        cover = float(np.minimum(p[mask], q[mask] * 2.0**mid).sum())
        if cover >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def h_min_cond_grid_oracle(P: JointDist, x_vars, y_vars, steps: int = 20000) -> float:
    """Maximize min_{x, y in supp Q} log2 Q(y)/P(x,y) over a dense Q_Y grid.

    Only for |Y| = 2: Q = (t, 1-t) on a uniform grid.
    """
    x_vars = [x_vars] if isinstance(x_vars, str) else list(x_vars)
    y_vars = [y_vars] if isinstance(y_vars, str) else list(y_vars)
    arr = np.transpose(
        P.array(), [P.axis(n) for n in x_vars] + [P.axis(n) for n in y_vars]
    )
    flat = arr.reshape(-1, arr.shape[-1])
    assert flat.shape[1] == 2, "grid oracle supports binary Y only"
    best = -math.inf
    col_max = flat.max(axis=0)
    for k in range(1, steps):
        t = k / steps
        qy = np.array([t, 1 - t])
        with np.errstate(divide="ignore"):
            vals = np.log2(qy) - np.log2(col_max)
        best = max(best, float(vals.min()))
    return best


# ---------------------------------------------------------------------------
# brute-force marginals / conditionals


def marginal_oracle(J: JointDist, keep) -> np.ndarray:
    """Direct summation over symbol tuples, no axis tricks."""
    keep = [keep] if isinstance(keep, str) else list(keep)
    keep_pos = [J.var_names.index(n) for n in keep]
    shape = tuple(len(J.alphabet(n)) for n in keep)
    out = np.zeros(shape)
    for flat, w in enumerate(J.pmf):
        idx = np.unravel_index(flat, J.shape)
        out[tuple(idx[i] for i in keep_pos)] += w
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# per-row loops: the references that probcore's and bounds' array forms of
# the same laws must equal bit for bit


def conditional_family_loop(J: JointDist, targets, given) -> Channel:
    """``conditional_family``: rows divided one conditioning input at a time."""
    targets, given = list(targets), list(given)
    for n in targets + given:
        J.axis(n)
    if set(targets) & set(given):
        raise PreconditionError("targets and given must be disjoint")
    sub = marginal(J, targets + given)
    arr = np.transpose(sub.array(), [sub.axis(n) for n in given + targets])
    g_shape = arr.shape[: len(given)]
    flat = arr.reshape(math.prod(g_shape), -1)
    masses = flat.sum(axis=1)
    if masses.sum() <= 0:
        raise PreconditionError("conditioning marginal is identically zero")
    rows = {}
    for i, m in enumerate(masses):
        if m > 0:
            key = tuple(int(k) for k in np.unravel_index(i, g_shape)) if g_shape else ()
            rows[key] = flat[i] / m
    return Channel(tuple((n, J.alphabet(n)) for n in given),
                   tuple((n, J.alphabet(n)) for n in targets), rows)


def extend_with_channel_loop(J: JointDist, ch: Channel) -> JointDist:
    """``extend_with_channel``: J laid out inputs first, the channel's row of
    each input looked up one input at a time, and the product laid back."""
    in_names = [n for n, _ in ch.in_vars]
    for n, a in ch.in_vars:
        if J.alphabet(n).symbols != a.symbols:
            raise PreconditionError(f"channel input {n!r} has mismatched alphabet")
    for n, _ in ch.out_vars:
        if n in J.var_names:
            raise PreconditionError(f"channel output name {n!r} already present")
    in_axes = [J.axis(n) for n in in_names]
    rest_axes = [i for i in range(len(J.vars)) if i not in in_axes]
    arr = np.transpose(J.array(), in_axes + rest_axes)
    in_shape = arr.shape[: len(in_axes)]
    flat = arr.reshape(math.prod(in_shape), math.prod(arr.shape[len(in_axes):]))
    W = np.zeros((len(flat), math.prod(ch.out_shape)))
    for i in range(len(flat)):
        key = tuple(int(k) for k in np.unravel_index(i, in_shape)) if in_shape else ()
        row = ch.rows.get(key)
        if row is not None:
            W[i] = row
        elif flat[i].sum() > 0:
            raise PreconditionError(f"channel has no row for positive-probability input {key}")
    big = np.einsum("ir,io->iro", flat, W)
    big = big.reshape(in_shape + arr.shape[len(in_axes):] + ch.out_shape)
    inv = [0] * len(J.vars)
    for pos, ax in enumerate(in_axes + rest_axes):
        inv[ax] = pos
    big = np.transpose(big, inv + list(range(len(J.vars), len(J.vars) + len(ch.out_shape))))
    return JointDist(J.vars + ch.out_vars, big.reshape(-1), eve=J.eve)


def pushforward_function_loop(J: JointDist, fn) -> JointDist:
    """``pushforward_function``: each cell's mass added to its label's in turn."""
    if callable(fn):
        labels = [str(fn(sym)) for sym in J.outcomes()]
    else:
        labels = [str(v) for v in fn]
        if len(labels) != J.n_cells:
            raise PreconditionError("function table length must match the outcome count")
    uniq = sorted(set(labels))
    idx = {s: i for i, s in enumerate(uniq)}
    out = np.zeros(len(uniq))
    for lab, p in zip(labels, J.pmf):
        out[idx[lab]] += p
    return JointDist((("G", Alphabet(tuple(uniq))),), out)


def duplicated_statistic_loop(J: JointDist, lab) -> tuple[np.ndarray, np.ndarray]:
    """The pmfs of ``duplicated_statistic_joint``, the diagonal of the first
    filled one label at a time."""
    x2 = J.var_names[1]
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
    return p_dup.reshape(-1), q_dup.reshape(-1)


# ---------------------------------------------------------------------------
# conditional product: explicit loops over cells


def conditional_product_oracle(arr: np.ndarray, blocks, z_axes=()) -> np.ndarray:
    """Q(z, x) = P(z) * prod_b P(x_b | z), cell by cell, as a row-major pmf.

    ``arr`` holds P with one axis per variable, ``blocks`` the axes of each
    block and ``z_axes`` the conditioning axes.  Q is 0 where P(z) = 0.
    """
    pz = defaultdict(float)
    pbz = defaultdict(float)
    for cell in itertools.product(*(range(n) for n in arr.shape)):
        w = float(arr[cell])
        z = tuple(cell[a] for a in z_axes)
        pz[z] += w
        for i, b in enumerate(blocks):
            pbz[i, z, tuple(cell[a] for a in b)] += w
    out = np.zeros(arr.shape)
    for cell in itertools.product(*(range(n) for n in arr.shape)):
        z = tuple(cell[a] for a in z_axes)
        if pz[z] > 0:
            q = pz[z]
            for i, b in enumerate(blocks):
                q *= pbz[i, z, tuple(cell[a] for a in b)] / pz[z]
            out[cell] = q
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# bit commitment: a noisy family and the figures from their definitions


def noisy_bc(l: int, seed: int, a: float = 0.9, b: float = 0.15):
    """``ideal_bc_protocol(l)`` with 20% seeded Dirichlet noise on the resource
    and a reveal test that accepts with probability ``a`` where the ideal test
    accepts and ``b`` where it rejects."""
    J, bcp = ideal_bc_protocol(l)
    noise = np.random.default_rng(seed).dirichlet(np.ones(J.pmf.size))
    pmf = 0.8 * J.pmf + 0.2 * noise
    ideal = bcp.test
    return (
        JointDist(J.vars, pmf / pmf.sum()),
        BCProtocol(bcp.key_bits, bcp.rounds, bcp.message_maps,
                   lambda *claim: a if ideal(*claim) else b),
    )


def bc_oracle(J: JointDist, bcp: BCProtocol, label_of):
    """(eps, delta1, delta2, decode) of a one-round commitment in which only
    party 1 speaks, from the definitions over P(k, x1, x2, f); the transcript
    f is party 1's message and party 2's silence "-".

    eps = P[test(K, X1, X2, F) rejects]; delta1 = TV(P_{K X2 F}, P_K x P_{X2 F});
    delta2 = sum over (k, x1, f) of max(0, max over k' != k and x1' of
    sum_x2 P(k, x1, x2, f) test(k', x1', x2, f)).  ``decode[(v, f)]`` is the key
    of the first claim (keys outer, X1 inner) whose acceptance probability
    under P(x2 | label_of(x1) = v, f) is within 1e-9 of the best.
    """
    (n1, a1), (n2, a2) = J.vars
    keys = bcp.keys()
    (commit,) = bcp.message_maps.values()
    joint: dict = defaultdict(float)
    for (x1, x2), p in zip(itertools.product(a1.symbols, a2.symbols), J.pmf):
        for k in keys:
            msg = commit((x1,), k, ())
            for f, pf in ({msg: 1.0} if isinstance(msg, str) else msg).items():
                joint[k, x1, x2, (f, "-")] += p * pf / len(keys)

    eps = sum(p * (1.0 - bcp.test(k, x1, x2, f)) for (k, x1, x2, f), p in joint.items())

    pk: dict = defaultdict(float)
    pkv: dict = defaultdict(float)
    pv: dict = defaultdict(float)
    for (k, x1, x2, f), p in joint.items():
        pk[k] += p
        pkv[k, x2, f] += p
        pv[x2, f] += p
    delta1 = 0.5 * sum(abs(pkv.get((k, *v), 0.0) - pk[k] * pv[v]) for k in pk for v in pv)

    claims = list(itertools.product(keys, a1.symbols))
    delta2 = 0.0
    for k, x1, f in {(k, x1, f) for k, x1, _, f in joint}:
        cheat = [
            sum(joint.get((k, x1, x2, f), 0.0) * bcp.test(kc, x1c, x2, f) for x2 in a2.symbols)
            for kc, x1c in claims if kc != k
        ]
        delta2 += max([0.0] + cheat)

    post: dict = defaultdict(lambda: defaultdict(float))
    for (k, x1, x2, f), p in joint.items():
        post[label_of[x1], f][x2] += p
    decode = {}
    for (v, f), law in post.items():
        tot = sum(law.values())
        scores = [sum(w / tot * bcp.test(kc, x1c, x2, f) for x2, w in law.items())
                  for kc, x1c in claims]
        best = max(scores)
        decode[v, f] = next(c for c, s in zip(claims, scores) if s >= best - 1e-9)[0]
    return eps, delta1, delta2, decode


# ---------------------------------------------------------------------------
# leftover hashing from the definition


def leftover_hash_oracle(pxy: np.ndarray, out_len: int, seed: int) -> float:
    """TV distance of (K(X), Y) from uniform x P_Y for the seeded Toeplitz hash.

    ``pxy[x, y]`` is the joint pmf.  X's index x is written as nbits =
    max(1, ceil(log2 |X|)) bits, most significant first; K(x) = T b(x) over
    GF(2), with T[i][j] = s[i - j + nbits - 1] and s the first
    out_len + nbits - 1 bits drawn by ``numpy.random.default_rng(seed)``.
    K(x)'s bits, most significant first, index the key.
    """
    x_size, y_size = pxy.shape
    nbits = max(1, math.ceil(math.log2(x_size)))
    s = np.random.default_rng(seed).integers(0, 2, size=max(out_len + nbits - 1, 0))
    joint: dict = defaultdict(float)
    for x in range(x_size):
        b = [(x >> (nbits - 1 - j)) & 1 for j in range(nbits)]
        k = 0
        for i in range(out_len):
            k = 2 * k + sum(int(s[i - j + nbits - 1]) * b[j] for j in range(nbits)) % 2
        for y in range(y_size):
            joint[k, y] += float(pxy[x, y])
    nk = 2 ** out_len
    py = [sum(float(pxy[x, y]) for x in range(x_size)) for y in range(y_size)]
    return 0.5 * sum(abs(joint[k, y] - py[y] / nk) for k in range(nk) for y in range(y_size))


# ---------------------------------------------------------------------------
# protocol walk oracle: a depth-first walk of one run at a time, dict laws
#
# The library walks every run at once, a level at a time, over integer codes
# and sums laws with ``np.bincount``.  These oracles take each run on its own
# with the protocol's maps called once per run, and sum laws with ``+=`` into
# dicts; they share no code with that walk.


def _map_value_oracle(m, obs, rand, transcript):
    if callable(m):
        return m(obs, rand, transcript)
    try:
        return m[(obs, rand, transcript)]
    except KeyError:
        raise PreconditionError(
            f"map table is not total: missing entry for obs={obs} rand={rand} "
            f"transcript={transcript}"
        ) from None


def _branches_oracle(value) -> list[tuple[str, float]]:
    if isinstance(value, str):
        return [(value, 1.0)]
    items = sorted((str(k), float(p)) for k, p in value.items())
    if not all(math.isfinite(p) and p >= 0 for _, p in items) or abs(
            sum(p for _, p in items) - 1.0) > 1e-9:
        raise PreconditionError("stochastic map values must form a pmf")
    return [(s, p) for s, p in items if p > 0]


def runs_oracle(J: JointDist, pmfs, obs_vars, rounds, message_maps, randomness):
    """Yield (outcome, obs, rand, transcript, rows, weights) for every run,
    depth first: outcomes in row-major order, then randomness points, then
    message branches, the last sorted symbol first; ``rows`` are the pmf
    rows with positive mass at the outcome, ``weights`` the run's
    probability under each."""
    positions = {n: i for i, n in enumerate(J.var_names)}
    space = [((), 1.0)]
    for r in randomness:
        syms = [(None, 1.0)] if r is None else list(zip(r.symbols, r.probs))
        space = [(combo + (s,), w * pw) for combo, w in space for s, pw in syms if pw > 0]
    obs_pos = [tuple(positions[n] for n in group) for group in obs_vars]
    parties = len(obs_vars)
    steps = [(i - 1, message_maps.get((j, i)))
             for j in range(1, rounds + 1) for i in range(1, parties + 1)]
    symbols = [a.symbols for _, a in J.vars]
    for flat, col in enumerate(np.asarray(pmfs).T.tolist()):
        rows = tuple(r for r, q in enumerate(col) if q > 0)
        if not rows:
            continue
        idx = np.unravel_index(flat, J.shape) if J.vars else ()
        syms = tuple(s[int(k)] for s, k in zip(symbols, idx))
        obs = tuple(tuple(syms[k] for k in pos) for pos in obs_pos)
        for rand, rw in space:
            stack = [((), [col[r] * rw for r in rows], 0)]
            while stack:
                transcript, ws, pos = stack.pop()
                while pos < len(steps):
                    i, m = steps[pos]
                    pos += 1
                    if m is None:
                        transcript += ("-",)
                        continue
                    val = _map_value_oracle(m, obs[i], rand[i], transcript)
                    if isinstance(val, str):
                        transcript += (val,)
                        continue
                    for sym, pw in _branches_oracle(val):
                        stack.append((transcript + (sym,), [w * pw for w in ws], pos))
                    break
                else:
                    yield syms, obs, rand, transcript, rows, ws


def laws_oracle(J: JointDist, p: Protocol, pmfs) -> list[dict]:
    """The law of ``p`` keyed (keys, transcript, eve_view) on each pmf row
    of ``pmfs`` over J's cells, from ``runs_oracle``; key branches expand in
    sorted order and each weight is added with ``+=`` in run order."""
    eve_pos = [J.var_names.index(n) for n in p.eve_vars]
    laws = [defaultdict(float) for _ in np.asarray(pmfs)]
    for syms, obs, rand, transcript, rows, ws in runs_oracle(
            J, pmfs, p.obs_vars, p.rounds, p.message_maps, p.randomness):
        z = tuple(syms[k] for k in eve_pos)
        key_stack = [((), ws)]
        for i in range(p.num_parties):
            branches = _branches_oracle(
                _map_value_oracle(p.key_maps[i], obs[i], rand[i], transcript))
            for sym, _ in branches:
                if sym not in p.key_symbols:
                    raise PreconditionError(
                        f"key map returned {sym!r} outside the key alphabet")
            key_stack = [(keys + (sym,), [w * pw for w in kws])
                         for keys, kws in key_stack for sym, pw in branches]
        for keys, kws in key_stack:
            for r, w in zip(rows, kws):
                laws[r][(keys, transcript, z)] += w
    return [dict(law) for law in laws]


def tv_oracle(law: dict, ref: dict) -> float:
    """0.5 sum |law - ref|: the law's keys in order, then the reference's
    keys the law lacks, in its order, added one by one; clipped to 1."""
    total = 0.0
    for key, w in law.items():
        total += abs(w - ref.get(key, 0.0))
    for key, r in ref.items():
        if key not in law:
            total += r
    return min(0.5 * total, 1.0)


def _marginal_oracle(law: dict, part) -> dict:
    out: dict = defaultdict(float)
    for key, w in law.items():
        out[part(key)] += w
    return dict(out)


def product_oracle(law: dict) -> dict:
    """The product of the marginals of a law keyed (a, b), a outer."""
    pa, pb = _marginal_oracle(law, lambda k: k[0]), _marginal_oracle(law, lambda k: k[1])
    return {(a, b): wa * wb for a, wa in pa.items() for b, wb in pb.items()}


def security_oracle(law: dict, p: Protocol) -> tuple[float, float, float]:
    """(eps, eps_rec, delta_sec) of a secret-key law keyed (keys, f, z)."""
    nk = len(p.key_symbols)
    pfz = _marginal_oracle(law, lambda k: k[1:])
    law1 = _marginal_oracle(law, lambda k: (k[0][0], *k[1:]))
    agree = 0.0
    for (keys, _, _), w in law.items():
        if len(set(keys)) == 1:
            agree += w
    ideal = {((k,) * p.num_parties, *fz): m / nk for fz, m in pfz.items() for k in p.key_symbols}
    ideal1 = {(k, *fz): m / nk for fz, m in pfz.items() for k in p.key_symbols}
    return tv_oracle(law, ideal), 1.0 - agree, tv_oracle(law1, ideal1)


def region_test_oracle(p: Protocol, l: int, eta: float, p_law: dict, q_law: dict,
                       eps: float) -> tuple:
    """(lam, type1, type1_bound, type2, type2_bound) of the acceptance-region
    test of a partition into ``l`` blocks, from the dict laws on J and Q^pi."""
    nk = len(p.key_symbols)
    lam = (l - 1) * math.log2(nk) - l * math.log2(1.0 / eta)
    q_fz = _marginal_oracle(q_law, lambda k: k[1:])

    def inside(key) -> bool:
        qw = q_law.get(key, 0.0)
        keys, f, z = key
        mfz = q_fz.get((f, z), 0.0)
        if qw == 0.0 or mfz == 0.0:
            return True
        if len(set(keys)) != 1:
            return False
        return -math.log2(nk) - math.log2(qw / mfz) >= lam - 1e-9

    def mass(law, keep) -> float:
        part = 0.0
        for key, w in law.items():
            if keep(key):
                part += w
        return min(part, 1.0)

    return (lam, mass(p_law, lambda k: not inside(k)), eps + eta,
            mass(q_law, inside), nk ** (1 - l) * eta ** (-l))


def independence_oracle(J: JointDist, p: Protocol, blocks) -> bool:
    """Whether P(x | f, z) factorizes over ``blocks`` (of the non-z variables,
    numbered from 1) for every transcript-z pair of positive probability."""
    from skconverse.probcore import factorizes

    eve_pos = [J.var_names.index(n) for n in p.eve_vars]
    nonz = [k for k in range(len(J.vars)) if k not in eve_pos]
    nonz_vars = tuple(J.vars[k] for k in nonz)
    slices: dict = {}
    for syms, _, _, f, _, (w,) in runs_oracle(
            J, J.pmf[None], p.obs_vars, p.rounds, p.message_maps, p.randomness):
        arr = slices.setdefault((f, tuple(syms[k] for k in eve_pos)),
                                np.zeros([len(a.symbols) for _, a in nonz_vars]))
        arr[tuple(J.vars[k][1].symbols.index(syms[k]) for k in nonz)] += w
    return all(factorizes(JointDist(nonz_vars, a / a.sum()), blocks)
               for a in slices.values() if a.sum() > 0)


def _primitive_runs(J: JointDist, rounds, message_maps, randomness) -> list:
    return [(x1, x2, rand, tr, w) for (x1, x2), _, rand, tr, _, (w,) in runs_oracle(
        J, J.pmf[None], [[n] for n in J.var_names], rounds, message_maps, randomness)]


def ot_oracle(J: JointDist, otp) -> tuple[tuple[float, float, float], list]:
    """(eps, delta1, delta2) of an OT protocol on J, and its runs
    (x1, x2, (k, b), transcript, weight)."""
    from skconverse import LocalRand

    strings = otp.strings()
    l = otp.length
    runs = _primitive_runs(J, otp.rounds, otp.message_maps, (
        LocalRand.uniform([a + b for a in strings for b in strings]),
        LocalRand.uniform(["0", "1"])))
    err = 0.0
    law1: dict = defaultdict(float)
    law2: dict = defaultdict(float)
    for x1, x2, (k, b), tr, w in runs:
        k0, k1 = k[:l], k[l:]
        kb, kbar = (k0, k1) if b == "0" else (k1, k0)
        if otp.khat(x2, b, tr) != kb:
            err += w
        law1[(kbar, (x2, b, tr))] += w
        law2[(b, (k0, k1, x1, tr))] += w
    return (err, tv_oracle(law1, product_oracle(law1)),
            tv_oracle(law2, product_oracle(law2))), runs


def posteriors_oracle(rows) -> dict:
    """P(x2 | key) from (key, x2, weight) rows, keys and x2 in first-seen order."""
    mass: dict = defaultdict(lambda: defaultdict(float))
    for key, x2, w in rows:
        mass[key][x2] += w
    return {key: {x2: w / sum(law.values()) for x2, w in law.items()}
            for key, law in mass.items()}


def bc_pass_oracle(J: JointDist, bcp: BCProtocol):
    """(eps, delta1, delta2) of a commitment protocol on J, with its runs
    (x1, x2, (k, None), transcript, weight) and a memo of its reveal test
    per (x2, transcript), |K| x |X1| each, keys outer."""
    from skconverse import LocalRand

    keys = bcp.keys()
    x1_syms = J.vars[0][1].symbols
    runs = _primitive_runs(J, bcp.rounds, bcp.message_maps, (LocalRand.uniform(keys), None))
    columns = {}
    for _, x2, _, tr, _ in runs:
        if (x2, tr) not in columns:
            columns[(x2, tr)] = np.array(
                [[float(bcp.test(k, x1, x2, tr)) for x1 in x1_syms] for k in keys])
    err = 0.0
    law_hide: dict = defaultdict(float)
    view: dict = defaultdict(lambda: defaultdict(float))
    for x1, x2, (k, _), tr, w in runs:
        err += w * (1.0 - float(columns[(x2, tr)][keys.index(k), x1_syms.index(x1)]))
        law_hide[(k, (x2, tr))] += w
        view[(k, x1, tr)][x2] += w
    d2 = 0.0
    for (k, x1, tr), x2_law in view.items():
        acc = 0.0
        for x2, w in x2_law.items():
            acc = acc + w * columns[(x2, tr)]
        acc[keys.index(k)] = 0.0
        d2 += float(acc.max())
    return (err, tv_oracle(law_hide, product_oracle(law_hide)), d2), runs, columns


def bc_decoder_oracle(J: JointDist, bcp: BCProtocol, label_of) -> dict:
    """The BC reduction's decoder: per (label of x1, transcript), the key of
    the first claim (keys outer) whose acceptance mass under P(x2 | label,
    transcript) beats every earlier record by more than 1e-9."""
    _, runs, columns = bc_pass_oracle(J, bcp)
    keys, n_x1 = bcp.keys(), len(J.vars[0][1].symbols)
    decoder = {}
    posts = posteriors_oracle(((label_of[x1], tr), x2, w) for x1, x2, _, tr, w in runs)
    for (v, tr), x2_law in posts.items():
        acc = 0.0
        for x2, w in x2_law.items():
            acc = acc + w * columns[(x2, tr)]
        best, best_at = -1.0, None
        for at, a in enumerate(acc.ravel().tolist()):
            if a > best + 1e-9:
                best, best_at = a, at
        decoder[(v, tr)] = keys[best_at // n_x1]
    return decoder
