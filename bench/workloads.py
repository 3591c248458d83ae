"""Seeded inputs, CLI call lists and output checks of the benchmark workloads.

``build(name, seed, base, small)`` writes the workload's input files under
``base`` and returns its fixed call list.  Every call carries a check that
takes the report text and returns a list of problems (empty when the output
is right).  ``small`` gives the same verbs on tiny inputs, used to warm up.

Why each workload exists:

- dense-hyptest: dense beta and smoothing at 2^20 cells, with Q = 0 where
  P > 0, P zeros and exact ratio ties.  Large sorts, JSON input cost and the
  peak memory of the process.  No type classes, partitions or protocols.
- iid-typeclass: stein, dmax and capacity scans over k = 3..5 alphabets with
  tables of 2*10^4 to 2*10^5 type classes.  Inputs are tiny, so loading is
  free and the type-class table dominates.
- partition-lattice: the testing bound over all 4,139 partitions of 8
  parties, with and without an eavesdropper, the capacity formula and the
  secure-computing check: thousands of small beta calls.
- protocol-exact: OT and BC reductions at length 3 (few, huge protocol laws)
  and the converse fuzzer on 300 seeded protocols (many tiny, often repeated
  laws), timed per verb so a gain for one use cannot hide a loss for the
  other.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
from oracles import close

REF_SEED = 0


@dataclass
class Call:
    label: str
    verb: str
    argv: list
    check: Callable[[str], list]


def build(name: str, seed: int, base: str, small: bool = False) -> list:
    os.makedirs(os.path.join(base, "out"), exist_ok=True)
    rng = np.random.default_rng(seed)
    return BUILDERS[name](rng, seed, base, small)


def _write(base, fname, obj) -> str:
    path = os.path.join(base, fname)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))
    return path


def _binary_vars(names):
    return [{"name": n, "symbols": ["0", "1"]} for n in names]


def _out(base, label, ext="json"):
    return os.path.join(base, "out", f"{label}.{ext}")


def _result(text):
    return json.loads(text)["result"]


# ---------------------------------------------------------------------------
# dense-hyptest


def _dense(rng, seed, base, small):
    nv = 10 if small else 20
    n = 1 << nv
    a = rng.integers(1, 1 << 16, n)
    b = rng.integers(1, 1 << 16, n)
    # exact ratio ties: a tenth of the cells repeat one of 64 (P, Q) pairs
    tie = rng.choice(n, n // 10, replace=False)
    pool = rng.integers(1, 1 << 16, (64, 2))
    pick = rng.integers(0, 64, tie.size)
    a[tie], b[tie] = pool[pick, 0], pool[pick, 1]
    # 1% of the cells have P = 0 (half of them Q = 0 too), 1.5% Q = 0 < P
    zero = rng.choice(n, n // 40, replace=False)
    a[zero[: n // 100]] = 0
    b[zero[n // 200 :]] = 0
    p, q = a / a.sum(), b / b.sum()
    names = [f"X{i + 1}" for i in range(nv)]
    fp = _write(base, "p.json", {"variables": _binary_vars(names), "pmf": p.tolist()})
    fq = _write(base, "q.json", {"variables": _binary_vars(names), "pmf": q.tolist()})

    def check_beta(text):
        r = _result(text)
        want = oracles.np_beta(p, q, 0.1)
        bad = []
        if not close(r["beta"], want):
            bad.append(f"beta {r['beta']!r} != oracle {want!r}")
        if not close(r["log2_beta"], math.log2(want)):
            bad.append("log2_beta disagrees with the oracle")
        if r["neg_log2_beta"] != -r["log2_beta"]:
            bad.append("neg_log2_beta != -log2_beta")
        if abs(r["type1_error"] - 0.1) > 1e-9:
            bad.append(f"type1_error {r['type1_error']!r} != eps")
        if not (0.0 <= r["gamma"] <= 1.0 and 0 <= r["n_full"] <= n):
            bad.append("gamma or n_full out of range")
        return bad

    def check_dmax(text):
        r = _result(text)
        want = oracles.dmax_smooth(p, q, 0.2)
        bad = []
        if not close(r["value"], want, 1e-7):
            bad.append(f"dmax {r['value']!r} != bisection {want!r}")
        if abs(r["removed_mass"] - 0.2) > 1e-9:
            bad.append(f"removed_mass {r['removed_mass']!r} != eps")
        return bad

    def check_hmin(text):
        r = _result(text)
        want = oracles.hmin_smooth(p, 0.1)
        bad = []
        if not close(r["value"], want, 1e-7):
            bad.append(f"hmin {r['value']!r} != bisection {want!r}")
        if abs(r["removed_mass"] - 0.2) > 1e-9:
            bad.append(f"removed_mass {r['removed_mass']!r} != 2 eps")
        return bad

    return [
        Call("beta", "beta",
             ["beta", "--p", fp, "--q", fq, "--eps", "0.1", "--out", _out(base, "beta")],
             check_beta),
        Call("smooth-dmax", "smooth",
             ["smooth", "dmax", "--p", fp, "--q", fq, "--eps", "0.2",
              "--out", _out(base, "smooth-dmax")],
             check_dmax),
        Call("smooth-hmin", "smooth",
             ["smooth", "hmin", "--dist", fp, "--eps", "0.1",
              "--out", _out(base, "smooth-hmin")],
             check_hmin),
    ]


# ---------------------------------------------------------------------------
# iid-typeclass


def _csv_rows(text):
    lines = text.strip().splitlines()
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def _scan_check(ns, limit, dense_value, lower, upper):
    """Rows must list ``ns``; the limit column must equal ``limit``; the first
    (small) n must equal ``dense_value``; larger n must lie in [lower, upper(n)]."""

    def check(text):
        rows = _csv_rows(text)
        bad = []
        if [int(r[0]) for r in rows] != ns:
            return [f"rows list n = {[r[0] for r in rows]}, expected {ns}"]
        for n, value, lim in rows:
            if not close(lim, limit):
                bad.append(f"limit column {lim!r} != {limit!r}")
            if n == ns[0]:
                if not close(value, dense_value, 1e-8):
                    bad.append(f"n={n:g}: {value!r} != dense {dense_value!r}")
            elif not (math.isfinite(value)
                      and lower(n) - 1e-9 <= value <= upper(n) + 1e-9):
                bad.append(f"n={n:g}: {value!r} outside [{lower(n)}, {upper(n)}]")
        return bad

    return check


def _positive_pmf(rng, k):
    w = rng.random(k) + 0.2
    return w / w.sum()


def _iid(rng, seed, base, small):
    calls = []
    for k, ns in ((3, [3, 20] if small else [10, 400]),
                  (4, [2, 10] if small else [8, 100])):
        p, q = _positive_pmf(rng, k), _positive_pmf(rng, k)
        var = [{"name": "X", "symbols": [str(i) for i in range(k)]}]
        fp = _write(base, f"p{k}.json", {"variables": var, "pmf": p.tolist()})
        fq = _write(base, f"q{k}.json", {"variables": var, "pmf": q.tolist()})
        eps = 0.1
        dense = -math.log2(oracles.np_beta(oracles.nfold(p, ns[0]),
                                           oracles.nfold(q, ns[0]), eps)) / ns[0]
        ub = oracles.dmax(p, q)
        calls.append(Call(
            f"scan-stein-k{k}", "scan",
            ["scan", "stein", "--p", fp, "--q", fq, "--eps", str(eps),
             "--n", ",".join(map(str, ns)), "--out", _out(base, f"scan-stein-k{k}", "csv")],
            _scan_check(ns, oracles.kl(p, q), dense, lambda n: 0.0,
                        lambda n, ub=ub: ub + math.log2(1 / (1 - eps)) / n)))

    k, ns, eps = 5, [2, 6] if small else [6, 40], 0.2
    p, q = _positive_pmf(rng, k), _positive_pmf(rng, k)
    var = [{"name": "X", "symbols": [str(i) for i in range(k)]}]
    fp = _write(base, "p5.json", {"variables": var, "pmf": p.tolist()})
    fq = _write(base, "q5.json", {"variables": var, "pmf": q.tolist()})
    dense = oracles.dmax_smooth(oracles.nfold(p, ns[0]), oracles.nfold(q, ns[0]), eps) / ns[0]
    ub = oracles.dmax(p, q)
    calls.append(Call(
        "scan-dmax-k5", "scan",
        ["scan", "dmax", "--p", fp, "--q", fq, "--eps", str(eps),
         "--n", ",".join(map(str, ns)), "--out", _out(base, "scan-dmax-k5", "csv")],
        _scan_check(ns, oracles.kl(p, q), dense,
                    lambda n: math.log2(1 - eps) / n, lambda n, ub=ub: ub)))

    # doubly symmetric binary source with a seeded crossover probability
    ns, eps, eta = [2, 10] if small else [8, 50, 100], 0.1, 0.05
    c = 0.05 + 0.15 * rng.random()
    pair = np.array([(1 - c) / 2, c / 2, c / 2, (1 - c) / 2])
    fd = _write(base, "dsbs.json",
                {"variables": _binary_vars(["X1", "X2"]), "pmf": pair.tolist()})
    m1, m2 = pair.reshape(2, 2).sum(axis=1), pair.reshape(2, 2).sum(axis=0)
    prod = np.outer(m1, m2).reshape(-1)
    cap = oracles.entropy(m1) + oracles.entropy(m2) - oracles.entropy(pair)
    tail = 2 * math.log2(1 / eta)
    nlb = -math.log2(oracles.np_beta(oracles.nfold(pair, ns[0]),
                                     oracles.nfold(prod, ns[0]), eps + eta))
    ub = oracles.dmax(pair, prod)
    calls.append(Call(
        "scan-capacity", "scan",
        ["scan", "capacity", "--dist", fd, "--eps", str(eps), "--eta", str(eta),
         "--n", ",".join(map(str, ns)), "--out", _out(base, "scan-capacity", "csv")],
        _scan_check(ns, cap, (nlb + tail) / ns[0], lambda n: 0.0,
                    lambda n: ub + (math.log2(1 / (1 - eps - eta)) + tail) / n)))
    return calls


# ---------------------------------------------------------------------------
# partition-lattice


def _lattice_source(rng, m, eve):
    """Parties are noisy copies of three correlated latent bits (Z of the
    first), mixed with 3% seeded noise, so that the best partition varies."""
    nl = 3
    pu = rng.random(1 << nl) + 0.1
    pu /= pu.sum()
    group = rng.integers(0, nl, m)
    flip = 0.05 + 0.3 * rng.random(m)
    nvar = m + (1 if eve else 0)
    cells = np.arange(1 << nvar)
    bits = [(cells >> (nvar - 1 - i)) & 1 for i in range(nvar)]
    flips = list(flip) + ([0.1 + 0.2 * rng.random()] if eve else [])
    groups = list(group) + ([0] if eve else [])
    joint = np.zeros(cells.size)
    for u in range(1 << nl):
        like = pu[u] * np.ones(cells.size)
        for i in range(nvar):
            ubit = (u >> (nl - 1 - groups[i])) & 1
            like *= np.where(bits[i] == ubit, 1 - flips[i], flips[i])
        joint += like
    noise = rng.random(cells.size)
    joint = 0.97 * joint + 0.03 * noise / noise.sum()
    return joint / joint.sum()


def _lattice(rng, seed, base, small):
    m = 3 if small else 8
    eps, eta = 0.1, 0.05
    names = [f"X{i + 1}" for i in range(m)]
    p = _lattice_source(rng, m, False)
    pz = _lattice_source(rng, m, True)
    fj = _write(base, "joint.json", {"variables": _binary_vars(names), "pmf": p.tolist()})
    fz = _write(base, "joint-eve.json", {"variables": _binary_vars(names + ["Z"]),
                                         "pmf": pz.tolist(), "eve": "Z"})
    table = [str(bin(i).count("1") % 2) for i in range(1 << m)]
    fg = _write(base, "parity.json", table)
    parts = oracles.set_partitions(m)
    spot = [parts[int(i)] for i in rng.choice(len(parts), min(8, len(parts)), replace=False)]

    def check_sk(arr, z_axis):
        def check(text):
            r = _result(text)
            inter = r["intermediates"]
            blocks = oracles.parse_partition(r["partition"])
            l = len(blocks)
            bad = []
            if inter["num_blocks"] != l:
                bad.append("num_blocks does not match the partition")
            value = (inter["neg_log2_beta"] + l * math.log2(1 / eta)) / (l - 1)
            if not close(r["value"], value):
                bad.append(f"value {r['value']!r} != {value!r} from its intermediates")
            nlb, beta, _ = oracles.cit_value(arr, blocks, z_axis, eps + eta, eta)
            if not (close(inter["beta"], beta) and close(inter["neg_log2_beta"], nlb)):
                bad.append(f"beta {inter['beta']!r} != oracle {beta!r} on {r['partition']}")
            for pi in spot:
                other = oracles.cit_value(arr, pi, z_axis, eps + eta, eta)[2]
                if r["value"] > other + 1e-9:
                    bad.append(f"value {r['value']!r} exceeds {other!r} of {pi}")
            return bad

        return check

    def check_capacity(text):
        r = _result(text)
        best, value_of = oracles.capacity(p.reshape((2,) * m))
        bad = []
        if not close(r["value"], best):
            bad.append(f"capacity {r['value']!r} != min over partitions {best!r}")
        if not close(value_of(oracles.parse_partition(r["partition"])), best):
            bad.append(f"partition {r['partition']} does not attain the minimum")
        return bad

    def check_compute(text):
        r = _result(text)
        prm = r["params"]
        odd = float(p[[i for i, g in enumerate(table) if g == "1"]].sum())
        lhs = oracles.hmin_smooth(np.array([1 - odd, odd]), prm["xi"])
        bad = []
        if not close(r["lhs"], lhs, 1e-7):
            bad.append(f"lhs {r['lhs']!r} != smooth min-entropy {lhs!r}")
        rows = r["per_partition"]
        if sorted(x["partition"] for x in rows) != sorted(_pstr(pi) for pi in parts):
            bad.append("per_partition does not list every partition once")
        if any(not close(x["slack"], x["rhs"] - r["lhs"]) for x in rows):
            bad.append("a per-partition slack is not rhs - lhs")
        worst = min(rows, key=lambda x: x["slack"])
        if (r["slack"], r["rhs"], r["partition"]) != (worst["slack"], worst["rhs"], worst["partition"]):
            bad.append("reported partition is not the one with the least slack")
        if r["passed"] != (r["slack"] >= -1e-12):
            bad.append("passed disagrees with the slack")
        extra = 2 * math.log2(1 / (2 * prm["zeta"])) + 1
        by_name = {x["partition"]: x for x in rows}
        for pi in [oracles.parse_partition(r["partition"])] + spot:
            rhs = oracles.cit_value(p.reshape((2,) * m), pi, None, prm["mu"], prm["eta"])[2]
            got = by_name.get(_pstr(pi), {}).get("rhs")
            if got is None or not close(got, rhs + extra):
                bad.append(f"rhs {got!r} of {_pstr(pi)} != oracle {rhs + extra!r}")
        return bad

    return [
        Call("bound-sk", "bound",
             ["bound", "sk", "--dist", fj, "--eps", str(eps), "--eta", str(eta),
              "--all-partitions", "--out", _out(base, "bound-sk")],
             check_sk(p.reshape((2,) * m), None)),
        Call("bound-sk-eve", "bound",
             ["bound", "sk", "--dist", fz, "--eps", str(eps), "--eta", str(eta),
              "--all-partitions", "--out", _out(base, "bound-sk-eve")],
             check_sk(pz.reshape((2,) * (m + 1)), m)),
        Call("bound-capacity", "bound",
             ["bound", "sk", "--dist", fj, "--capacity", "--out", _out(base, "bound-capacity")],
             check_capacity),
        Call("bound-compute", "bound",
             ["bound", "compute", "--dist", fj, "--g", fg, "--eps", "0.02", "--delta", "0.02",
              "--out", _out(base, "bound-compute")],
             check_compute),
    ]


def _pstr(pi) -> str:
    return "|".join(",".join(str(i) for i in b) for b in pi)


# ---------------------------------------------------------------------------
# protocol-exact


def _check_reduce(kind, length):
    def check(text):
        r = _result(text)
        base, red = r["base"], r["reduced"]
        # the ideal OT is perfect; the ideal XOR commitment binds only up to 1/2
        want = {"eps": 0.0, "delta1": 0.0, "delta2": 0.5 if kind == "bc" else 0.0}
        bad = []
        if r["within_reduction_bound"] is not True:
            bad.append("within_reduction_bound is not true")
        if any(abs(base[f] - v) > 1e-12 for f, v in want.items()):
            bad.append(f"ideal base figures {base} != {want}")
        if any(not -1e-12 <= red[f] <= 1 + 1e-12 for f in ("eps", "eps_rec", "delta_sec")):
            bad.append(f"reduced figures {red} outside [0, 1]")
        if red["key_len_bits"] != length:
            bad.append(f"key length {red['key_len_bits']!r} != {length}")
        return bad

    return check


def _protocol(rng, seed, base, small):
    length, count = (1, 3) if small else (3, 300)
    calls = [
        Call(f"reduce-{kind}", "reduce",
             ["protocol", "reduce", "--kind", kind, "--length", str(length),
              "--out", _out(base, f"reduce-{kind}")],
             _check_reduce(kind, length))
        for kind in ("bc", "ot2")
    ]

    def check_fuzz(text):
        r = _result(text)
        bad = []
        if r["ok"] is not True:
            bad.append(f"fuzz report not ok: {r}")
        if r["count"] != count:
            bad.append(f"count {r['count']} != {count}")
        return bad

    calls.append(Call("fuzz", "fuzz",
                      ["protocol", "fuzz", "--count", str(count), "--seed", str(seed),
                       "--out", _out(base, "fuzz")],
                      check_fuzz))
    return calls


BUILDERS = {
    "dense-hyptest": _dense,
    "iid-typeclass": _iid,
    "partition-lattice": _lattice,
    "protocol-exact": _protocol,
}
