"""Exact evaluation of explicit small-alphabet interactive protocols.

Protocols are finite objects: per-round, per-party message maps plus key
maps, over named observation variables, optional local randomness, and
optional eavesdropper variables.  The joint law of (keys, transcript,
eavesdropper view) is computed by exact enumeration of the protocol's runs
(capped at 2^19 runs), so every security parameter reported here is exact,
not sampled.  Maps may be dict tables keyed by
(observation, randomness, transcript) or plain callables; values may be a
symbol or a {symbol: probability} dict for stochastic behaviour.

All randomness is seeded; identical seeds give identical reports.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .bounds import (
    _TOL, _Report, _given_rows, _least_cit, _num_blocks, _partition_scan, _two_party_names,
)
from .errors import CapExceededError, PreconditionError
from .probcore import (
    DEFAULT_CELL_CAP, SUM_TOL, Alphabet, JointDist, _distinct,
    _first_seen, _product_tv, _ravel, _region_mass, _sum, _tv, factorizes,
)
from .smoothinfo import _xy_matrix, h_min_cond, h_min_smooth
from .structure import Partition, attach_label, mcf, mss, unused_name

#: runs one enumeration may walk; an OT reduction takes 0.2-0.35 KB per run,
#: so about 0.25 GB at the cap
STATE_CAP = 1 << 19

MapLike = Callable | Mapping


def _check_pmf(probs: Sequence[float], message: str) -> None:
    """Raise ``message`` unless ``probs`` are finite, nonnegative and sum to 1
    within SUM_TOL."""
    if not all(math.isfinite(p) and p >= 0 for p in probs) or abs(sum(probs) - 1.0) > SUM_TOL:
        raise PreconditionError(message)


@dataclass(frozen=True)
class LocalRand:
    """Distribution of one party's locally generated randomness."""

    symbols: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != len(self.symbols):
            raise PreconditionError("randomness symbols and probs differ in length")
        _check_pmf(probs, "randomness probabilities must form a pmf")

    @classmethod
    def uniform(cls, symbols: Sequence[str]) -> "LocalRand":
        n = len(symbols)
        return cls(tuple(symbols), tuple(1.0 / n for _ in range(n)))


@dataclass(frozen=True)
class Protocol:
    """Explicit interactive protocol: schedule, message maps, key maps.

    The round schedule is F_11..F_m1, ..., F_1r..F_mr (party order inside
    every round).  A missing message map means the party stays silent that
    round (constant '-').  Key maps take (observation, randomness, full
    transcript) and must return values in ``key_symbols``, which are distinct.
    """

    num_parties: int
    obs_vars: tuple[tuple[str, ...], ...]
    rounds: int
    message_maps: Mapping[tuple[int, int], MapLike]
    key_maps: tuple[MapLike, ...]
    key_symbols: tuple[str, ...]
    eve_vars: tuple[str, ...] = ()
    randomness: tuple[LocalRand | None, ...] = ()

    def __post_init__(self) -> None:
        if self.num_parties < 1:
            raise PreconditionError("need at least one party")
        if len(self.obs_vars) != self.num_parties:
            raise PreconditionError("one observation tuple per party required")
        if len(self.key_maps) != self.num_parties:
            raise PreconditionError("one key map per party required")
        if self.rounds < 0:
            raise PreconditionError("rounds must be nonnegative")
        if not self.key_symbols:
            raise PreconditionError("key alphabet must be nonempty")
        rnd = self.randomness or tuple([None] * self.num_parties)
        if len(rnd) != self.num_parties:
            raise PreconditionError("one randomness entry per party required")
        object.__setattr__(self, "randomness", tuple(rnd))
        object.__setattr__(
            self, "obs_vars", tuple(tuple(v) for v in self.obs_vars)
        )
        object.__setattr__(self, "eve_vars", tuple(self.eve_vars))
        object.__setattr__(self, "key_symbols", tuple(self.key_symbols))
        if len(set(self.key_symbols)) != len(self.key_symbols):
            raise PreconditionError("key symbols must be unique")
        if len(set(self.eve_vars)) != len(self.eve_vars):
            raise PreconditionError("eavesdropper variables must be unique")
        for (j, i) in self.message_maps:
            if not (1 <= j <= self.rounds and 1 <= i <= self.num_parties):
                raise PreconditionError(
                    f"message map ({j},{i}) outside the round schedule"
                )

    @property
    def key_len_bits(self) -> float:
        return math.log2(len(self.key_symbols))


def _schedule(rounds: int, parties: int) -> list[tuple[int, int]]:
    """The (round, party) speaking order: parties 1..m in turn, every round."""
    return [(j, i) for j in range(1, rounds + 1) for i in range(1, parties + 1)]


def _map_value(m: MapLike, obs, rand, transcript):
    if callable(m):
        return m(obs, rand, transcript)
    try:
        return m[(obs, rand, transcript)]
    except KeyError:
        raise PreconditionError(
            f"map table is not total: missing entry for obs={obs} rand={rand} "
            f"transcript={transcript}"
        ) from None


def _branches(value) -> list[tuple[str, float]]:
    if isinstance(value, str):
        return [(value, 1.0)]
    items = sorted((str(k), float(p)) for k, p in value.items())
    _check_pmf([p for _, p in items], "stochastic map values must form a pmf")
    return [(s, p) for s, p in items if p > 0]


class _Runs(NamedTuple):
    """The runs of a ``_runs`` walk in depth-first order: run j starts at J's
    flat cell ``cell[j]``, party i's randomness symbol index ``rand[i, j]``,
    ends with ``transcripts[node[j]]`` and key index ``keys[i, j]``, and
    weighs ``weights[r, j]`` under pmf row r, which takes it if ``taken[r, j]``."""

    cell: np.ndarray
    rand: np.ndarray
    node: np.ndarray
    keys: np.ndarray
    weights: np.ndarray
    taken: np.ndarray
    transcripts: list


def _runs(
    J: JointDist,
    pmfs: np.ndarray,
    obs_vars: Sequence[Sequence[str]],
    rounds: int,
    message_maps: Mapping[tuple[int, int], MapLike],
    randomness: Sequence[LocalRand | None],
    key_maps: Sequence[MapLike] = (),
    key_symbols: Sequence[str] = (),
) -> _Runs:
    """Every run of a protocol on the rows of ``pmfs`` (pmfs over J's cells).

    Party i sees the J variables ``obs_vars[i-1]`` and ``randomness[i-1]``
    (None: none), speaks by ``message_maps`` in ``_schedule`` order, then
    keys by ``key_maps[i-1]`` into ``key_symbols``.  The cells where some
    row has mass are walked a level at a time, each map called once per
    distinct (observation, randomness, transcript) of the live runs; a value
    goes through ``_branches`` and may split its runs.  Runs come in
    depth-first order (outcomes row-major, randomness points, message
    branches last symbol first, key branches sorted), each weighing mass x
    randomness weight x branch probabilities, in that order.  A map's error
    is raised after the walk, the first in that order.  Raises when the
    support x randomness points exceeds STATE_CAP.
    """
    positions = {n: i for i, n in enumerate(J.var_names)}
    for group in obs_vars:
        for n in group:
            if n not in positions:
                raise PreconditionError(f"protocol observes unknown variable {n!r}")
    space = [((), 1.0)]
    for r in randomness:
        probs = (1.0,) if r is None else r.probs
        space = [(combo + (s,), w * pw)
                 for combo, w in space for s, pw in enumerate(probs) if pw > 0]
    cells = pmfs.any(axis=0).nonzero()[0]
    support, n_pts = len(cells), len(space)
    if support * n_pts > STATE_CAP:
        raise CapExceededError(f"{support} outcomes x {n_pts} randomness points exceed the cap "
                               f"{STATE_CAP}")
    points = np.array([combo for combo, _ in space], np.intp).reshape(n_pts, len(randomness)).T
    outcome, point = np.divmod(np.arange(support * n_pts), n_pts)
    weights = pmfs[:, cells[outcome]]
    taken = weights > 0
    weights = weights * np.array([w for _, w in space])[point]

    # a column per live run: its first run, node, each party's view, then keys
    m, shape = len(obs_vars), J.shape
    index = np.unravel_index(cells, shape) if J.vars else ()
    state = np.zeros((2 + m + len(key_maps), len(outcome)), np.intp)
    state[0], inputs = np.arange(len(outcome)), []
    for i, group in enumerate(obs_vars):
        pos = [positions[n] for n in group]
        obs, n_obs = _ravel(index, shape, pos, support)
        syms = (None,) if randomness[i] is None else randomness[i].symbols
        values, state[2 + i] = _distinct(obs[outcome] * len(syms) + points[i][point],
                                         n_obs * len(syms))
        seen = np.unravel_index(values // len(syms), [shape[k] for k in pos]) if pos else ()
        seen = [[J.vars[k][1].symbols[j] for j in c.tolist()] for k, c in zip(pos, seen)]
        inputs.append(list(zip(zip(*seen) if pos else itertools.repeat(()),
                               [syms[r] for r in (values % len(syms)).tolist()])))

    steps = [(i - 1, message_maps.get((j, i)), 1) for j, i in _schedule(rounds, m)]
    steps += [(i, km, 2 + m + i) for i, km in enumerate(key_maps)]
    key_index = {s: c for c, s in enumerate(key_symbols)}
    transcripts: list = [()]
    failure = None
    for i, fn, row in steps:
        if fn is None or (failure is not None and not state.shape[1]):
            transcripts = [t + ("-",) for t in transcripts]
            continue
        n_nodes = len(transcripts)
        values, inv = _distinct(state[2 + i] * n_nodes + state[1], len(inputs[i]) * n_nodes)
        call = fn if callable(fn) else functools.partial(_map_value, fn)
        view_inputs, codes, split, children, errors = inputs[i], [], {}, {}, {}
        for u, code in enumerate(values.tolist()):
            v, nd = divmod(code, n_nodes)
            try:
                val = call(*view_inputs[v], transcripts[nd])
                if isinstance(val, str) and (row == 1 or val in key_index):  # taken as is
                    codes.append(children.setdefault((nd, val), len(children)) if row == 1
                                 else key_index[val])
                    continue
                branches = _branches(val)
                for sym, _ in branches if row > 1 else ():
                    if sym not in key_index:
                        raise PreconditionError(
                            f"key map returned {sym!r} outside the key alphabet")
                split[u] = ([(key_index[sym], pw) for sym, pw in branches] if row > 1 else
                            [(children.setdefault((nd, sym), len(children)), pw)
                             for sym, pw in reversed(branches)])  # messages: last symbol first
                codes.append(-1)
            except Exception as exc:  # kept for the run that meets it first
                errors[u] = exc
                codes.append(0)
        if errors:  # the depth-first walk stops at the first run that meets one
            first = int(np.argmax(np.isin(inv, list(errors))))
            failure = errors[int(inv[first])]
            state, weights = state[:, :first], weights[:, :first]
            taken, inv = taken[:, :first], inv[:first]
        if not split:
            state[row] = np.array(codes, np.intp)[inv]
        else:
            outs = [split.get(u, [(c, 1.0)]) for u, c in enumerate(codes)]
            counts = np.array([len(out) for out in outs])
            flat = [b for out in outs for b in out]
            cnt, ends = counts[inv], np.cumsum(counts)[inv]  # run j's branches end at ends[j]
            rep = np.repeat(np.arange(len(inv)), cnt)
            at = np.arange(len(rep)) + np.repeat(ends - np.cumsum(cnt), cnt)
            state, taken = state[:, rep], taken[:, rep]
            weights = weights[:, rep] * np.array([pw for _, pw in flat])[at]
            state[row] = np.array([c for c, _ in flat], np.intp)[at]
        if row == 1:
            transcripts = [transcripts[nd] + (sym,) for nd, sym in children]
    if failure is not None:
        raise failure
    outcome, point = np.divmod(state[0], n_pts)
    return _Runs(cells[outcome], points[:, point], state[1], state[2 + m:], weights, taken,
                 transcripts)


def _eve_pos(J: JointDist, p: Protocol) -> tuple[int, ...]:
    """Positions in J of the protocol's eavesdropper variables."""
    positions = {n: i for i, n in enumerate(J.var_names)}
    for n in p.eve_vars:
        if n not in positions:
            raise PreconditionError(f"unknown eavesdropper variable {n!r}")
    return tuple(positions[n] for n in p.eve_vars)


class _Law(NamedTuple):
    """A law keyed (keys, transcript, eavesdropper view) as arrays, in dict
    order (``_law_dict``): entry e has key indices ``keys[:, e]``, (transcript,
    view) rank ``fz[e]`` in order of first appearance, weight ``w[e]``, run
    ``first[e]`` and code ``code[e]``, alike in one walk and below its runs."""

    code: np.ndarray
    w: np.ndarray
    keys: np.ndarray
    fz: np.ndarray
    first: np.ndarray
    runs: _Runs


def _laws(J: JointDist, p: Protocol, pmfs: np.ndarray) -> list[_Law]:
    """The law of ``p`` on each pmf row of ``pmfs`` over J's cells, from one
    walk of the runs: each row's law has the keys, order and floats of a
    walk of that row alone, each weight a sum in run order."""
    eve_pos = _eve_pos(J, p)
    runs = _runs(J, pmfs, p.obs_vars, p.rounds, p.message_maps, p.randomness,
                 p.key_maps, p.key_symbols)
    index = np.unravel_index(runs.cell, J.shape) if J.vars else ()
    z, n_z = _ravel(index, J.shape, eve_pos, len(runs.cell))
    fz, fz_first = _first_seen(runs.node * n_z + z, len(runs.transcripts) * n_z)
    raw, size, nk = fz, len(fz_first), len(p.key_symbols)
    for k in runs.keys:
        if size * nk >= 1 << 62:  # renumbered before a code could overflow
            raw, size = _distinct(raw, size)[1], len(raw)
        raw, size = raw * nk + k, size * nk
    code, first = _first_seen(raw, size)
    # a row taking every run has each key, and each (transcript, view), in code order
    full = (np.arange(len(first)), runs.keys[:, first], fz[first], first)
    laws = []
    for w, taken, every in zip(runs.weights, runs.taken, runs.taken.all(axis=1)):
        if every:
            e, keys, f, at = full
            w = np.bincount(code, w, minlength=len(first))
        else:
            rank, firsts = _first_seen(code[taken], len(first))
            e = code[taken][firsts]
            at = first[e]
            keys, f = runs.keys[:, at], _first_seen(fz[at], len(fz_first))[0]
            w = np.bincount(rank, w[taken])
        laws.append(_Law(e, w, keys, f, at, runs))
    return laws


def _law_dict(J: JointDist, p: Protocol, law: _Law) -> dict:
    """``law`` as a dict keyed (keys, transcript, eve_view), in its order."""
    runs, index = law.runs, np.unravel_index(law.runs.cell[law.first], J.shape) if J.vars else ()
    views = [[J.vars[k][1].symbols[s] for s in index[k].tolist()] for k in _eve_pos(J, p)]
    names = zip(zip(*([p.key_symbols[c] for c in row] for row in law.keys.tolist())),
                [runs.transcripts[n] for n in runs.node[law.first].tolist()],
                zip(*views) if views else itertools.repeat(()))
    return dict(zip(names, law.w.tolist()))


def protocol_law(J: JointDist, p: Protocol) -> dict:
    """Exact joint law keyed (keys, transcript, eve_view), within the run cap of ``_runs``."""
    return _law_dict(J, p, _laws(J, p, J.pmf[None])[0])


@dataclass(frozen=True)
class SecurityReport(_Report):
    """Exact secret-key security figures of one protocol run.

    ``eps`` is the distance of (K_M, F, Z) from an ideal uniform agreed key
    times the real (F, Z) marginal; ``eps_rec`` and ``delta_sec`` are the
    split recoverability/secrecy figures for the same run.
    """

    eps: float
    eps_rec: float
    delta_sec: float
    key_len_bits: float
    num_key_values: int


def _security(law: _Law, p: Protocol) -> SecurityReport:
    """Secret-key figures of ``p`` from its exact law."""
    nk, k1 = len(p.key_symbols), law.keys[0]
    agree = (law.keys == k1).all(axis=0)
    # each key value at each (F, Z) with the (F, Z) mass over |K|, (F, Z) outer
    ideal = np.repeat(np.bincount(law.fz, law.w)[:, None] / nk, nk, axis=1)
    # combined criterion: distance to uniform agreed keys x real (F, Z)
    eps = _tv(law.w, law.fz, k1, ideal, agree)
    # split criteria on the first party's key
    e, firsts = _first_seen(law.fz * nk + k1, ideal.size)
    delta_sec = _tv(np.bincount(e, law.w), law.fz[firsts], k1[firsts], ideal)
    return SecurityReport(
        eps=float(eps),
        eps_rec=float(1.0 - _sum(law.w[agree])),
        delta_sec=float(delta_sec),
        key_len_bits=p.key_len_bits,
        num_key_values=nk,
    )


def eval_sk_security(J: JointDist, p: Protocol) -> SecurityReport:
    """Measure a protocol's exact secret-key parameters on J."""
    return _security(_laws(J, p, J.pmf[None])[0], p)


def _party_table(J: JointDist, p: Protocol, partition: Partition | None = None) -> np.ndarray:
    """For each set of the protocol's parties (bit i-1 for party i), the bitmask
    of the variables outside the eavesdropper's that they observe (bit k-1 for
    the k-th in J's order).  ``partition``, if given, must be over the parties,
    and their observations must partition those variables."""
    eve_pos = _eve_pos(J, p)
    if partition is not None and partition.m != p.num_parties:
        raise PreconditionError(
            f"partition is over {partition.m} parties but the protocol has {p.num_parties}"
        )
    nonz = [n for k, n in enumerate(J.var_names) if k not in eve_pos]
    blocks = [[n for n in group if n not in p.eve_vars] for group in p.obs_vars]
    if sorted(n for b in blocks for n in b) != sorted(nonz):
        raise PreconditionError("party observations must partition the non-conditioning variables")
    table = [0]
    for b in blocks:  # the sets with party i are those without it, plus its variables
        bits = sum(1 << nonz.index(n) for n in b)
        table += [t | bits for t in table]
    return np.array(table)


def _party_scan(J: JointDist, p: Protocol, partition: Partition | None = None):
    """``bounds._partition_scan`` over the protocol's parties on J's own
    cells: Q^pi given the eavesdropper variables, each party's variables one
    block (none, for a party that sees only those: a factor of 1).  The
    partition and the observations are checked before this returns."""
    table = _party_table(J, p, partition)
    return _partition_scan(J, p.eve_vars, p.num_parties, partition, table)


@dataclass(frozen=True)
class ConverseReport(_Report):
    eps: float
    key_len_bits: float
    bound: float
    slack: float
    partition: Partition | None
    trivial: bool

    @property
    def ok(self) -> bool:
        return self.key_len_bits <= self.bound + 1e-9


def check_converse(
    J: JointDist,
    p: Protocol,
    eta: float,
    partition: Partition | None = None,
) -> ConverseReport:
    """Assert the achieved key length against the testing bound at achieved eps.

    The bound is taken on J's own cells, each party's variables one block;
    without ``partition``, the first least over all partitions wins.  When
    the achieved eps leaves no room for eta (eps + eta >= 1) the bound is
    vacuously +inf and the check passes trivially.
    """
    _check_eta(eta)
    scan = _party_scan(J, p, partition)
    return _converse(J, p, eval_sk_security(J, p), eta, scan)


def _converse(J: JointDist, p: Protocol, rep: SecurityReport, eta: float, scan) -> ConverseReport:
    """``check_converse`` given the protocol's security report ``rep`` and the
    ``_party_scan`` chunks of the partitions it ranges over."""
    if rep.eps + eta >= 1.0:
        return ConverseReport(rep.eps, rep.key_len_bits, math.inf, math.inf, None, True)
    br = _least_cit(J, p.num_parties, list(p.eve_vars), rep.eps, eta, scan)
    return ConverseReport(
        eps=rep.eps,
        key_len_bits=rep.key_len_bits,
        bound=br.value,
        slack=br.value - rep.key_len_bits,
        partition=br.partition,
        trivial=False,
    )


@dataclass(frozen=True)
class RegionTestReport(_Report):
    lam: float
    type1: float
    type1_bound: float
    type2: float
    type2_bound: float

    @property
    def ok(self) -> bool:
        return (
            self.type1 <= self.type1_bound + _TOL
            and self.type2 <= self.type2_bound + _TOL
        )


def acceptance_region_test(
    J: JointDist,
    p: Protocol,
    partition: Partition,
    eta: float,
) -> RegionTestReport:
    """Run the explicit acceptance-region test behind the converse bound.

    The region accepts (k_M, f, z) whenever
    log2[ unif(k_M) / Q^pi(k_M | f, z) ] >= lam, with
    lam = (|pi|-1) log2|K| - |pi| log2(1/eta); points with a vanishing Q
    conditional are accepted.  Checks exactly that the Q-mass of the region
    is at most |K|^(1-|pi|) eta^(-|pi|) and its P-complement is at most
    achieved-eps + eta.
    """
    _check_eta(eta)
    return _region_tests(J, p, list(_party_scan(J, p, partition)), eta)[1][0]


def _check_eta(eta: float) -> None:
    if not 0 < eta < 1:
        raise PreconditionError("eta must lie in (0, 1)")


def _region_tests(
    J: JointDist, p: Protocol, scan, eta: float,
) -> tuple[SecurityReport, list[RegionTestReport]]:
    """The protocol's report on J and ``acceptance_region_test`` of each
    partition of the ``_party_scan`` chunks ``scan``: P's law and every
    Q^pi law from one walk of the runs."""
    p_law, *q_laws = _laws(J, p, np.vstack([J.pmf, *(rows() for _, rows in scan)]))
    rep = _security(p_law, p)
    blocks = np.concatenate([_num_blocks(masks) for masks, _ in scan]).tolist()
    return rep, [_region_test(p, l, eta, p_law, q_law, rep) for l, q_law in zip(blocks, q_laws)]


def _region_test(
    p: Protocol, l: int, eta: float, p_law: _Law, q_law: _Law, rep: SecurityReport,
) -> RegionTestReport:
    """The region test of a partition into ``l`` blocks, given the protocol's
    law on J, its report and its law on the partition's Q^pi, from one walk."""
    nk = len(p.key_symbols)
    lam = (l - 1) * math.log2(nk) - l * math.log2(1.0 / eta)
    f, qw = q_law.fz, q_law.w
    mfz = np.bincount(f, qw)[f]
    # each Q key decided once: a vanishing Q mass or conditional lies inside,
    # disagreeing keys (ideal mass 0, conditional positive) outside
    inside = (qw == 0.0) | (mfz == 0.0)
    tested = ~inside & (q_law.keys == q_law.keys[0]).all(axis=0)
    base, bar = -math.log2(nk), lam - _TOL
    inside[tested] = [base - math.log2(qc) >= bar for qc in (qw[tested] / mfz[tested]).tolist()]
    # a key Q lacks has Q-mass 0, so lies inside
    in_q = np.ones(len(q_law.runs.cell), bool)
    in_q[q_law.code] = inside
    return RegionTestReport(
        lam=lam,
        type1=_region_mass(p_law.w, ~in_q[p_law.code]),
        type1_bound=float(rep.eps + eta),
        type2=_region_mass(qw, inside),
        type2_bound=float(nk ** (1 - l) * eta ** (-l)),
    )


def interactive_independence_check(
    J: JointDist, p: Protocol, partition: Partition
) -> bool:
    """Verify that conditional independence survives interactive communication.

    Requires J to factorize across the partition given the eavesdropper
    variables z; then checks that P(x_M | f, z) factorizes across the
    partition for every transcript-z pair of positive probability.  The key
    maps play no part.  A block of parties that see only eavesdropper
    variables is constant given z and factors trivially, so it is dropped;
    with fewer than two blocks left, the check is trivially True.
    """
    eve_pos = _eve_pos(J, p)
    table = _party_table(J, p, partition).tolist()
    nonz_pos = [k for k in range(len(J.vars)) if k not in eve_pos]
    # each block's variables, numbered from 1 in J's order as ``factorizes`` reads them
    var_masks = [table[sum(1 << (i - 1) for i in b)] for b in partition.blocks]
    var_blocks = [[i + 1 for i in range(len(nonz_pos)) if k >> i & 1] for k in var_masks if k]
    if len(var_blocks) < 2:
        return True
    if not factorizes(J, var_blocks, list(p.eve_vars) or None):
        raise PreconditionError(
            "J does not conditionally factorize across the partition"
        )
    nonz_vars = tuple(J.vars[k] for k in nonz_pos)
    runs = _runs(J, J.pmf[None], p.obs_vars, p.rounds, p.message_maps, p.randomness)
    shape, index = J.shape, np.unravel_index(runs.cell, J.shape)
    (z, n_z), (x, n_x) = (_ravel(index, shape, pos, len(runs.cell)) for pos in (eve_pos, nonz_pos))
    # one slice of the non-z cells per (transcript, z), each cell a sum in run order
    s, firsts = _first_seen(runs.node * n_z + z, len(runs.transcripts) * n_z)
    slices = np.bincount(s * n_x + x, runs.weights[0], minlength=len(firsts) * n_x)
    for arr in slices.reshape(len(firsts), *(shape[k] for k in nonz_pos)):
        mass = arr.sum()
        if mass > 0 and not factorizes(JointDist(nonz_vars, arr / mass), var_blocks):
            return False
    return True


# ---------------------------------------------------------------------------
# leftover hashing


@dataclass(frozen=True)
class LeftoverHashResult(_Report):
    out_len: int
    seed: int
    distance: float


def _toeplitz(seed: int, out_len: int, in_len: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=max(out_len + in_len - 1, 0), dtype=np.int64)
    idx = np.subtract.outer(np.arange(out_len), np.arange(in_len)) + in_len - 1
    return s[idx]


def leftover_hash(
    J: JointDist,
    x_vars,
    y_vars,
    out_len: int,
    seed: int,
) -> LeftoverHashResult:
    """Hash the X part with a seeded Toeplitz matrix; exact output distance.

    X assignments are encoded as fixed-width bit strings of their row-major
    index; the key is the matrix-vector product over GF(2).  Returns the
    exact variational distance of (K(X), Y) from uniform x P_Y.
    """
    flat = _xy_matrix(J, x_vars, y_vars)
    x_size = flat.shape[0]
    nbits = max(1, math.ceil(math.log2(x_size)))
    if out_len < 0 or out_len > nbits:
        raise PreconditionError(
            f"output length must lie in [0, {nbits}] for {x_size} X values"
        )
    T = _toeplitz(seed, out_len, nbits)
    bits = ((np.arange(x_size)[:, None] >> np.arange(nbits - 1, -1, -1)[None, :]) & 1)
    key_idx = ((bits @ T.T) % 2) @ (1 << np.arange(out_len - 1, -1, -1))
    nk = 1 << out_len
    pky = np.zeros((nk, flat.shape[1]))
    np.add.at(pky, key_idx, flat)  # rows added in X order, as a loop would
    py = flat.sum(axis=0)
    distance = 0.5 * float(np.abs(pky - py / nk).sum())
    return LeftoverHashResult(out_len=out_len, seed=seed, distance=distance)


@dataclass(frozen=True)
class LeftoverHashSearch(_Report):
    out_len: int
    entropy_bits: float
    threshold: float
    best: LeftoverHashResult
    ok: bool


def leftover_hash_search(
    J: JointDist, x_vars, y_vars, eps: float, eta: float
) -> LeftoverHashSearch:
    """Witness the leftover-hash existence claim over the seeds 0..63.

    Output length floor(H_min^eps(X|Y) - 2 log2(1/(2 eta))), capped at X's
    bit count, the most ``leftover_hash`` takes (once eta > 1/2 the formula
    can ask for more; a shorter key keeps the claim).  The claim is that
    some 2-universal hash of that length lands within 2*eps + eta of
    uniform-independent.  With side information present the smoothed entropy
    is only implemented at eps = 0 (the exact conditional min-entropy).
    """
    if eta <= 0:
        raise PreconditionError("eta must be positive")
    x_vars = [x_vars] if isinstance(x_vars, str) else list(x_vars)
    y_vars = [y_vars] if isinstance(y_vars, str) else list(y_vars)
    if eps == 0:
        hval = h_min_cond(J, x_vars, y_vars)
    elif not y_vars:
        hval = h_min_smooth(J, eps).value
    else:
        raise PreconditionError(
            "smoothed conditional min-entropy is only supported at eps=0"
        )
    nbits = max(1, math.ceil(math.log2(_xy_matrix(J, x_vars, y_vars).shape[0])))
    out_len = min(nbits, max(0, math.floor(hval - 2 * math.log2(1.0 / (2 * eta)))))
    best = None
    for seed in range(64):
        res = leftover_hash(J, x_vars, y_vars, out_len, seed)
        if best is None or res.distance < best.distance - _TOL:
            best = res
    threshold = 2 * eps + eta
    return LeftoverHashSearch(
        out_len=out_len,
        entropy_bits=hval,
        threshold=threshold,
        best=best,
        ok=best.distance <= threshold + _TOL,
    )


# ---------------------------------------------------------------------------
# oblivious transfer protocols and reductions

def _bit_strings(l: int) -> list[str]:
    return [format(v, f"0{l}b") for v in range(1 << l)] if l else [""]


def _xor_table(l: int) -> dict:
    """The bitwise XOR of every pair of l-bit strings, keyed (a, b)."""
    strings = _bit_strings(l)
    return {(a, b): strings[i ^ j] for i, a in enumerate(strings) for j, b in enumerate(strings)}


@dataclass(frozen=True)
class OTProtocol:
    """One-of-two string OT protocol over a correlated resource.

    Party 1 privately generates the strings (K0, K1) and party 2 the choice
    bit B; both are uniform local randomness, independent of the resource
    (X1, X2).  Message maps read (resource observation, private input,
    transcript); ``khat`` is party 2's estimate of K_B from
    (X2, B, transcript).
    """

    length: int
    rounds: int
    message_maps: Mapping[tuple[int, int], MapLike]
    khat: Callable

    def strings(self) -> list[str]:
        return _bit_strings(self.length)


@dataclass(frozen=True)
class PrimitiveReport(_Report):
    """Exact figures of an OT or BC protocol: its error eps and its two
    one-sided security figures delta1 (against party 2) and delta2 (against
    party 1)."""

    eps: float
    delta1: float
    delta2: float


def _ot_randomness(otp: OTProtocol) -> tuple[LocalRand, LocalRand]:
    """Party 1's uniform string pair K0 K1 and party 2's uniform choice bit."""
    strings = otp.strings()
    return (
        LocalRand.uniform([s0 + s1 for s0 in strings for s1 in strings]),
        LocalRand.uniform(["0", "1"]),
    )


def _ot_pass(J: JointDist, otp: OTProtocol) -> tuple[_Runs, PrimitiveReport]:
    """One walk of the OT runs on J, and the ``measure_ot`` report."""
    randomness = _ot_randomness(otp)
    runs = _runs(J, J.pmf[None], [[n] for n in _two_party_names(J)], otp.rounds,
                 otp.message_maps, randomness)
    (x1, x2), (k, b) = np.unravel_index(runs.cell, J.shape), runs.rand
    k0, k1 = np.divmod(k, 1 << otp.length)
    kb, kbar = np.where(b == 0, k0, k1), np.where(b == 0, k1, k0)
    w, n_nodes = runs.weights[0], len(runs.transcripts)
    string = {s: c for c, s in enumerate(otp.strings())}
    # party 2's view (X2, B, F); the estimate of K_B once per view
    values, view2 = _distinct((x2 * 2 + b) * n_nodes + runs.node, J.shape[1] * 2 * n_nodes)
    x2_syms, b_syms = J.vars[1][1].symbols, randomness[1].symbols
    khat = np.array([string.get(otp.khat(x2_syms[v // n_nodes // 2], b_syms[v // n_nodes % 2],
                                         runs.transcripts[v % n_nodes]), -1)
                     for v in values.tolist()])
    err = _sum(w[khat[view2] != kb])
    # (K_{not B}; X2, B, F) and (B; K0, K1, X1, F)
    d1 = _product_tv(kbar, 1 << otp.length, view2, len(values), w)
    d2 = _product_tv(b, 2, (k * J.shape[0] + x1) * n_nodes + runs.node,
                     len(string) ** 2 * J.shape[0] * n_nodes, w)
    return runs, PrimitiveReport(eps=float(err), delta1=float(d1), delta2=float(d2))


def measure_ot(J: JointDist, otp: OTProtocol) -> PrimitiveReport:
    """Exact (eps, delta1, delta2) of an OT protocol on resource J.

    eps is the probability the estimate misses K_B; delta1 the distance of
    K_{not-B} from independent of party 2's view; delta2 the distance of B
    from independent of party 1's view.
    """
    return _ot_pass(J, otp)[1]


def ideal_ot_correlation(l: int) -> JointDist:
    """Uniform OT correlation: X1 = (K0', K1'), X2 = (B', K'_{B'})."""
    if l < 0:
        raise PreconditionError("length must be nonnegative")
    strings = _bit_strings(l)
    n1 = len(strings) ** 2
    n2 = 2 * len(strings)
    if n1 * n2 > DEFAULT_CELL_CAP:  # checked before the cells are filled
        raise CapExceededError(f"{n1 * n2} cells exceed the cap {DEFAULT_CELL_CAP}")
    sym1 = [s0 + s1 for s0 in strings for s1 in strings]
    sym2 = [b + k for b in ("0", "1") for k in strings]
    # X1 = (K0', K1') is row i0 * 2^l + i1; X2 = (B', K'_{B'}) is column i0
    # for B' = 0 and 2^l + i1 for B' = 1
    rows = np.arange(n1)
    k0p, k1p = np.divmod(rows, len(strings))
    pmf = np.zeros((n1, n2))
    pmf[rows, k0p] = pmf[rows, len(strings) + k1p] = (1.0 / n1) * 0.5
    return JointDist((("X1", Alphabet(tuple(sym1))), ("X2", Alphabet(tuple(sym2)))),
                     pmf.reshape(-1))


def ideal_ot_protocol(l: int) -> tuple[JointDist, OTProtocol]:
    """The standard OT-from-OT-correlation construction; measures (0, 0, 0).

    Round 1: party 2 announces C = B xor B'.  Round 2: party 1 sends
    (K0 xor K'_C, K1 xor K'_{not C}); party 2 unmasks with K'_{B'}.
    """
    J = ideal_ot_correlation(l)
    xor = _xor_table(l)  # after the cell cap, so at most 4^7 entries

    def msg_receiver(obs, rand, tr):
        bprime = obs[0][0]
        return str(int(rand) ^ int(bprime))

    def msg_sender(obs, rand, tr):
        c = tr[1]
        k0p, k1p = obs[0][:l], obs[0][l:]
        kc = k0p if c == "0" else k1p
        kcbar = k1p if c == "0" else k0p
        k0, k1 = rand[:l], rand[l:]
        return xor[k0, kc] + xor[k1, kcbar]

    def khat(x2, b, tr):
        m = tr[2]
        m0, m1 = m[:l], m[l:]
        kp = x2[1:]
        return xor[m0 if b == "0" else m1, kp]

    otp = OTProtocol(
        length=l,
        rounds=2,
        message_maps={(1, 2): msg_receiver, (2, 1): msg_sender},
        khat=khat,
    )
    return J, otp


@dataclass(frozen=True)
class ReducedSK:
    """A secret-key instance produced by a reduction, ready for evaluation,
    and ``base``, the figures of the protocol it was reduced from."""

    dist: JointDist
    protocol: Protocol
    base: PrimitiveReport
    used_fallback: bool = False


def _reduced(
    J: JointDist, label, to_eve: bool, rounds: int,
    message_maps: Mapping[tuple[int, int], MapLike], key_maps: tuple[MapLike, MapLike],
    key_symbols: Sequence[str], randomness: Sequence[LocalRand | None],
    base: PrimitiveReport, used_fallback: bool = False,
) -> ReducedSK:
    """The secret-key protocol of a reduction from a protocol measured ``base``,
    on J with ``label`` attached.

    With ``to_eve`` the label is attached as V0 and the eavesdropper observes
    it.  Otherwise it is attached as V1 and party 2 holds it next to X2, the
    eavesdropper observes X2, and party 2's message maps read (X2,) alone.
    """
    x1, x2 = J.var_names
    name = unused_name(J, "V0" if to_eve else "V1")
    obs2, eve = ((x2,), (name,)) if to_eve else ((name, x2), (x2,))

    def view(m):
        return lambda obs, rand, tr: _map_value(m, (obs[1],), rand, tr)

    maps = {
        (j, i): view(m) if i == 2 and not to_eve else m
        for (j, i), m in message_maps.items()
    }
    proto = Protocol(num_parties=2, obs_vars=((x1,), obs2), rounds=rounds,
                     message_maps=maps, key_maps=key_maps, key_symbols=tuple(key_symbols),
                     eve_vars=eve, randomness=randomness)
    return ReducedSK(attach_label(J, label, name), proto, base, used_fallback)


def _x2_laws(J: JointDist, runs: _Runs, group: np.ndarray, size: int, normalize: bool):
    """(first, start, run, mass): the law of x2 in each group k of runs on a
    two-variable J, given group codes below ``size``: its first run and, in
    ``start[k]:start[k + 1]``, a (run, mass) per x2, all in order of first
    appearance; a mass sums in run order, normalized if ``normalize``."""
    g, firsts = _first_seen(group, size)
    e, at = _first_seen(g * J.shape[1] + runs.cell % J.shape[1], len(firsts) * J.shape[1])
    eg, w = g[at], np.bincount(e, runs.weights[0])
    if normalize:
        w = w / np.bincount(eg, w)[eg]
    order = np.argsort(eg, kind="stable")  # each group's entries together, in order
    return firsts, np.searchsorted(eg[order], np.arange(len(firsts) + 1)), at[order], w[order]


def reduce_ot_to_sk(J: JointDist, otp: OTProtocol, variant: int) -> ReducedSK:
    """Turn an OT protocol into a secret-key protocol (two known routes).

    Variant 1 broadcasts B and keys on (K_B, estimate), with the maximum
    common function as the eavesdropper's side information.  Variant 2 has
    party 2 resample a fresh X2 as if its bit had been flipped, broadcasts
    B, and keys on (K_{not B}, estimate from the resampled view); the
    eavesdropper sees X2 itself and party 2 additionally holds the minimum
    sufficient statistic.  Resampling against a transcript unreachable
    under the flipped bit falls back to the statistic-conditional law and
    is flagged.
    """
    if variant not in (1, 2):
        raise PreconditionError("variant must be 1 or 2")
    x1, x2 = _two_party_names(J)
    runs, base = _ot_pass(J, otp)
    l = otp.length
    randomness = _ot_randomness(otp)
    n_ot_msgs = 2 * otp.rounds
    maps = dict(otp.message_maps)
    maps[(otp.rounds + 1, 2)] = lambda obs, rand, tr: rand  # broadcast B

    if variant == 1:
        def key1(obs, rand, tr):
            return rand[:l] if tr[-1] == "0" else rand[l:]  # K_B

        def key2(obs, rand, tr):
            return otp.khat(obs[0], rand, tr[:n_ot_msgs])

        return _reduced(J, mcf(J, x1, x2)[0], True, otp.rounds + 1, maps,
                        (key1, key2), otp.strings(), randomness, base)

    # variant 2: resample X2 under the flipped choice bit, from the laws of X2
    # given (V1, B, OT transcript) and given V1 alone of an exact run
    lab1 = mss(J, given=x1, target=x2)
    nl, n2, n_nodes = lab1.num_labels, J.shape[1], len(runs.transcripts)
    node_of = {t: n for n, t in enumerate(runs.transcripts)}
    lab, size = np.array(lab1.labels)[runs.cell // n2], nl * 2 * n_nodes
    # law c of (v, b, f), then of v from ``size`` on, is x2_of, probs[span[c]]
    span, x2_of, probs = np.zeros((size + nl, 2), np.intp), [], []
    for group, offset in (((lab * 2 + runs.rand[1]) * n_nodes + runs.node, 0), (lab, size)):
        firsts, start, at, prob = _x2_laws(J, runs, group, size, True)
        span[group[firsts] + offset] = np.c_[start[:-1], start[1:]] + len(probs)
        x2_of += [J.vars[1][1].symbols[c] for c in (runs.cell[at] % n2).tolist()]
        probs += prob.tolist()
    # every reachable key-map input (v, b, f) reads the law at (v, not b, f)
    reached = span[:size, 1].reshape(nl, 2, n_nodes) > 0
    used_fallback = bool((reached[:, 0] != reached[:, 1]).any())
    flip, bit = {"0": "1", "1": "0"}, {"0": 0, "1": 1}

    def key1(obs, rand, tr):
        return rand[l:] if tr[-1] == "0" else rand[:l]  # K_{not B}

    def key2(obs, rand, tr):
        v, bbar, f_ot = int(obs[0]), flip[rand], tr[:n_ot_msgs]  # V1's symbol is str(label)
        lo, hi = span[(v * 2 + bit[bbar]) * n_nodes + node_of[f_ot]]
        lo, hi = (lo, hi) if hi else span[size + v]  # unreachable under the flip
        out: dict = defaultdict(float)
        for x2s, pw in zip(x2_of[lo:hi], probs[lo:hi]):
            out[otp.khat(x2s, bbar, f_ot)] += pw
        # a key of probability 1.0 as a plain symbol, which the walk takes as is
        (sym, pw), *rest = out.items()
        return sym if not rest and pw == 1.0 else dict(out)

    return _reduced(J, lab1, False, otp.rounds + 1, maps, (key1, key2),
                    otp.strings(), randomness, base, used_fallback)


# ---------------------------------------------------------------------------
# bit commitment protocols and reduction


@dataclass(frozen=True)
class BCProtocol:
    """Commit-phase protocol plus the reveal-phase test function.

    Party 1 commits a uniform ``key_bits``-bit string K; commit messages may
    depend on (X1, K) for party 1 and on X2 for party 2.  ``test`` maps a
    claimed (K', X1', X2, transcript) to an acceptance probability.
    """

    key_bits: int
    rounds: int
    message_maps: Mapping[tuple[int, int], MapLike]
    test: Callable

    def keys(self) -> list[str]:
        return _bit_strings(self.key_bits)


def _reveal_columns(bcp: BCProtocol, x1_syms: Sequence[str], pairs: list) -> np.ndarray:
    """The reveal test of ``bcp`` as a |pairs| x |K| x |X1| table, keys outer:
    ``test`` runs once per (k', x1', (x2, transcript) of ``pairs``), after
    the cells are checked against DEFAULT_CELL_CAP."""
    keys = bcp.keys()
    cells = len(keys) * len(x1_syms) * len(pairs)
    if cells > DEFAULT_CELL_CAP:
        raise CapExceededError(f"{cells} reveal-test cells exceed the cap {DEFAULT_CELL_CAP}")
    tests = (float(bcp.test(k, x1, x2, tr)) for x2, tr in pairs for k in keys for x1 in x1_syms)
    return np.fromiter(tests, float, cells).reshape(len(pairs), len(keys), len(x1_syms))


def _scores(columns: np.ndarray, pairs: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Each claim's acceptance mass: mass x column ``pairs`` of ``columns``,
    summed in order, as adding the terms one by one would."""
    acc = 0.0
    for c, w in zip(pairs.tolist(), masses.tolist()):
        acc = acc + w * columns[c]
    return acc


def _bc_pass(J: JointDist, bcp: BCProtocol) -> tuple[_Runs, np.ndarray, np.ndarray,
                                                      PrimitiveReport]:
    """One walk of the commitment runs on J: the runs, each run's (x2,
    transcript) pair in order of first appearance, their ``_reveal_columns``
    and the ``measure_bc`` report.  The table's cells are bounded below
    before the walk: every x2 of positive mass has a run, so |K| x |X1| x
    |supp X2| at least."""
    keys = bcp.keys()
    x1_syms = J.alphabet(_two_party_names(J)[0]).symbols
    least = len(keys) * len(x1_syms) * int(J.array().any(axis=0).sum())
    if least > DEFAULT_CELL_CAP:
        raise CapExceededError(
            f"at least {least} reveal-test cells exceed the cap {DEFAULT_CELL_CAP}")
    runs = _runs(J, J.pmf[None], [[n] for n in _two_party_names(J)], bcp.rounds,
                 bcp.message_maps, (LocalRand.uniform(keys), None))
    x1, x2 = np.unravel_index(runs.cell, J.shape)
    k, w, n_nodes = runs.rand[0], runs.weights[0], len(runs.transcripts)
    pair, firsts = _first_seen(x2 * n_nodes + runs.node, J.shape[1] * n_nodes)
    columns = _reveal_columns(bcp, x1_syms, [
        (J.vars[1][1].symbols[x2[j]], runs.transcripts[runs.node[j]]) for j in firsts.tolist()])
    err = _sum(w * (1.0 - columns[pair, k, x1]))
    d1 = _product_tv(k, len(keys), pair, len(firsts), w)
    # binding: the best cheating claim under each view (k, x1, transcript)
    d2 = 0.0
    views, start, at, mass = _x2_laws(J, runs, (k * len(x1_syms) + x1) * n_nodes + runs.node,
                                      len(keys) * len(x1_syms) * n_nodes, False)
    for j, lo, hi in zip(views.tolist(), start[:-1].tolist(), start[1:].tolist()):
        scores = _scores(columns, pair[at[lo:hi]], mass[lo:hi])
        scores[k[j]] = 0.0  # revealing the committed key is no cheat; floor 0
        d2 += float(scores.max())
    return runs, pair, columns, PrimitiveReport(eps=float(err), delta1=float(d1), delta2=float(d2))


def measure_bc(J: JointDist, bcp: BCProtocol) -> PrimitiveReport:
    """Exact (eps, delta1, delta2) of a bit commitment protocol on J.

    eps: probability the honest reveal is rejected.  delta1 (hiding):
    distance of K from independent of party 2's commit view.  delta2
    (binding): total probability of the best cheating reveal, optimized
    pointwise over party 1's view.
    """
    return _bc_pass(J, bcp)[3]


def ideal_bc_protocol(l: int) -> tuple[JointDist, BCProtocol]:
    """XOR commitment over the uniform OT correlation.

    Party 1 commits K by announcing K xor K0' xor K1'; the reveal is checked
    against the coordinate of (K0', K1') that party 2 holds.  Measured
    figures: eps = 0, delta1 = 0 (the pad is uniform given party 2's view),
    delta2 = 1/2 (a cheater must flip one string and guess which one is
    checked).  A perfectly binding and perfectly hiding commitment of
    positive length is impossible, so this is the canonical near-ideal
    instance.
    """
    J = ideal_ot_correlation(l)
    xor = _xor_table(l)  # after the cell cap, so at most 4^7 entries

    def commit(obs, rand, tr):
        k0p, k1p = obs[0][:l], obs[0][l:]
        return xor[rand, xor[k0p, k1p]]

    def test(kprime, x1prime, x2, tr):
        k0p, k1p = x1prime[:l], x1prime[l:]
        if xor[xor[k0p, k1p], kprime] != tr[0]:
            return 0.0
        bp, kp = x2[0], x2[1:]
        held = k0p if bp == "0" else k1p
        return 1.0 if held == kp else 0.0

    bcp = BCProtocol(
        key_bits=l,
        rounds=1,
        message_maps={(1, 1): commit},
        test=test,
    )
    return J, bcp


def reduce_bc_to_sk(J: JointDist, bcp: BCProtocol) -> ReducedSK:
    """Turn a commitment protocol into a secret-key protocol.

    The key is the committed string; party 2 (who also holds the minimum
    sufficient statistic) decodes by maximizing the acceptance probability
    of the reveal test over claimed (key, X1) pairs, ties broken in
    canonical order.  The eavesdropper observes X2.
    """
    x1, x2 = _two_party_names(J)
    runs, pair, columns, base = _bc_pass(J, bcp)
    lab1 = mss(J, given=x1, target=x2)
    keys = bcp.keys()
    lab = np.array(lab1.labels)[runs.cell // J.shape[1]]

    # first best claim, keys outer, under P(x2 | v1, transcript)
    decoder: dict = {}
    n_nodes = len(runs.transcripts)
    firsts, start, at, prob = _x2_laws(J, runs, lab * n_nodes + runs.node,
                                       lab1.num_labels * n_nodes, True)
    for j, lo, hi in zip(firsts.tolist(), start[:-1].tolist(), start[1:].tolist()):
        scores = _scores(columns, pair[at[lo:hi]], prob[lo:hi]).ravel()
        # scan ``if acc > best + _TOL`` from best = -1.0; only a new maximum can pass
        rising = np.ones(len(scores), bool)
        rising[1:] = scores[1:] > np.maximum.accumulate(scores)[:-1]
        best, best_at = -1.0, None
        for at_, acc in zip(rising.nonzero()[0].tolist(), scores[rising].tolist()):
            if acc > best + _TOL:
                best, best_at = acc, at_
        name = (str(lab[j]), runs.transcripts[runs.node[j]])  # V1's symbol
        decoder[name] = keys[best_at // columns.shape[2]]
    key_maps = (lambda obs, rand, tr: rand, lambda obs, rand, tr: decoder[(obs[0], tr)])
    return _reduced(J, lab1, False, bcp.rounds, bcp.message_maps, key_maps,
                    keys, (LocalRand.uniform(keys), None), base)


# ---------------------------------------------------------------------------
# converse fuzzing harness


@dataclass(frozen=True)
class FuzzReport(_Report):
    count: int
    converse_violations: int
    region_test_violations: int
    criteria_relation_violations: int
    max_eps: float
    min_converse_slack: float

    @property
    def ok(self) -> bool:
        return (
            self.converse_violations == 0
            and self.region_test_violations == 0
            and self.criteria_relation_violations == 0
        )


def random_sk_instance(seed, m: int = 2, rounds: int = 2) -> tuple[JointDist, Protocol]:
    """Seeded random protocol on a random joint source, binary observations.

    Message alphabets are binary; maps are extensional full-domain tables;
    every identical seed reproduces the identical instance.
    """
    rng = np.random.default_rng(seed)
    with_eve = bool(rng.integers(0, 2))
    key_size = int(rng.choice([2, 3, 4]))
    names = [f"X{i+1}" for i in range(m)] + (["Z"] if with_eve else [])
    pmf = rng.random(2 ** len(names)) + 0.05
    pmf /= pmf.sum()
    J = JointDist(
        tuple((n, Alphabet(("0", "1"))) for n in names),
        pmf,
        eve="Z" if with_eve else None,
    )

    use_rand = bool(rng.integers(0, 4) == 0)  # occasional binary local coin
    randomness = tuple(
        LocalRand.uniform(["0", "1"]) if (use_rand and i == 0) else None
        for i in range(m)
    )
    rand_syms = [("0", "1") if r is not None else (None,) for r in randomness]

    def tables(slots: Sequence[tuple[int, int]], size: int) -> list[dict]:
        """The map of each (party i, after ``pos`` messages) in ``slots``, in
        that order and each in row-major key order, from one draw."""
        domains = [list(itertools.product(
            (("0",), ("1",)), rand_syms[i - 1], itertools.product(("0", "1"), repeat=pos)
        )) for i, pos in slots]
        draws = map(str, rng.integers(0, size, sum(map(len, domains))).tolist())
        # zip reads each domain first, so it stops without taking a draw
        return [dict(zip(keys, draws)) for keys in domains]

    sched = _schedule(rounds, m)
    maps = dict(zip(sched, tables([(i, pos) for pos, (_, i) in enumerate(sched)], 2)))
    key_symbols = tuple(str(v) for v in range(key_size))
    key_maps = tables([(i, len(sched)) for i in range(1, m + 1)], key_size)

    proto = Protocol(
        num_parties=m,
        obs_vars=tuple((n,) for n in names[:m]),
        rounds=rounds,
        message_maps=maps,
        key_maps=tuple(key_maps),
        key_symbols=key_symbols,
        eve_vars=("Z",) if with_eve else (),
        randomness=randomness,
    )
    return J, proto


def fuzz_converse(
    count: int = 500,
    seed: int = 20240913,
    eta: float = 0.05,
) -> FuzzReport:
    """Exercise the converse, the acceptance-region test, and the two
    security-criterion relations on seeded random protocols.

    Instance ``idx`` has 2 + idx % 2 parties and 1 + idx % 2 rounds.
    Returns counts of violations; a correct implementation reports zero of
    each, for every seed.
    """
    if count < 1:
        raise PreconditionError("count must be at least 1")
    if seed < 0:
        raise PreconditionError("seed must be nonnegative")
    _check_eta(eta)
    conv_bad = region_bad = relation_bad = 0
    max_eps = 0.0
    min_slack = math.inf
    for idx in range(count):
        J, proto = random_sk_instance([seed, idx], m=2 + idx % 2, rounds=1 + idx % 2)
        scan = [(masks, _given_rows(rows())) for masks, rows in _party_scan(J, proto)]
        rep, region_tests = _region_tests(J, proto, scan, eta)
        max_eps = max(max_eps, rep.eps)

        # relations between the combined and split security criteria
        if rep.eps > rep.eps_rec + rep.delta_sec + _TOL:
            relation_bad += 1
        if rep.eps_rec > rep.eps + _TOL or rep.delta_sec > rep.eps + _TOL:
            relation_bad += 1

        conv = _converse(J, proto, rep, eta, scan)
        if not conv.ok:
            conv_bad += 1
        if not conv.trivial:
            min_slack = min(min_slack, conv.slack)

        region_bad += sum(not t.ok for t in region_tests)
    return FuzzReport(
        count=count,
        converse_violations=conv_bad,
        region_test_violations=region_bad,
        criteria_relation_violations=relation_bad,
        max_eps=float(max_eps),
        min_converse_slack=float(min_slack),
    )


# ---------------------------------------------------------------------------
# protocol JSON interchange
#
# Map tables are keyed by delimited strings "obs=a,b|rand=r|tr=m1,m2" (empty
# rand for parties without local randomness); values are a message symbol or
# a {symbol: probability} object.  Only table-based protocols serialize.


def _encode_key(obs, rand, transcript) -> str:
    return "obs={}|rand={}|tr={}".format(
        ",".join(obs), "" if rand is None else rand, ",".join(transcript)
    )


def _decode_key(text: str):
    try:
        obs_part, rand_part, tr_part = text.split("|")
        obs = tuple(s for s in obs_part[len("obs="):].split(",") if s != "")
        rand = rand_part[len("rand="):] or None
        tr = tuple(s for s in tr_part[len("tr="):].split(",") if s != "")
    except ValueError:
        raise PreconditionError(f"malformed map key {text!r}") from None
    return obs, rand, tr


def _table_from_json(obj: Mapping) -> dict:
    table = {}
    for key, val in obj.items():
        table[_decode_key(key)] = (
            val if isinstance(val, str) else {str(s): float(p) for s, p in val.items()}
        )
    return table


def _table_to_json(table: Mapping) -> dict:
    out = {}
    for (obs, rand, tr), val in sorted(table.items()):
        out[_encode_key(obs, rand, tr)] = (
            val if isinstance(val, str) else {s: p for s, p in sorted(val.items())}
        )
    return out


def protocol_from_json(obj: Mapping) -> Protocol:
    try:
        randomness = tuple(
            None if r is None else LocalRand(tuple(r["symbols"]), tuple(r["probs"]))
            for r in obj.get("randomness", [None] * int(obj["parties"]))
        )
        maps = {}
        for key, table in obj.get("messages", {}).items():
            rnd, party = key.split(":")
            maps[(int(rnd), int(party))] = _table_from_json(table)
        return Protocol(
            num_parties=int(obj["parties"]),
            obs_vars=tuple(tuple(g) for g in obj["obs_vars"]),
            rounds=int(obj["rounds"]),
            message_maps=maps,
            key_maps=tuple(_table_from_json(t) for t in obj["keys"]),
            key_symbols=tuple(obj["key_symbols"]),
            eve_vars=tuple(obj.get("eve_vars", ())),
            randomness=randomness,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed protocol JSON: {exc}") from None


def protocol_to_json(p: Protocol) -> dict:
    for m in list(p.message_maps.values()) + list(p.key_maps):
        if callable(m):
            raise PreconditionError("only table-based protocols serialize to JSON")
    return {
        "parties": p.num_parties,
        "obs_vars": [list(g) for g in p.obs_vars],
        "eve_vars": list(p.eve_vars),
        "rounds": p.rounds,
        "randomness": [
            None if r is None else {"symbols": list(r.symbols), "probs": list(r.probs)}
            for r in p.randomness
        ],
        "key_symbols": list(p.key_symbols),
        "messages": {
            f"{j}:{i}": _table_to_json(t) for (j, i), t in sorted(p.message_maps.items())
        },
        "keys": [_table_to_json(t) for t in p.key_maps],
    }
