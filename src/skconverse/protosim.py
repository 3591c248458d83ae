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

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bounds import _TOL, _Report, _least_cit, _two_party_names
from .errors import CapExceededError, PreconditionError
from .probcore import (
    DEFAULT_CELL_CAP,
    SUM_TOL,
    Alphabet,
    JointDist,
    _block_masks,
    _chunk_rows,
    _q_pi_rows,
    factorizes,
)
from .smoothinfo import _xy_matrix, h_min_cond, h_min_smooth
from .structure import Partition, attach_label, enum_partitions, mcf, mss

#: runs one enumeration may walk; an OT reduction takes 0.9-1.7 KB per run,
#: so about 0.9 GB at the cap
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
    transcript) and must return values in ``key_symbols``.
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


def _runs(
    J: JointDist,
    pmfs: np.ndarray,
    obs_vars: Sequence[Sequence[str]],
    rounds: int,
    message_maps: Mapping[tuple[int, int], MapLike],
    randomness: Sequence[LocalRand | None],
):
    """Yield (outcome, obs, rand, transcript, rows, weights) for every run.

    ``rows`` are the rows of ``pmfs`` (pmfs over J's cells) with positive
    mass at ``outcome``, ``weights`` the run's probability under each, taken
    as a walk of that row alone would; a factor of 1.0 reuses the weights.
    Party i observes the J variables ``obs_vars[i-1]`` and the local
    randomness ``randomness[i-1]`` (None: none) and speaks by ``message_maps``
    in the order of ``_schedule``.  Only the support cells, where some row
    has mass, are walked: outcomes in row-major order, then randomness
    points, then depth-first over the messages; ``outcome``, ``obs`` and
    ``rows`` are the same objects for every run of one outcome.  A message
    value that is a plain ``str`` is taken as is, without ``_branches``.
    Raises when the rows' joint support x randomness points exceeds STATE_CAP.
    """
    positions = {n: i for i, n in enumerate(J.var_names)}
    for group in obs_vars:
        for n in group:
            if n not in positions:
                raise PreconditionError(f"protocol observes unknown variable {n!r}")
    space = [((), 1.0)]
    for r in randomness:
        syms = [(None, 1.0)] if r is None else list(zip(r.symbols, r.probs))
        space = [
            (combo + (s,), w * pw) for combo, w in space for s, pw in syms if pw > 0
        ]
    cells = np.flatnonzero(pmfs.any(axis=0))
    support = len(cells)
    if support * len(space) > STATE_CAP:
        raise CapExceededError(
            f"{support} outcomes x {len(space)} randomness points "
            f"exceed the cap {STATE_CAP}"
        )
    obs_pos = [tuple(positions[n] for n in group) for group in obs_vars]
    steps = [(i - 1, message_maps.get((j, i))) for j, i in _schedule(rounds, len(obs_vars))]
    end = len(steps)
    index = np.unravel_index(cells, J.shape) if J.vars else ()
    columns = [[a.symbols[k] for k in idx.tolist()] for (_, a), idx in zip(J.vars, index)]
    outcomes = zip(*columns) if columns else [()] * support  # no variables: one cell
    for syms, col in zip(outcomes, pmfs[:, cells].T.tolist()):
        rows = tuple(r for r, q in enumerate(col) if q > 0)
        masses = [col[r] for r in rows]
        obs = tuple(tuple(syms[k] for k in pos) for pos in obs_pos)
        for rand, rw in space:
            ws = masses if rw == 1.0 else [q * rw for q in masses]
            stack = [((), ws, 0)]
            while stack:
                transcript, ws, pos = stack.pop()
                # one message after another until a stochastic one branches;
                # its branches go on the stack, the last one on top
                while pos < end:
                    i, m = steps[pos]
                    pos += 1
                    if m is None:
                        transcript += ("-",)
                        continue
                    val = _map_value(m, obs[i], rand[i], transcript)
                    if isinstance(val, str):
                        transcript += (val,)
                        continue
                    for sym, pw in _branches(val):
                        scaled = ws if pw == 1.0 else [w * pw for w in ws]
                        stack.append((transcript + (sym,), scaled, pos))
                    break
                else:
                    yield syms, obs, rand, transcript, rows, ws


def _eve_pos(J: JointDist, p: Protocol) -> tuple[int, ...]:
    """Positions in J of the protocol's eavesdropper variables."""
    positions = {n: i for i, n in enumerate(J.var_names)}
    for n in p.eve_vars:
        if n not in positions:
            raise PreconditionError(f"unknown eavesdropper variable {n!r}")
    return tuple(positions[n] for n in p.eve_vars)


def _laws(J: JointDist, p: Protocol, pmfs: np.ndarray) -> list[dict]:
    """``protocol_law`` of ``p`` on each pmf row of ``pmfs`` over J's cells,
    from one walk of the runs: each row's law has the keys, order and floats
    of a walk of that row alone."""
    eve_pos = _eve_pos(J, p)
    laws: list = [defaultdict(float) for _ in pmfs]
    key_set = set(p.key_symbols)
    syms_of_z = None
    for syms, obs, rand, transcript, rows, ws in _runs(
        J, pmfs, p.obs_vars, p.rounds, p.message_maps, p.randomness
    ):
        if syms is not syms_of_z:
            syms_of_z, z = syms, tuple(syms[k] for k in eve_pos)
        # evaluate keys, branching if stochastic
        key_stack = [((), ws)]
        for i in range(p.num_parties):
            val = _map_value(p.key_maps[i], obs[i], rand[i], transcript)
            if isinstance(val, str):
                if val not in key_set:
                    raise PreconditionError(
                        f"key map returned {val!r} outside the key alphabet"
                    )
                key_stack = [(keys + (val,), kws) for keys, kws in key_stack]
                continue
            branches = _branches(val)
            for sym, _ in branches:
                if sym not in key_set:
                    raise PreconditionError(
                        f"key map returned {sym!r} outside the key alphabet"
                    )
            key_stack = [(keys + (sym,), kws if pw == 1.0 else [w * pw for w in kws])
                         for keys, kws in key_stack for sym, pw in branches]
        for keys, kws in key_stack:
            for r, w in zip(rows, kws):
                laws[r][(keys, transcript, z)] += w
    return [dict(law) for law in laws]


def protocol_law(J: JointDist, p: Protocol) -> dict:
    """Exact joint law keyed (keys, transcript, eve_view), within the run cap of ``_runs``."""
    return _laws(J, p, J.pmf[None])[0]


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


def _tv(law: Mapping, ref) -> float:
    """TV distance between a dict law and a dict or ``_ProductLaw`` ``ref``.

    Sums |law - ref| over the keys of ``law`` in its order, then the ``ref``
    mass on keys ``law`` misses, in ``ref``'s order.  A result above the
    mean of the two masses by more than SUM_TOL is a fault (AssertionError);
    one above 1, from rounding or from input masses of 1 within SUM_TOL, is
    returned as 1.0.
    """
    total = law_mass = ref_mass = 0.0
    for key, w in law.items():
        total += abs(w - ref.get(key, 0.0))
        law_mass += w
    for key, r in ref.items():
        ref_mass += r
        if key not in law:
            total += r
    dist = 0.5 * total
    if dist > 0.5 * (law_mass + ref_mass) + SUM_TOL:
        raise AssertionError(f"distance {dist!r} exceeds the mean of its masses")
    return min(dist, 1.0)


class _ProductLaw:
    """Product of the marginals of a law keyed (a, b), without its |A| x |B| cells."""

    def __init__(self, law: Mapping) -> None:
        self.pa: dict = defaultdict(float)
        self.pb: dict = defaultdict(float)
        for (a, b), w in law.items():
            self.pa[a] += w
            self.pb[b] += w

    def get(self, key, default: float = 0.0) -> float:
        a, b = key
        return self.pa[a] * self.pb[b] if a in self.pa and b in self.pb else default

    def items(self):
        for a, wa in self.pa.items():
            for b, wb in self.pb.items():
                yield (a, b), wa * wb


class _UniformKeyLaw:
    """A uniform key in ``keys`` times the law ``pfz`` keyed (f, z), keyed
    (key, f, z), without its |K| x |(F, Z)| cells: each cell is m / ``nk``,
    in the order of ``pfz``, then of ``keys`` (repeats kept once)."""

    def __init__(self, pfz: Mapping, keys: Sequence, nk: int) -> None:
        self.pfz, self.keys, self.nk = pfz, tuple(dict.fromkeys(keys)), nk
        self.known = set(self.keys)

    def get(self, key, default: float = 0.0) -> float:
        k, f, z = key
        m = self.pfz.get((f, z))
        return m / self.nk if m is not None and k in self.known else default

    def items(self):
        for (f, z), m in self.pfz.items():
            for k in self.keys:
                yield (k, f, z), m / self.nk


def _security(law: Mapping, p: Protocol) -> SecurityReport:
    """Secret-key figures of ``p`` from its exact law keyed (keys, f, z)."""
    nk = len(p.key_symbols)
    pfz: dict = defaultdict(float)
    agree = 0.0
    law1: dict = defaultdict(float)
    for (keys, f, z), w in law.items():
        pfz[(f, z)] += w
        if keys.count(keys[0]) == len(keys):
            agree += w
        law1[(keys[0], f, z)] += w

    # combined criterion: distance to uniform agreed keys x real (F, Z)
    n = p.num_parties
    eps = _tv(law, _UniformKeyLaw(pfz, [(k,) * n for k in p.key_symbols], nk))
    # split criteria on the first party's key
    delta_sec = _tv(law1, _UniformKeyLaw(pfz, p.key_symbols, nk))

    return SecurityReport(
        eps=float(eps),
        eps_rec=float(1.0 - agree),
        delta_sec=float(delta_sec),
        key_len_bits=p.key_len_bits,
        num_key_values=nk,
    )


def eval_sk_security(J: JointDist, p: Protocol) -> SecurityReport:
    """Measure a protocol's exact secret-key parameters on J."""
    return _security(protocol_law(J, p), p)


def _var_blocks(J: JointDist, p: Protocol, partition: Partition) -> list[frozenset[int]]:
    """A partition of the parties as blocks of J's non-eavesdropper variables.

    Those variables are numbered from 1 in J's order, as ``factorizes`` and
    ``_block_masks`` expect.  The parties' observations outside the
    eavesdropper variables must partition them.
    """
    if partition.m != p.num_parties:
        raise PreconditionError(
            f"partition is over {partition.m} parties but the protocol has {p.num_parties}"
        )
    blocks = [[n for n in group if n not in p.eve_vars] for group in p.obs_vars]
    nonz = [n for n in J.var_names if n not in p.eve_vars]
    if sorted(n for b in blocks for n in b) != sorted(nonz):
        raise PreconditionError("party observations must partition the non-conditioning variables")
    index_of = {n: i + 1 for i, n in enumerate(nonz)}
    return [frozenset(index_of[n] for i in b for n in blocks[i - 1]) for b in partition.blocks]


def _party_scan(J: JointDist, p: Protocol, partitions: Sequence[Partition]):
    """(masks, q) chunks as ``bounds._partition_scan`` yields them, on J's own
    cells: ``masks`` holds the partitions' block bitmasks over the parties,
    and ``q`` their Q^pi given the eavesdropper variables, each party's
    variables one block (none, for a party that sees only those: a factor
    of 1).  The partitions are checked before this returns; one
    ``_q_pi_rows`` builder serves every chunk."""
    zs = [J.var_names[k] for k in _eve_pos(J, p)]

    def padded(rows: list[list[int]]) -> np.ndarray:
        return np.array([row + [0] * (p.num_parties - len(row)) for row in rows])

    var_masks = padded([[sum(1 << (i - 1) for i in b) for b in _var_blocks(J, p, pi)]
                        for pi in partitions])
    masks = padded([_block_masks(pi, pi.m) for pi in partitions])
    build, step = _q_pi_rows(J, zs), _chunk_rows(J.n_cells)
    return ((masks[i:i + step], build(var_masks[i:i + step])) for i in range(0, len(masks), step))


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
    parts = [partition] if partition is not None else enum_partitions(p.num_parties)
    scan = _party_scan(J, p, parts)
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


def _region_mass(law: Mapping, inside) -> float:
    """Mass of ``law`` on the keys where ``inside`` holds, clipped to 1 as in
    ``_tv``; a sum above the law's whole mass by more than SUM_TOL is a fault."""
    part = total = 0.0
    for key, w in law.items():
        total += w
        if inside(key):
            part += w
    if part > total + SUM_TOL:
        raise AssertionError(f"region mass {part!r} exceeds the law's mass {total!r}")
    return min(part, 1.0)


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
    return _region_tests(J, p, [partition], _party_scan(J, p, [partition]), eta)[1][0]


def _check_eta(eta: float) -> None:
    if not 0 < eta < 1:
        raise PreconditionError("eta must lie in (0, 1)")


def _region_tests(
    J: JointDist, p: Protocol, partitions: Sequence[Partition], scan, eta: float,
) -> tuple[SecurityReport, list[RegionTestReport]]:
    """The protocol's report on J and ``acceptance_region_test`` of each
    partition, given their ``_party_scan`` chunks: P's law and every Q^pi
    law from one walk of the runs."""
    p_law, *q_laws = _laws(J, p, np.vstack([J.pmf, *(q for _, q in scan)]))
    rep = _security(p_law, p)
    return rep, [_region_test(p, pi.num_blocks, eta, p_law, q_law, rep)
                 for pi, q_law in zip(partitions, q_laws)]


def _region_test(
    p: Protocol, l: int, eta: float, p_law: Mapping, q_law: Mapping, rep: SecurityReport,
) -> RegionTestReport:
    """The region test of a partition into ``l`` blocks, given the protocol's
    law on J, its report and its law on the partition's Q^pi."""
    nk = len(p.key_symbols)
    lam = (l - 1) * math.log2(nk) - l * math.log2(1.0 / eta)
    q_fz: dict = defaultdict(float)
    for (keys, f, z), w in q_law.items():
        q_fz[(f, z)] += w

    def in_region(keys, f, z, qw) -> bool:
        mfz = q_fz[(f, z)]
        if qw == 0.0 or mfz == 0.0:
            return True
        if keys.count(keys[0]) != len(keys):
            return False  # ideal mass 0, conditional positive
        qc = qw / mfz
        return -math.log2(nk) - math.log2(qc) >= lam - _TOL

    # each Q key decided once; a key Q lacks has Q-mass 0, so lies inside
    inside = {key: in_region(*key, qw) for key, qw in q_law.items()}
    return RegionTestReport(
        lam=lam,
        type1=_region_mass(p_law, lambda key: not inside.get(key, True)),
        type1_bound=float(rep.eps + eta),
        type2=_region_mass(q_law, inside.__getitem__),
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
    var_blocks = [b for b in _var_blocks(J, p, partition) if b]
    if len(var_blocks) < 2:
        return True
    if not factorizes(J, var_blocks, list(p.eve_vars) or None):
        raise PreconditionError(
            "J does not conditionally factorize across the partition"
        )
    nonz_pos = [k for k in range(len(J.vars)) if k not in eve_pos]
    nonz_vars = tuple(J.vars[k] for k in nonz_pos)
    sym_index = [{s: a for a, s in enumerate(alpha.symbols)} for _, alpha in nonz_vars]
    shape = [len(index) for index in sym_index]
    slices: dict = defaultdict(lambda: np.zeros(shape))
    for syms, _, _, f, _, (w,) in _runs(
        J, J.pmf[None], p.obs_vars, p.rounds, p.message_maps, p.randomness
    ):
        idx = tuple(index[syms[k]] for index, k in zip(sym_index, nonz_pos))
        slices[(f, tuple(syms[k] for k in eve_pos))][idx] += w

    for arr in slices.values():
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
    ideal = np.tile(py / nk, (nk, 1))
    distance = 0.5 * float(np.abs(pky - ideal).sum())
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

    Output length floor(H_min^eps(X|Y) - 2 log2(1/(2 eta))); the claim is
    that some 2-universal hash of that length lands within 2*eps + eta of
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
    out_len = max(0, math.floor(hval - 2 * math.log2(1.0 / (2 * eta))))
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


def _ot_pass(
    J: JointDist, otp: OTProtocol, keep_runs: bool,
) -> tuple[list | None, PrimitiveReport]:
    """One walk of the OT runs on J: the list of its (x1, x2, (k, b),
    transcript, weight) runs if ``keep_runs`` and the ``measure_ot`` report."""
    l = otp.length
    runs = ((x1, x2, rand, tr, w) for (x1, x2), _, rand, tr, _, (w,) in _runs(
        J, J.pmf[None], [[n] for n in _two_party_names(J)], otp.rounds, otp.message_maps,
        _ot_randomness(otp)))
    runs = list(runs) if keep_runs else runs
    err = 0.0
    law1: dict = defaultdict(float)  # (K_{not B}; X2, B, F)
    law2: dict = defaultdict(float)  # (B; K0, K1, X1, F)
    for x1, x2, (k, b), tr, w in runs:
        k0, k1 = k[:l], k[l:]
        kb, kbar = (k0, k1) if b == "0" else (k1, k0)
        if otp.khat(x2, b, tr) != kb:
            err += w
        law1[(kbar, (x2, b, tr))] += w
        law2[(b, (k0, k1, x1, tr))] += w
    d1 = _tv(law1, _ProductLaw(law1))
    d2 = _tv(law2, _ProductLaw(law2))
    return runs if keep_runs else None, PrimitiveReport(
        eps=float(err), delta1=float(d1), delta2=float(d2))


def measure_ot(J: JointDist, otp: OTProtocol) -> PrimitiveReport:
    """Exact (eps, delta1, delta2) of an OT protocol on resource J.

    eps is the probability the estimate misses K_B; delta1 the distance of
    K_{not-B} from independent of party 2's view; delta2 the distance of B
    from independent of party 1's view.
    """
    return _ot_pass(J, otp, keep_runs=False)[1]


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
    name = "V0" if to_eve else "V1"
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


def _posteriors(rows) -> dict:
    """P(x2 | key) from (key, x2, weight) rows, keys and x2 values in first-seen order."""
    mass: dict = defaultdict(lambda: defaultdict(float))
    for key, x2, w in rows:
        mass[key][x2] += w
    out = {}
    for key, law in mass.items():
        tot = sum(law.values())
        out[key] = {x2: w / tot for x2, w in law.items()}
    return out


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
    runs, base = _ot_pass(J, otp, keep_runs=variant == 2)
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
    label_of = {s: str(lab1.label_of(s)) for s in J.alphabet(x1).symbols}
    cond = _posteriors(((label_of[x1s], b, tr), x2s, w) for x1s, x2s, (_, b), tr, w in runs)
    cond_v = _posteriors((label_of[x1s], x2s, w) for x1s, x2s, _, _, w in runs)
    # every reachable key-map input (v, b, f) reads cond at (v, not b, f)
    flip = {"0": "1", "1": "0"}
    used_fallback = any((v, flip[b], f) not in cond for v, b, f in cond)

    def key1(obs, rand, tr):
        return rand[l:] if tr[-1] == "0" else rand[:l]  # K_{not B}

    def key2(obs, rand, tr):
        v, bbar, f_ot = obs[0], flip[rand], tr[:n_ot_msgs]
        out: dict = defaultdict(float)
        for x2s, pw in cond.get((v, bbar, f_ot), cond_v[v]).items():
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


def _reveal_columns(bcp: BCProtocol, x1_syms: Sequence[str], runs) -> dict:
    """The reveal test of ``bcp`` as one |K| x |X1| column, keys outer, per
    (x2, transcript) pair of ``runs``, in first-seen order.

    ``test`` runs once per (k', x1', x2, transcript).  The cells are checked
    against DEFAULT_CELL_CAP before any column is built.
    """
    keys = bcp.keys()
    pairs = dict.fromkeys((x2, tr) for _, x2, _, tr, _ in runs)
    cells = len(keys) * len(x1_syms) * len(pairs)
    if cells > DEFAULT_CELL_CAP:
        raise CapExceededError(f"{cells} reveal-test cells exceed the cap {DEFAULT_CELL_CAP}")
    return {
        (x2, tr): np.array([[float(bcp.test(k, x1, x2, tr)) for x1 in x1_syms] for k in keys])
        for x2, tr in pairs
    }


def _scores(columns: Mapping, x2_law: Mapping, tr) -> np.ndarray:
    """Each claim's acceptance mass: w * column summed over ``x2_law`` in
    order, the same floats as adding the terms one by one."""
    acc = 0.0
    for x2, w in x2_law.items():
        acc = acc + w * columns[(x2, tr)]
    return acc


def _bc_pass(J: JointDist, bcp: BCProtocol) -> tuple[list, dict, PrimitiveReport]:
    """One walk of the commitment runs on J: the list of its (x1, x2, (k, None),
    transcript, weight) runs, their ``_reveal_columns`` and the ``measure_bc``
    report.  The table's cells are bounded below before the walk: every x2 of
    positive mass has a run, so there are at least |K| x |X1| x |supp X2|."""
    keys = bcp.keys()
    x1_syms = J.alphabet(_two_party_names(J)[0]).symbols
    least = len(keys) * len(x1_syms) * int(J.array().any(axis=0).sum())
    if least > DEFAULT_CELL_CAP:
        raise CapExceededError(
            f"at least {least} reveal-test cells exceed the cap {DEFAULT_CELL_CAP}")
    randomness = (LocalRand.uniform(keys), None)
    runs = [(x1, x2, rand, tr, w) for (x1, x2), _, rand, tr, _, (w,) in _runs(
        J, J.pmf[None], [[n] for n in _two_party_names(J)], bcp.rounds, bcp.message_maps,
        randomness)]
    columns = _reveal_columns(bcp, x1_syms, runs)
    row = {k: i for i, k in enumerate(keys)}
    col = {x1: i for i, x1 in enumerate(x1_syms)}
    err = 0.0
    law_hide: dict = defaultdict(float)
    view: dict = defaultdict(lambda: defaultdict(float))
    for x1, x2, (k, _), tr, w in runs:
        err += w * (1.0 - float(columns[(x2, tr)][row[k], col[x1]]))
        law_hide[(k, (x2, tr))] += w
        view[(k, x1, tr)][x2] += w
    d1 = _tv(law_hide, _ProductLaw(law_hide))
    d2 = 0.0
    for (k, x1, tr), x2_law in view.items():
        scores = _scores(columns, x2_law, tr)
        scores[row[k]] = 0.0  # revealing the committed key is no cheat; floor 0
        d2 += float(scores.max())
    return runs, columns, PrimitiveReport(eps=float(err), delta1=float(d1), delta2=float(d2))


def measure_bc(J: JointDist, bcp: BCProtocol) -> PrimitiveReport:
    """Exact (eps, delta1, delta2) of a bit commitment protocol on J.

    eps: probability the honest reveal is rejected.  delta1 (hiding):
    distance of K from independent of party 2's commit view.  delta2
    (binding): total probability of the best cheating reveal, optimized
    pointwise over party 1's view.
    """
    return _bc_pass(J, bcp)[2]


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
    runs, columns, base = _bc_pass(J, bcp)
    lab1 = mss(J, given=x1, target=x2)
    keys = bcp.keys()
    x1_syms = J.alphabet(x1).symbols
    label_of = {s: str(lab1.label_of(s)) for s in x1_syms}

    # first best claim, keys outer, under P(x2 | v1, transcript)
    decoder: dict = {}
    posteriors = _posteriors(((label_of[x1s], tr), x2s, w) for x1s, x2s, _, tr, w in runs)
    for (v, tr), x2_law in posteriors.items():
        best, best_at = -1.0, None
        for at, acc in enumerate(_scores(columns, x2_law, tr).ravel().tolist()):
            if acc > best + _TOL:
                best, best_at = acc, at
        decoder[(v, tr)] = keys[best_at // len(x1_syms)]
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
        m = 2 + idx % 2
        J, proto = random_sk_instance([seed, idx], m=m, rounds=1 + idx % 2)
        parts = enum_partitions(m)
        scan = list(_party_scan(J, proto, parts))
        rep, region_tests = _region_tests(J, proto, parts, scan, eta)
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
