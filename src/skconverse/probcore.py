"""Finite-alphabet joint distributions with exact information measures.

Distributions are dense, row-major mass functions over a named product
alphabet.  Everything here is desk-scale by design: the number of cells is
capped (default 10^7) and all arithmetic is plain float64 with no rounding
beyond construction-time normalization checks.  All information quantities
are in bits.

Values are immutable after construction and every operation is a pure
function, so concurrent use from multiple threads needs no synchronization.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import orjson

from .errors import CapExceededError, PreconditionError, ShapeMismatchError

DEFAULT_CELL_CAP = 10_000_000

#: construction-time tolerance on the total mass of a normalized pmf
SUM_TOL = 1e-9
#: slack allowed above 1 for the total mass of a subnormalized function
SUBNORM_TOL = 1e-12
#: slack on masses compared inside the smoothing and testing solvers
MASS_SLACK = 1e-15

#: stand-in for log2(0); finite so that 0 * log 0 style products stay exact,
#: while exp2() of it underflows to exactly 0.0
LOG2_ZERO = -1e18


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol labels."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        if not self.symbols:
            raise PreconditionError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise PreconditionError("alphabet symbols must be unique")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise PreconditionError(f"unknown symbol {symbol!r}") from None


Var = tuple[str, Alphabet]


def _normalize_vars(vars: Sequence) -> tuple[Var, ...]:
    out = []
    for v in vars:
        name, alpha = v
        if not isinstance(alpha, Alphabet):
            alpha = Alphabet(tuple(alpha))
        out.append((str(name), alpha))
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise PreconditionError("variable names must be unique")
    return tuple(out)


class _MassMixin:
    """Shared helpers for JointDist / SubDist."""

    vars: tuple[Var, ...]
    pmf: np.ndarray

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.vars)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for _, a in self.vars)

    @property
    def n_cells(self) -> int:
        return int(self.pmf.size)

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.vars):
            if n == name:
                return i
        raise PreconditionError(f"unknown variable name {name!r}")

    def alphabet(self, name: str) -> Alphabet:
        return self.vars[self.axis(name)][1]

    def array(self) -> np.ndarray:
        """The pmf reshaped to one axis per variable (read-only view)."""
        return self.pmf.reshape(self.shape)

    def total_mass(self) -> float:
        return float(self.pmf.sum())

    def outcomes(self) -> Iterable[tuple[str, ...]]:
        """Row-major iteration over symbol tuples."""
        return itertools.product(*(a.symbols for _, a in self.vars))


def _prepare_pmf(vars: tuple[Var, ...], pmf) -> np.ndarray:
    """A read-only float64 copy of ``pmf``, checked against the ``vars`` it spans."""
    want = math.prod(len(a) for _, a in vars)
    if want > DEFAULT_CELL_CAP:
        raise CapExceededError(f"{want} cells exceed the cap {DEFAULT_CELL_CAP}")
    try:
        arr = np.array(pmf)  # a copy, its dtype inferred in the same pass
    except ValueError as exc:  # a ragged nesting
        raise PreconditionError("pmf entries must be numbers") from exc
    if arr.dtype.kind not in "iuf":  # strings, booleans, objects
        raise PreconditionError("pmf entries must be numbers")
    arr = arr.astype(np.float64, copy=False).reshape(-1)
    if arr.size != want:
        raise PreconditionError(
            f"pmf length {arr.size} does not equal product alphabet size {want}"
        )
    if not np.isfinite(arr).all():
        raise PreconditionError("pmf entries must be finite")
    if arr.min(initial=0.0) < -1e-12:
        raise PreconditionError("pmf entries must be nonnegative")
    np.clip(arr, 0.0, None, out=arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointDist(_MassMixin):
    """Dense probability mass function over a named product alphabet.

    ``eve`` optionally names the variable holding the eavesdropper's side
    information; bound computations use it as the default conditioning
    variable.  It carries no weight in equality or arithmetic.
    """

    vars: tuple[Var, ...]
    pmf: np.ndarray
    eve: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", _normalize_vars(self.vars))
        object.__setattr__(self, "pmf", _prepare_pmf(self.vars, self.pmf))
        total = self.pmf.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise PreconditionError(f"pmf sums to {total}, expected 1 within {SUM_TOL}")
        if self.eve is not None and self.eve not in self.var_names:
            raise PreconditionError(f"eve variable {self.eve!r} not among variables")


@dataclass(frozen=True)
class SubDist(_MassMixin):
    """Subnormalized nonnegative mass function (total mass at most 1)."""

    vars: tuple[Var, ...]
    pmf: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", _normalize_vars(self.vars))
        object.__setattr__(self, "pmf", _prepare_pmf(self.vars, self.pmf))
        total = self.pmf.sum()
        if total > 1.0 + SUBNORM_TOL:
            raise PreconditionError(f"subnormalized mass {total} exceeds 1")


@dataclass(frozen=True)
class Channel:
    """Conditional pmf: one distribution over the outputs per input row.

    Rows are keyed by input index tuples.  Rows for zero-probability
    conditioning inputs may be absent: such an input never occurs.
    """

    in_vars: tuple[Var, ...]
    out_vars: tuple[Var, ...]
    rows: Mapping[tuple[int, ...], np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "in_vars", _normalize_vars(self.in_vars))
        object.__setattr__(self, "out_vars", _normalize_vars(self.out_vars))
        rows = {}
        for key, row in self.rows.items():
            arr = _prepare_pmf(self.out_vars, row)
            if abs(arr.sum() - 1.0) > SUM_TOL:
                raise PreconditionError("channel row must sum to 1")
            rows[tuple(int(i) for i in key)] = arr
        object.__setattr__(self, "rows", rows)

    @property
    def out_shape(self) -> tuple[int, ...]:
        return tuple(len(a) for _, a in self.out_vars)


# ---------------------------------------------------------------------------
# basic manipulation


def _resolve_names(J: _MassMixin, names) -> list[str]:
    if isinstance(names, str):
        names = [names]
    names = list(names)
    for n in names:
        J.axis(n)  # raises on unknown
    return names


def marginal(J, keep) -> "JointDist | SubDist":
    """Sum out all variables not in ``keep``; order of kept vars preserved."""
    keep = _resolve_names(J, keep)
    if not keep:
        raise PreconditionError("must keep at least one variable")
    keep_set = set(keep)
    drop_axes = tuple(i for i, (n, _) in enumerate(J.vars) if n not in keep_set)
    arr = J.array().sum(axis=drop_axes) if drop_axes else J.array()
    new_vars = tuple(v for v in J.vars if v[0] in keep_set)
    if isinstance(J, JointDist):
        eve = J.eve if J.eve in keep_set else None
        return JointDist(new_vars, arr.reshape(-1), eve=eve)
    return SubDist(new_vars, arr.reshape(-1))


def conditional_family(J, targets, given) -> Channel:
    """Channel of conditional rows P(targets | given).

    Rows exist only for conditioning assignments of positive probability.
    """
    targets = _resolve_names(J, targets)
    given = _resolve_names(J, given)
    if set(targets) & set(given):
        raise PreconditionError("targets and given must be disjoint")
    sub = marginal(J, targets + given)
    # axes in sub follow J's variable order; move given axes to the front
    arr = np.transpose(sub.array(), [sub.axis(n) for n in given + targets])
    g_shape = arr.shape[: len(given)]
    flat = arr.reshape(math.prod(g_shape), -1)
    masses = flat.sum(axis=1)
    if masses.sum() <= 0:
        raise PreconditionError("conditioning marginal is identically zero")
    pos = masses > 0
    keys = map(tuple, np.argwhere(pos.reshape(g_shape)).tolist())
    rows = dict(zip(keys, flat[pos] / masses[pos, None]))
    in_vars = tuple((n, J.alphabet(n)) for n in given)
    out_vars = tuple((n, J.alphabet(n)) for n in targets)
    return Channel(in_vars, out_vars, rows)


def conditional_product(J: JointDist, partition, z=None) -> JointDist:
    """Product distribution across partition blocks, conditioned on ``z``.

    The non-``z`` variables are numbered 1..m in their order of appearance
    and partitioned by ``partition``.  The result Q keeps P's marginal on
    ``z`` and, per z-slice, replaces the conditional law by the product of
    its block marginals.  With ``z=None`` it is the plain product of block
    marginals.
    """
    z_names = _resolve_names(J, z) if z is not None else []
    m = len(J.vars) - len(z_names)
    (pmf,) = _q_pi_rows(J, z_names)(np.array([_block_masks(partition, m)]))
    return JointDist(J.vars, pmf, eve=J.eve)


def _block_masks(partition, m: int) -> list[int]:
    """Bitmask of each block (bit i-1 for variable i), in the partition's order."""
    blocks = [sorted(int(i) for i in b) for b in getattr(partition, "blocks", partition)]
    covered = sorted(i for b in blocks for i in b)
    if covered != list(range(1, m + 1)) or len(blocks) < 2:
        raise PreconditionError(
            "partition must split the non-conditioning variables into >= 2 blocks"
        )
    if any(not b for b in blocks):
        raise PreconditionError("partition blocks must be nonempty")
    return [sum(1 << (i - 1) for i in b) for b in blocks]


#: cells of Q^pi rows built at a time; a chunk holds at least one row
_CHUNK_CELLS = 1 << 16
#: cells of rows that ``hyptest._betas`` orders and thresholds at a time, so
#: that a block's temporaries fit in a 2 MB L2 cache; at least one row
_BLOCK_CELLS = 1 << 15
#: cells that ``stable_order`` prepares or checks per numpy pass
_ORDER_BLOCK = 1 << 13


def _chunk_rows(cells: int, chunk: int = _CHUNK_CELLS) -> int:
    return max(1, chunk // cells)


def _q_pi_rows(J: JointDist, z_names: Sequence[str]) -> Callable[..., np.ndarray]:
    """Builder of conditional-product pmfs of J given ``z_names``, many at a time.

    The builder maps an (r, k) array of block bitmasks (bit i-1 for the i-th
    non-z variable, blocks in product order, zero entries ignored) to the
    (r, cells) pmfs of their Q^pi, or, given ``cells``, flat indices of J's
    cells, to those rows' columns ``cells``.  Every entry is the product of
    its blocks' marginals of its z-slice's conditional law, in block order,
    times the slice's mass: the same floating-point operations whatever the
    rows and cells around it.  The conditional law is laid out z first, and
    its block marginals are summed in that memory order; each is computed
    when a call first needs it and kept for later calls.

    Each block's factor, its marginal at J's full size, is copied into a
    store when a call first needs it and reused by later calls; a call on
    ``cells`` gathers only its own masks' factors, on those cells.  The
    first call allocates rows for its own masks only, so a one-row caller
    allocates no more than its factors.  A later call that needs more
    allocates min(2^m, ``_chunk_rows(J.n_cells)`` * m) rows, as many
    distinct masks as a chunk of partitions can have (or its own, if more).
    When a call's new masks do not fit, the store is emptied and refilled
    with that call's.
    """
    if len(set(z_names)) != len(z_names):
        raise PreconditionError("conditioning variables must be unique")
    x_axes = [a for a, n in enumerate(J.var_names) if n not in z_names]
    perm = [J.axis(n) for n in z_names] + x_axes
    arr = np.transpose(J.array(), perm)
    # one sum per slice view: a sum over a contiguous copy rounds otherwise
    # once a slice that is not contiguous in J spans more than 8192 cells
    mass = np.array([arr[zi].sum() for zi in np.ndindex(*arr.shape[: len(z_names)])])
    mass = mass.reshape(arr.shape[: len(z_names)] + (1,) * len(x_axes))
    # a slice of zero mass keeps Q = 0: its marginals are zero
    cond = np.divide(arr, mass, out=np.zeros(arr.shape), where=mass > 0.0)
    back = sorted(range(len(perm)), key=perm.__getitem__)
    cond = np.transpose(cond, back)
    scale = np.empty(J.n_cells)
    scale.reshape(J.shape)[...] = np.transpose(mass, back)
    # the block marginals by mask, on J's axes; mask 0 contributes 1.0
    cache: dict[int, np.ndarray | float] = {0: 1.0}
    cap = min(1 << len(x_axes), _chunk_rows(J.n_cells) * len(x_axes))
    # slot[k] is mask k's row of the store, -1 while it has none
    slot = np.full(1 << len(x_axes), -1, dtype=np.intp)
    store, filled, shape = np.empty((0, J.n_cells)), 0, J.shape

    def build(masks: np.ndarray, cells: np.ndarray | None = None) -> np.ndarray:
        nonlocal store, filled
        # a lookup over the 2^m masks finds the distinct ones: cheaper than
        # np.unique's sort, which would dominate a chunk of one row
        keys = np.zeros(len(slot), dtype=bool)
        keys[masks] = True
        keys = keys.nonzero()[0]
        new = keys[slot[keys] < 0]
        if filled + len(new) > cap:  # emptied: this call's masks are refilled
            slot[:], filled, new = -1, 0, keys
        if filled + len(new) > len(store):
            rows = max(cap, filled + len(new)) if len(store) else len(new)
            grown = np.empty((rows, J.n_cells))
            grown[:filled] = store[:filled]
            store = grown
        for k in new.tolist():
            if k not in cache:
                other = tuple(a for i, a in enumerate(x_axes) if not k >> i & 1)
                cache[k] = cond.sum(axis=other, keepdims=True) if other else cond
            store[filled].reshape(shape)[...] = cache[k]
            slot[k], filled = filled, filled + 1
        # a block column that is 0 in every row multiplies by 1.0: left out
        used = masks.any(axis=0)
        used[0] = True
        if cells is None:
            table, inv = store, slot[masks[:, used]]
        else:  # only this call's factors, on ``cells``, in mask order
            table = store[np.ix_(slot[keys], cells)]
            at = np.zeros(len(slot), dtype=np.intp)
            at[keys] = np.arange(len(keys))
            inv = at[masks[:, used]]
        out = table[inv[:, 0]]
        for col in inv.T[1:]:
            out *= table[col]
        out *= scale if cells is None else scale[cells]
        return out

    return build


def factorizes(J: JointDist, partition, z=None) -> bool:
    """True if J's conditional law given z is a product across the partition:
    no cell of J is more than 1e-9 from the conditional product's."""
    Q = conditional_product(J, partition, z)
    return bool(np.max(np.abs(Q.pmf - J.pmf)) <= 1e-9)


def iid_extend(J: JointDist, n: int) -> JointDist:
    """n-fold product distribution with time-indexed variable names."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if J.n_cells ** n > DEFAULT_CELL_CAP:  # checked before np.kron builds it
        raise CapExceededError(
            f"{J.n_cells}^{n} cells exceed the cap {DEFAULT_CELL_CAP}; "
            "use the type-class operations instead"
        )
    if n == 1:
        return J
    pmf = J.pmf
    out = pmf
    for _ in range(n - 1):
        out = np.kron(out, pmf)
    vars = tuple(
        (f"{name}#{t}", alpha) for t in range(1, n + 1) for name, alpha in J.vars
    )
    return JointDist(vars, out)


def fuse_vars(J: JointDist, groups: Sequence[Sequence[str]], names: Sequence[str]) -> JointDist:
    """Fuse each group of variables into a single product-alphabet variable.

    Groups must cover all variables.  Fused symbols join the member symbols
    with '|'.  Used to treat a block of per-round variables as one party
    observation.
    """
    groups = [list(g) for g in groups]
    if sorted(n for g in groups for n in g) != sorted(J.var_names):
        raise PreconditionError("groups must cover all variables exactly once")
    perm = [J.axis(n) for g in groups for n in g]
    arr = np.transpose(J.array(), perm)
    new_vars = []
    for g, nm in zip(groups, names):
        alphas = [J.alphabet(n).symbols for n in g]
        symbols = ["|".join(combo) for combo in itertools.product(*alphas)]
        new_vars.append((nm, Alphabet(tuple(symbols))))
    return JointDist(tuple(new_vars), arr.reshape(-1))


def extend_with_channel(J: JointDist, ch: Channel) -> JointDist:
    """Joint law over J's variables plus the channel outputs.

    The channel inputs must be a subset of J's variables; each output cell
    is the one product P(x) * W(u | x_in).  Rows keyed outside the inputs'
    range are ignored.
    """
    for n, a in ch.in_vars:
        if J.alphabet(n).symbols != a.symbols:
            raise PreconditionError(f"channel input {n!r} has mismatched alphabet")
    for n, _ in ch.out_vars:
        if n in J.var_names:
            raise PreconditionError(f"channel output name {n!r} already present")
    in_axes = [J.axis(n) for n, _ in ch.in_vars]
    in_shape = tuple(J.shape[i] for i in in_axes)
    W = np.zeros(in_shape + ch.out_shape)  # a row sums to 1, so a present row is nonzero
    for key, row in ch.rows.items():
        if len(key) == len(in_shape) and all(0 <= k < n for k, n in zip(key, in_shape)):
            W[key] = row.reshape(ch.out_shape)
    axes = list(range(len(J.vars)))  # J's axes, then the outputs'
    outs = list(range(len(axes), len(axes) + len(ch.out_vars)))
    mass = np.einsum(J.array(), axes, in_axes)  # the inputs' marginal
    missing = np.argwhere((mass > 0) & ~W.any(axis=tuple(range(len(in_axes), W.ndim))))
    if len(missing):
        raise PreconditionError(
            f"channel has no row for positive-probability input {tuple(missing[0].tolist())}"
        )
    big = np.einsum(J.array(), axes, W, in_axes + outs, axes + outs)
    return JointDist(J.vars + ch.out_vars, big.reshape(-1), eve=J.eve)


def pushforward_function(
    J: JointDist, fn: Callable[[tuple[str, ...]], str] | Sequence[str]
) -> JointDist:
    """Law G of a deterministic function of the full outcome tuple.

    ``fn`` may be a callable on symbol tuples or a row-major sequence of
    output labels.  The output alphabet is the sorted set of labels that
    appear.
    """
    labels = _function_table(J, fn)
    uniq = sorted(set(labels))
    idx = {s: i for i, s in enumerate(uniq)}
    out = np.bincount([idx[lab] for lab in labels], weights=J.pmf)  # sums in cell order
    return JointDist((("G", Alphabet(tuple(uniq))),), out)


def _function_table(J: JointDist, fn) -> list[str]:
    if callable(fn):
        return [str(fn(sym)) for sym in J.outcomes()]
    table = [str(v) for v in fn]
    if len(table) != J.n_cells:
        raise PreconditionError("function table length must match the outcome count")
    return table


# ---------------------------------------------------------------------------
# distances and divergences


def _check_same_shape(P, Q) -> None:
    if P.vars != Q.vars:
        raise ShapeMismatchError("distributions do not share a variable structure")


def tv_distance(P, Q) -> float:
    """Variational distance (1/2) sum |P - Q|."""
    _check_same_shape(P, Q)
    return float(0.5 * np.abs(P.pmf - Q.pmf).sum())


def log2_pmf(pmf: np.ndarray) -> np.ndarray:
    """Elementwise log2 with zeros mapped to the LOG2_ZERO sentinel.

    One masked pass: cells that are not positive keep the sentinel.  The
    input is read contiguously (a no-op for a pmf), because numpy's log2 on
    a reversed or widely strided view may take another code path that
    rounds differently; so each positive cell gets the bits of ``np.log2``
    on the compacted positive cells.
    """
    pmf = np.ascontiguousarray(pmf)
    return np.log2(pmf, out=np.full(pmf.shape, LOG2_ZERO), where=pmf > 0)


def _ordered_bits(bits: np.ndarray) -> np.ndarray:
    """Float64 bit patterns, viewed as int64, to int64s in the floats' order,
    in place: negative floats get their magnitude bits flipped.  -0.0 must
    have been merged into 0.0 (``x + 0.0``)."""
    sign = bits >> 63
    bits ^= np.bitwise_and(sign, 0x7FFF_FFFF_FFFF_FFFF, out=sign)
    return bits


def stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, axis=-1, kind="stable")`` of float64 keys, from one
    in-place int64 sort.

    Each key becomes an int64 word in the same order (``_ordered_bits`` of
    ``key + 0.0``), whose low s = bit_length(n - 1) bits are replaced by
    the cell's index.  Sorting the words orders cells by key and, in each
    group of keys that share their high bits, by index; masking the high
    bits out leaves the order.  Only neighbours in one group can be out of
    key order, so the keys are read back at those pairs only, a block at a
    time, and each group holding an out-of-order pair is re-sorted by
    ``_resort_groups``.  Keys must not be NaN; ``key`` is not modified.
    Temporaries besides the words are bounded by the blocks and the largest
    group that is re-sorted.
    """
    n = key.shape[-1]
    low = (1 << max(n - 1, 0).bit_length()) - 1
    flat = np.add(key, 0.0).view(np.int64).reshape(-1)
    rows, step = flat.reshape(-1, max(n, 1)), max(1, _ORDER_BLOCK // max(n, 1))
    for r in range(0, len(rows), step):
        for c in range(0, n, _ORDER_BLOCK):
            part = _ordered_bits(rows[r:r + step, c:c + _ORDER_BLOCK])
            part &= ~low
            part |= np.arange(c, c + part.shape[1])
    flat.reshape(key.shape).sort(axis=-1)

    keys, redo = key.reshape(-1), []
    for a in range(0, flat.size - 1, _ORDER_BLOCK):
        part = flat[a:a + _ORDER_BLOCK + 1]
        shared = np.bitwise_xor(part[1:], part[:-1]).view(np.uint64) <= low
        shared[(n - 1 - a) % n::n] = False  # pairs across two rows
        if not shared.any():
            continue
        cells = np.zeros(part.size, dtype=bool)
        cells[:-1] = shared
        cells[1:] |= shared
        at = np.flatnonzero(cells) + a
        w = flat[at]
        r = a - a % n
        kv = keys[(r if a + part.size <= r + n else at // n * n) + (w & low)]
        # at[i] and at[i + 1] are one group's neighbours where link is set;
        # any other two cells are in key order, or in two rows
        link = shared[at[:-1] - a]
        drop = np.flatnonzero(link & (kv[1:] < kv[:-1]))
        if drop.size:  # one cell per group and row
            at, w = at[drop], w[drop] & ~low
            new = np.ones(drop.size, dtype=bool)
            new[1:] = (w[1:] != w[:-1]) | (at[1:] // n != at[:-1] // n)
            redo.append(at[new])
    if redo:
        _resort_groups(flat, keys, np.concatenate(redo), n, low)
    return np.bitwise_and(flat, low, out=flat).reshape(key.shape)


def _resort_groups(flat: np.ndarray, keys: np.ndarray, at: np.ndarray, n: int, low: int) -> None:
    """Re-sort, by (key, index), the group of sorted words around each cell
    in ``at``.

    ``flat`` holds ``stable_order``'s sorted words (rows of ``n``) and
    ``keys`` the keys they came from.  A group is the run of words in one
    row that share their high bits, so it is found by two searches in that
    row.  Groups are re-sorted a batch of about ``_ORDER_BLOCK`` cells at a
    time: each cell's (group number in the batch, ordered key bits under
    the group's high bits, index) packed into one int64, which holds rows
    of up to 2^25 cells (the cell cap is 10^7).
    """
    s = low.bit_length()
    rows, highs = at // n * n, flat[at] & ~low
    lo, hi = np.empty_like(at), np.empty_like(at)
    edges = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist(), at.size]
    for i, j in zip(edges, edges[1:]):  # the cells of one row
        row = flat[rows[i]:rows[i] + n]
        lo[i:j] = rows[i] + np.searchsorted(row, highs[i:j])
        hi[i:j] = rows[i] + np.searchsorted(row, highs[i:j] | low, side="right")
    first = np.ones(at.size, dtype=bool)  # a group met in two blocks is listed twice
    first[1:] = lo[1:] != lo[:-1]
    lo, sizes = lo[first], hi[first] - lo[first]
    batch = (np.cumsum(sizes) - sizes) // _ORDER_BLOCK
    for g in np.split(np.arange(lo.size), np.flatnonzero(np.diff(batch)) + 1):
        size = sizes[g]
        at = np.repeat(lo[g] - np.cumsum(size) + size, size)
        at += np.arange(at.size)
        w = flat[at]
        bits = at // n
        bits *= n
        bits += w & low
        bits = keys[bits]  # in place from here, so the batch holds four arrays
        bits = _ordered_bits(np.add(bits, 0.0, out=bits).view(np.int64))
        bits &= low
        bits <<= s
        bits |= np.repeat(np.arange(g.size) << 2 * s, size)
        index = w & low
        bits |= index
        bits.sort()
        w ^= index
        w |= bits & low
        flat[at] = w


def divergence(P: JointDist, Q: JointDist, kind: str = "kl", alpha: float | None = None) -> float:
    """KL or Renyi divergence in bits, with the 0*log(0/0)=0 convention.

    KL returns +inf when P's support is not contained in Q's.  The Renyi
    order must satisfy alpha > 0, alpha != 1.
    """
    _check_same_shape(P, Q)
    p, q = P.pmf, Q.pmf
    if kind == "kl":
        return _kl_rows(p, q[None, :])[0]
    if kind == "renyi":
        if alpha is None or alpha <= 0 or alpha == 1.0:
            raise PreconditionError("renyi divergence requires alpha > 0, alpha != 1")
        if alpha > 1 and np.any((p > 0) & (q == 0)):
            return math.inf
        mask = (p > 0) & (q > 0)
        if not np.any(mask):
            return math.inf
        terms = alpha * np.log2(p[mask]) + (1.0 - alpha) * np.log2(q[mask])
        top = terms.max()  # log2 of the sum of 2**terms, scaled by the largest
        return float(top + np.log2(np.exp2(terms - top).sum())) / (alpha - 1.0)
    raise PreconditionError(f"unknown divergence kind {kind!r}")


def _kl_rows(p: np.ndarray, q_rows: np.ndarray) -> list[float]:
    """KL divergence D(p || q) in bits for each row q of ``q_rows``.

    A row with q = 0 where p > 0 has an infinite term, so its sum is +inf.
    """
    mask = p > 0
    pm = p[mask]
    with np.errstate(divide="ignore"):
        terms = pm * np.log2(pm / q_rows[:, mask])
    return [float(t.sum()) for t in terms]


def entropy(J: JointDist, of=None) -> float:
    """Shannon entropy H(S) in bits; S defaults to all variables."""
    sub = J if of is None else marginal(J, of)
    p = sub.pmf
    mask = p > 0
    return float(-(p[mask] * np.log2(p[mask])).sum())


def mutual_information(J: JointDist, a, b, given=None) -> float:
    """I(A; B) or I(A; B | C) in bits; A and B must be disjoint."""
    a = _resolve_names(J, a)
    b = _resolve_names(J, b)
    if set(a) & set(b):
        raise PreconditionError("queried variable sets must be disjoint")
    if given is None:
        return entropy(J, a) + entropy(J, b) - entropy(J, a + b)
    c = _resolve_names(J, given)
    if set(c) & (set(a) | set(b)):
        raise PreconditionError("conditioning variables must be disjoint from A and B")
    return (
        entropy(J, a + c)
        + entropy(J, b + c)
        - entropy(J, a + b + c)
        - entropy(J, c)
    )


# ---------------------------------------------------------------------------
# laws as arrays: integer codes, sums in a fixed order
#
# A law over a finite set of keys is an array of masses in the order its
# keys first appear, each key an integer code.  Sums that a loop of ``+=``
# would form are kept in that order (``np.bincount``, ``np.add.accumulate``),
# so the floats are those of the loop.


def _distinct(raw: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``raw``, integers in [0, ``size``), in ascending
    order, and the index among them of each entry.  A range of at most 16
    values per entry (plus 2^20) is read through a lookup table, a wider one
    through a sort; both give the same arrays."""
    if size > 16 * len(raw) + (1 << 20):
        values, index = np.unique(raw, return_inverse=True)
        return values, index.reshape(-1)
    present = np.zeros(size, bool)
    present[raw] = True
    values = present.nonzero()[0]
    lookup = np.empty(size, np.int32)  # half the pages of an int64 table
    lookup[values] = np.arange(len(values))
    return values, lookup[raw].astype(np.intp)


def _first_seen(raw: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry of ``raw`` (as for ``_distinct``) as a code numbered in
    order of first appearance, and the entry where each code first appears."""
    n = len(raw)
    if size > 2 * n + 4096:
        values, raw = _distinct(raw, size)
        size = len(values)
    first = np.full(size, n)
    np.minimum.at(first, raw, np.arange(n))
    mark = np.zeros(n + 1, bool)
    mark[first] = True
    firsts = mark[:n].nonzero()[0]
    rank = np.empty(size, np.intp)
    rank[raw[firsts]] = np.arange(len(firsts))
    return rank[raw], firsts


def _sum(a: np.ndarray) -> float:
    """The sum of ``a`` added one term after another from 0.0, as a loop of
    ``+=`` would (``np.sum`` adds pairwise)."""
    return float(np.add.accumulate(a)[-1]) + 0.0 if len(a) else 0.0


def _tv(w: np.ndarray, row: np.ndarray, col: np.ndarray, ref: np.ndarray,
        inside=slice(None)) -> float:
    """TV distance between a law and a reference law, as arrays.

    The reference's masses are the 2-D ``ref``, keyed row-major; law entry
    e has mass ``w[e]`` on its key (``row[e]``, ``col[e]``) where
    ``inside[e]`` (default: every entry), else on a key of the law's alone.
    Sums |law - ref| over the law's keys in order, then the reference's
    masses on keys the law lacks, one term after another.  A result above
    the mean of the two masses by more than SUM_TOL is a fault
    (AssertionError); one above 1, from rounding or from input masses of 1
    within SUM_TOL, is returned as 1.0.
    """
    at = (row * ref.shape[1] + col)[inside]
    missed = np.ones(ref.size, bool)
    missed[at] = False
    ref, ref_w = ref.ravel(), np.zeros(len(w))
    ref_w[inside] = ref[at]
    dist = 0.5 * _sum(np.concatenate([np.abs(w - ref_w), ref[missed]]))
    if dist > 0.5 * (_sum(w) + _sum(ref)) + SUM_TOL:
        raise AssertionError(f"distance {dist!r} exceeds the mean of its masses")
    return min(dist, 1.0)


def _product_tv(a: np.ndarray, size_a: int, b: np.ndarray, size_b: int, w: np.ndarray) -> float:
    """``_tv`` of the law of (a, b) over runs with codes ``a`` (below
    ``size_a``), ``b`` (below ``size_b``) and weights ``w``, from the product
    of its marginals.  Law, marginals and product are keyed in order of
    first appearance, a outer; each mass is a sum in run order."""
    e, firsts = _first_seen(a * size_b + b, size_a * size_b)
    w = np.bincount(e, w)
    ra, _ = _first_seen(a[firsts], size_a)
    rb, _ = _first_seen(b[firsts], size_b)
    return _tv(w, ra, rb, np.multiply.outer(np.bincount(ra, w), np.bincount(rb, w)))


def _region_mass(w: np.ndarray, inside: np.ndarray) -> float:
    """Mass of a law (masses ``w`` in its order) on the keys marked
    ``inside``, clipped to 1 as in ``_tv``; a sum above the law's whole mass
    by more than SUM_TOL is a fault."""
    part, total = _sum(w[inside]), _sum(w)
    if part > total + SUM_TOL:
        raise AssertionError(f"region mass {part!r} exceeds the law's mass {total!r}")
    return min(part, 1.0)


def _ravel(index: Sequence[np.ndarray], shape: Sequence[int], pos: Sequence[int], n: int):
    """The joint code of the variables at ``pos`` in each of the ``n`` cells
    unravelled to ``index`` over ``shape``, and the number of codes."""
    dims = [shape[k] for k in pos]
    code = np.ravel_multi_index([index[k] for k in pos], dims) if pos else np.zeros(n, np.intp)
    return code, math.prod(dims)


# ---------------------------------------------------------------------------
# JSON interchange

# {"variables": [{"name": "X1", "symbols": ["0","1"]}, ...],
#  "pmf": [...row-major...], "eve": "Z"}   (eve optional)


def _json_pmf(values):
    """``values``, a pmf or channel row read from JSON; a list must hold only
    numbers, since numpy would read ``true`` as 1 and flatten a nested list."""
    if isinstance(values, list) and not all(type(v) in (int, float) for v in values):
        raise PreconditionError("pmf entries must be numbers")
    return values


def dist_from_json(obj: Mapping) -> JointDist:
    try:
        vars = tuple(
            (v["name"], Alphabet(tuple(v["symbols"]))) for v in obj["variables"]
        )
        pmf = obj["pmf"]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed distribution JSON: {exc}") from None
    return JointDist(vars, _json_pmf(pmf), eve=obj.get("eve"))


def dist_to_json(J: JointDist) -> dict:
    out = {
        "variables": [{"name": n, "symbols": list(a.symbols)} for n, a in J.vars],
        "pmf": [float(x) for x in J.pmf],
    }
    if J.eve is not None:
        out["eve"] = J.eve
    return out


def reject_json_constant(token: str):
    """``parse_constant`` for ``json.load``: NaN and +-Infinity are errors."""
    raise PreconditionError(f"non-finite number {token} in JSON input")


def read_json(path, what: str):
    """The JSON value in the file ``path``; NaN and +-Infinity are rejected.

    A file that is not UTF-8 or does not parse raises ``malformed {what}: ...``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject_json_constant)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"malformed {what}: {exc}") from None


#: the bytes of a flat array of JSON numbers: digits, signs, point,
#: exponent, comma and the four JSON whitespace bytes
_NUMBER_BYTES = b"0123456789+-.eE, \t\n\r"
#: a ``"pmf"`` key, its colon and the bracket that opens its array
_PMF_KEY = re.compile(rb'"pmf"[ \t\n\r]*:[ \t\n\r]*\[')
#: the string that stands in for the pmf array while the rest is parsed
_PMF_MARKER = "\x00skconverse pmf\x00"
_CHUNK_BYTES = 1 << 20


def _fast_dist_doc(raw: bytes) -> dict | None:
    """The JSON document ``raw`` with its top-level ``"pmf"`` array read as
    float64, or None if this route cannot vouch for the result.

    The array is parsed by orjson in comma-aligned chunks of about
    ``_CHUNK_BYTES``: a whole-file parse would hold orjson's copy of the
    document next to one Python float per cell.  The rest is parsed by
    ``json``, with the array replaced by a marker string.
    """
    key = _PMF_KEY.search(raw)
    end = raw.find(b"]", key.end()) if key else -1
    pmf = _pmf_array(raw, key.end(), end) if end >= 0 else None
    if pmf is None:
        return None
    rest = raw[:key.end() - 1] + json.dumps(_PMF_MARKER).encode() + raw[end + 1:]
    try:
        doc = json.loads(rest.decode(), parse_constant=reject_json_constant)
    except ValueError:  # JSONDecodeError, UnicodeDecodeError, PreconditionError
        return None
    # the marker must be the top-level "pmf" and nothing else: the array
    # found may be nested, or the file may spell the marker in escapes
    ours = isinstance(doc, dict) and doc.get("pmf") == _PMF_MARKER
    if not ours or _count_strings(doc, _PMF_MARKER) != 1:
        return None
    doc["pmf"] = pmf
    return doc


def _pmf_array(raw: bytes, start: int, end: int) -> np.ndarray | None:
    """The numbers in ``raw[start:end]``, the inside of a JSON array, as
    float64; None unless it holds only ``_NUMBER_BYTES``, orjson parses
    every chunk to at least one number, the last chunk ends at ``end`` (so
    no comma is left over), and each number is below 2^63 in magnitude.
    (``json`` reads a longer integer literal as an int, which
    ``dist_from_json`` rejects; orjson reads it as a float.)
    """
    chunks = []
    while start < end:
        stop = raw.find(b",", min(start + _CHUNK_BYTES, end), end)
        stop = end if stop < 0 else stop
        chunk = raw[start:stop]
        if chunk.translate(None, _NUMBER_BYTES):
            return None
        try:
            values = orjson.loads(b"[" + chunk + b"]")
        except orjson.JSONDecodeError:
            return None
        if not values:
            return None
        chunks.append(np.fromiter(values, np.float64, len(values)))
        start = stop + 1
    if start != end + 1:
        return None
    out = np.concatenate(chunks)
    if max(-out.min(), out.max()) >= 2.0 ** 63:
        return None
    return out


def _count_strings(doc, text: str) -> int:
    """How many keys and string values in the JSON value ``doc`` equal ``text``."""
    count, stack = 0, [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
        elif value == text:
            count += 1
    return count


def load_dist(path) -> JointDist:
    """The distribution in the JSON file ``path``, read once as bytes.

    A flat numeric top-level ``"pmf"`` array takes ``_fast_dist_doc``; any
    file that route cannot vouch for is read again by ``read_json``, so
    values and error messages are those of ``json``.
    """
    with open(path, "rb") as fh:
        doc = _fast_dist_doc(fh.read())
    return dist_from_json(read_json(path, f"JSON in {path}") if doc is None else doc)


def save_dist(J: JointDist, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dist_to_json(J), fh, sort_keys=True)
