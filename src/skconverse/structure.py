"""Structural statistics of bivariate distributions and set partitions.

mcf labels the connected components of the bipartite support graph: the
finest random variable computable with probability 1 from either argument
alone.  mss groups symbols whose conditional rows agree, i.e. the coarsest
function of the conditioning variable through which it influences the
target.  Partitions of the party set are enumerated via restricted growth
strings, which gives a canonical, allocation-light order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import PreconditionError
from .probcore import Alphabet, JointDist, marginal


@dataclass(frozen=True)
class Partition:
    """Partition of the party set {1..m} into disjoint nonempty blocks."""

    blocks: tuple[frozenset, ...]
    m: int

    def __post_init__(self) -> None:
        blocks = [frozenset(int(i) for i in b) for b in self.blocks]
        if any(not b for b in blocks):  # before the sort reads each block's min
            raise PreconditionError("partition blocks must be nonempty")
        blocks.sort(key=min)
        blocks = tuple(blocks)
        object.__setattr__(self, "blocks", blocks)
        members = sorted(i for b in blocks for i in b)
        if members != list(range(1, self.m + 1)):
            raise PreconditionError(
                f"blocks must partition {{1..{self.m}}}, got {members}"
            )

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "|".join(",".join(str(i) for i in sorted(b)) for b in self.blocks)

    @classmethod
    def parse(cls, text: str, m: int) -> "Partition":
        """Parse "1,2|3" style block lists."""
        try:
            blocks = [
                frozenset(int(tok) for tok in part.split(","))
                for part in text.split("|")
            ]
        except ValueError:
            raise PreconditionError(f"cannot parse partition {text!r}") from None
        return cls(tuple(blocks), m)


def _grow(a: np.ndarray, m: int) -> np.ndarray:
    """Every extension to length m of the restricted growth strings in the
    rows of ``a``, in lexicographic order.

    Entry i exceeds the maximum of the entries before it by at most one.
    Each level repeats every row once per value its next entry may take,
    so the children of a row follow each other in value order.
    """
    top = a.max(axis=1)
    while a.shape[1] < m:
        width = top + 2
        parent = np.repeat(np.arange(len(a)), width)
        value = np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
        a = np.column_stack([a[parent], value])
        top = np.maximum(top[parent], value)
    return a


def _check_party_count(m: int) -> None:
    if not 2 <= m <= 12:
        raise PreconditionError("party count must lie in [2, 12]")


def enum_partitions(m: int) -> list[Partition]:
    """All set partitions of {1..m} into at least two blocks.

    Canonical order (restricted-growth-string lexicographic); the count is
    Bell(m) - 1.
    """
    return [
        _partition_of(row, m)
        for masks in _partition_masks(m, 1 << 12)
        for row in masks.tolist()
    ]


def _partition_count(m: int) -> int:
    """Bell(m) - 1, the number of partitions ``enum_partitions(m)`` lists."""
    row = [1]  # a row of the Bell triangle: row m ends in Bell(m)
    for _ in range(m - 1):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[-1] - 1


def _partition_masks(m: int, rows: int) -> Iterator[np.ndarray]:
    """The partitions of {1..m} into at least two blocks, ``rows`` at a time.

    Partitions come in restricted-growth-string order.  Each chunk is an
    (r, m) int64 array, r <= rows.  Row entries are the bitmasks of the
    blocks (bit i-1 for party i) ordered by least member, as in
    ``Partition.blocks``, then zeros.
    """
    _check_party_count(m)

    def chunks():
        rest = np.empty((0, m), dtype=np.int64)
        for masks in [_small_lattice(m)] if m <= 6 else _lattice_slices(m):
            rest = np.concatenate([rest, masks])
            full = len(rest) - len(rest) % rows
            yield from (rest[i:i + rows] for i in range(0, full, rows))
            rest = rest[full:]
        if len(rest):
            yield rest

    return chunks()


@functools.cache
def _small_lattice(m: int) -> np.ndarray:
    """All of ``_lattice_slices(m)`` in one read-only array, kept for the
    many scans of few parties (at most 202 rows, for m <= 6)."""
    table = np.concatenate(list(_lattice_slices(m)))
    table.setflags(write=False)
    return table


def _lattice_slices(m: int) -> Iterator[np.ndarray]:
    """The rows of ``_partition_masks(m, ...)``, at most 2^12 at a time.

    The strings of length m - 3 (at most Bell(9) rows) have at most
    (m - 2)(m - 1)m extensions each, so a slice of ``step`` of them grows to
    at most 2^12 rows, whatever m.
    """
    k = max(1, m - 3)
    heads = _grow(np.zeros((1, 1), dtype=np.intp), k)
    step = max(1, (1 << 12) // math.prod(range(k + 1, m + 1)))
    for s in range(0, len(heads), step):
        grown = _grow(heads[s:s + step], m)[s == 0:]  # no one-block partition
        masks = np.zeros(grown.shape, dtype=np.int64)
        at = np.arange(len(grown))
        for i in range(m):
            masks[at, grown[:, i]] |= 1 << i
        yield masks


def _partition_labels(masks: np.ndarray, m: int) -> list[str]:
    """``str`` of the partition of each row of block bitmasks, as ``_partition_of``
    would print it, from one "1,3,5" string per distinct mask."""
    blocks = {
        k: ",".join(str(i + 1) for i in range(m) if k >> i & 1)
        for k in np.unique(masks).tolist()
    }
    return ["|".join([blocks[k] for k in row if k]) for row in masks.tolist()]


def _partition_of(masks: Sequence[int], m: int) -> Partition:
    """The partition of {1..m} whose nonzero block bitmasks are ``masks``."""
    return Partition(
        tuple(frozenset(i + 1 for i in range(m) if k >> i & 1) for k in masks if k), m
    )


@dataclass(frozen=True)
class Labeling:
    """Total label assignment for one variable's symbols.

    Labels are contiguous integers from 0.  Symbols outside the support
    all share one extra label, the last, so the assignment stays total.
    """

    var: str
    alphabet: Alphabet
    labels: tuple[int, ...]
    num_labels: int

    def label_of(self, symbol: str) -> int:
        return self.labels[self.alphabet.index(symbol)]

    def label_alphabet(self) -> Alphabet:
        return Alphabet(tuple(str(i) for i in range(self.num_labels)))

    def as_table(self) -> dict:
        return {s: int(l) for s, l in zip(self.alphabet.symbols, self.labels)}


def _renumber(sides) -> list[Labeling]:
    """One labeling per (var, alphabet, raw) side, labels shared across sides.

    ``raw`` holds a component key per symbol, or None for a symbol outside
    the support.  Keys are renumbered in order of first appearance, scanning
    the sides in order; unsupported symbols all take the next label.
    """
    remap: dict[int, int] = {}
    for _, _, raw in sides:
        for key in raw:
            if key is not None:
                remap.setdefault(key, len(remap))
    k = len(remap)
    total = k + 1 if any(None in raw for _, _, raw in sides) else k
    return [
        Labeling(var, alphabet, tuple(k if key is None else remap[key] for key in raw), total)
        for var, alphabet, raw in sides
    ]


def _components(n: int, edges) -> list[int]:
    """Union-find over 0..n-1: the root of each element after all ``edges``.

    Every root is the minimum index of its component, whatever the order
    of the edges.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        a, b = find(i), find(j)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def mcf(J: JointDist, v1: str, v2: str) -> tuple[Labeling, Labeling]:
    """Maximum common function of two variables.

    Components of the bipartite graph on the support of their joint
    marginal; the two labelings agree with probability 1 and are maximal
    among common functions.
    """
    if v1 == v2:
        raise PreconditionError("mcf needs two distinct variables")
    sub = marginal(J, [v1, v2])
    arr = np.transpose(sub.array(), (sub.axis(v1), sub.axis(v2)))
    n1, n2 = arr.shape
    root = _components(
        n1 + n2, ((int(i), int(n1 + j)) for i, j in zip(*np.nonzero(arr > 0)))
    )

    raw1 = [root[i] if s else None for i, s in enumerate(arr.sum(axis=1) > 0)]
    raw2 = [root[n1 + j] if s else None for j, s in enumerate(arr.sum(axis=0) > 0)]
    return tuple(_renumber([(v1, J.alphabet(v1), raw1), (v2, J.alphabet(v2), raw2)]))


def mss(J: JointDist, given: str, target: str, tol: float = 1e-9) -> Labeling:
    """Minimum sufficient statistic of ``given`` for ``target``.

    Groups given-symbols whose conditional target rows agree within
    L-infinity ``tol``, closed transitively; tol=0 demands exact equality.
    Float-derived inputs rarely tie exactly, hence the nonzero default.
    """
    if given == target:
        raise PreconditionError("mss needs two distinct variables")
    if tol < 0:
        raise PreconditionError("tolerance must be nonnegative")
    sub = marginal(J, [given, target])
    arr = np.transpose(sub.array(), (sub.axis(given), sub.axis(target)))
    masses = arr.sum(axis=1)
    n = arr.shape[0]
    rows = np.zeros_like(arr)
    pos = masses > 0
    rows[pos] = arr[pos] / masses[pos, None]

    sup = [i for i in range(n) if pos[i]]
    root = _components(n, (
        (sup[ai], sup[bi])
        for ai in range(len(sup))
        for bi in range(ai + 1, len(sup))
        if np.max(np.abs(rows[sup[ai]] - rows[sup[bi]])) <= tol
    ))
    raw = [root[i] if pos[i] else None for i in range(n)]
    return _renumber([(given, J.alphabet(given), raw)])[0]


def unused_name(J: JointDist, name: str) -> str:
    """``name``, primed until none of J's variables has it."""
    while name in J.var_names:
        name += "'"
    return name


def attach_label(J: JointDist, labeling: Labeling, name: str) -> JointDist:
    """Append the label of ``labeling.var`` as a new deterministic variable."""
    if name in J.var_names:
        raise PreconditionError(f"variable name {name!r} already present")
    axis = J.axis(labeling.var)
    arr = J.array()
    # the labels along the labelled axis: cell (..., x, ..., lab) is kept iff x has label lab
    shape = [1] * (arr.ndim + 1)
    shape[axis] = -1
    mine = np.asarray(labeling.labels).reshape(shape) == np.arange(labeling.num_labels)
    out = np.where(mine, arr[..., None], 0.0)
    new_vars = J.vars + ((name, labeling.label_alphabet()),)
    return JointDist(new_vars, out.reshape(-1), eve=J.eve)
