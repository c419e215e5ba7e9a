"""Code model: base graphs, edge-spreading schemes, and matrix assembly.

A base code is a small binary matrix (all ones by default) whose Tanner graph
gets *unwrapped* into a spatially coupled chain and then *lifted* into a
quasi-cyclic parity-check matrix:

  1. Edge spreading: every base edge (i, j) is assigned a component index
     ``P(i, j)`` drawn from the spreading pattern ``(a_0 < a_1 < ... < a_t)``
     with ``a_t = m`` (the coupling memory).  Component matrix ``H_k`` keeps
     exactly the ones with ``P(i, j) = k``, so ``H_0 + ... + H_m`` restores the
     base matrix.
  2. Coupling: one replica is the vertical stack ``[H_0; H_1; ...; H_m]``.
     ``L`` replicas are placed side by side, each shifted down by one block
     row, giving a ``gamma*(L+m) x kappa*L`` protograph.
  3. Lifting: every one of the protograph is replaced by the Z x Z circulant
     ``sigma^x`` where ``x = L(i, j)`` is the edge's lift shift and ``sigma``
     is the identity with rows cyclically shifted down by one:
     ``sigma^x[r][c] = 1  iff  r = c + x (mod Z)``.
     Zeros become Z x Z zero blocks.

Row/column index conventions used everywhere: protograph row ``(r + k)*gamma
+ i`` and column ``r*kappa + j`` hold the ``H_k`` entry of base edge (i, j)
in replica ``r``; lifted indices are block index times Z plus the intra-block
offset.
"""

from __future__ import annotations

import dataclasses
import operator
from array import array
from collections.abc import Sequence
from dataclasses import MISSING, Field, FrozenInstanceError, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Iterator, Optional

Edge = tuple[int, int]


def _quoted(names: Sequence[str]) -> str:
    """'a', 'a' and 'b', or 'a', 'b', and 'c', as Python's own call
    errors list argument names."""
    q = [repr(n) for n in names]
    if len(q) < 3:
        return " and ".join(q)
    return ", ".join(q[:-1]) + ", and " + q[-1]


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    """The field values, in field order, of a call that does not give
    every field by position; a missing, extra or duplicate argument is the
    TypeError Python raises for a function with the fields as parameters."""
    names, defaults = cls._record[:2]
    where = cls.__qualname__
    if len(args) > len(names):
        least = len(names) - len(defaults) + 1
        takes = (f"from {least} to " if defaults else "") + (
            f"{len(names) + 1} positional argument"
            f"{'s' if defaults or names else ''}")
        raise TypeError(f"{where}.__init__() takes {takes} but "
                        f"{len(args) + 1} were given")
    values, missing = list(args), []
    for name in names[len(args):]:
        value = kwargs.pop(name, defaults.get(name, MISSING))
        if value is MISSING:
            missing.append(name)
        values.append(value)
    for name in kwargs:
        if name in names:
            raise TypeError(f"{where}.__init__() got multiple values for "
                            f"argument {name!r}")
        raise TypeError(f"{where}.__init__() got an unexpected keyword "
                        f"argument {name!r}")
    if missing:
        raise TypeError(
            f"{where}.__init__() missing {len(missing)} required positional "
            f"argument{'s' if len(missing) > 1 else ''}: {_quoted(missing)}")
    return values


_set = object.__setattr__


def _init(self, *args, **kwargs) -> None:
    names, _, post_init, _ = self._record
    if kwargs or len(args) != len(names):
        args = _bind(type(self), args, kwargs)
    # One attribute at a time, not through __dict__: that would give the
    # instance a dict of its own, larger and slower to read than the
    # values Python stores inline.
    for name, value in zip(names, args):
        _set(self, name, value)
    if post_init is not None:
        post_init(self)


def _repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._record[0])
    return f"{type(self).__qualname__}({fields})"


def _values_getter(names: tuple[str, ...]):
    """A function giving a record's field values as one tuple, read in C
    when there are two fields or more."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    return lambda obj: tuple(getattr(obj, n) for n in names)


def _eq(self, other: object) -> bool:
    if other.__class__ is self.__class__:
        values = self._record[3]
        return values(self) == values(other)
    return NotImplemented


def _hash_fields(self) -> int:
    # Stored on first use: a frozen record is a memo key, hashed on every
    # lookup.
    try:
        return self._hash
    except AttributeError:
        _set(self, "_hash", hash(self._record[3](self)))
        return self._hash


def _getstate(self) -> dict:
    # A copy or a pickle leaves the stored hash behind: a copy may be given
    # other field values, and a str hashes differently in another process.
    return {k: v for k, v in vars(self).items() if k != "_hash"}


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen: bool = False):
    """Make ``cls`` a record of its annotated fields, as
    ``dataclasses.dataclass`` does, without generating code.

    ``dataclass`` compiles the methods it generates from source text at
    every import (from Python 3.13 on, one ``exec`` per class even when it
    generates nothing), so records fill the dataclass field table here and
    share one set of methods instead.

    Every annotated name is a field; ``field(default=...)`` and
    ``__post_init__`` work as in a dataclass (``default_factory`` is not
    supported), and so do ``dataclasses.fields``, ``asdict``, ``replace``
    and ``is_dataclass``.  The methods are shared by every record and read
    the class's field table: ``__init__`` takes the fields by position or
    keyword, ``__repr__`` is the dataclass text, ``__eq__`` compares the
    fields of two instances of one class.  A frozen record hashes its
    fields once (the hash is kept as ``_hash``, which copies and pickles
    leave out) and raises ``FrozenInstanceError`` on assignment and
    deletion (``cached_property`` still works: it writes the instance
    dict); other records are unhashable.  A method the class defines
    itself is kept.
    """
    def wrap(cls):
        # The field table, as dataclasses keeps it, and the shared
        # methods' view of it: (names, name -> default, __post_init__,
        # field values getter).
        table, defaults = {}, {}
        for name, kind in cls.__dict__.get("__annotations__", {}).items():
            value = cls.__dict__.get(name, MISSING)
            f = value if isinstance(value, Field) else field(default=value)
            # dataclasses.fields() lists a Field only when its kind is
            # the module's _FIELD marker.
            f.name, f.type, f._field_type = name, kind, dataclasses._FIELD
            if f.default is not MISSING:
                setattr(cls, name, f.default)
                defaults[name] = f.default
            table[name] = f
        cls.__dataclass_fields__ = table
        names = tuple(table)
        cls._record = (names, defaults, getattr(cls, "__post_init__", None),
                       _values_getter(names))
        methods = {"__init__": _init, "__repr__": _repr, "__eq__": _eq,
                   "__hash__": _hash_fields if frozen else None}
        if frozen:
            methods.update(__setattr__=_frozen_setattr,
                           __delattr__=_frozen_delattr,
                           __getstate__=_getstate)
        for name, method in methods.items():
            if name not in cls.__dict__:
                setattr(cls, name, method)
        return cls
    return wrap if cls is None else wrap(cls)


# Typecode of every index buffer: a signed 32-bit C int, 4 bytes per
# index.  No index reaches 2**31 in a matrix that fits in memory, and an
# array raises OverflowError on a value that does not fit, so an index is
# never wrapped.
INDEX_TYPE = "i"


class IndexLists(Sequence):
    """Read-only sequence of sorted index tuples over two flat buffers.

    Entry k is ``tuple(idx[ptr[k]:ptr[k + 1]])`` (compressed sparse
    storage): ``ptr`` has one more element than there are lists.  Equal to
    the tuple of its entries and to any view with equal buffers.
    """

    __slots__ = ("ptr", "idx")

    def __init__(self, ptr: array, idx: array):
        self.ptr = ptr
        self.idx = idx

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, k: int) -> tuple[int, ...]:
        k = range(len(self))[k]  # negative k counts from the end
        return tuple(self.idx[self.ptr[k]:self.ptr[k + 1]])

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        ptr, idx = self.ptr, self.idx
        for k in range(len(ptr) - 1):
            yield tuple(idx[ptr[k]:ptr[k + 1]])

    def lengths(self) -> array:
        """The length of every list, in order, as an index buffer."""
        return array(INDEX_TYPE,
                     map(operator.sub, islice(self.ptr, 1, None), self.ptr))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IndexLists):
            return self.ptr == other.ptr and self.idx == other.idx
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"IndexLists({tuple(self)!r})"


def _zeros(n: int) -> array:
    """n zero indices, allocated once (no list or bytes copy)."""
    return array(INDEX_TYPE, (0,)) * n


def check_column(j: int, rows: Sequence[int], nrows: int) -> None:
    """Raise unless column j's row indices lie in [0, nrows) and strictly
    increase."""
    if rows and (min(rows) < 0 or max(rows) >= nrows):
        raise ValueError(f"row index out of range in column {j}")
    if any(map(operator.ge, rows, islice(rows, 1, None))):
        raise ValueError(f"column {j} not sorted/duplicate-free")


class SparseBinaryMatrix:
    """Binary matrix stored as its column lists in two flat index buffers.

    alist export and girth BFS both want adjacency, not algebra, so this is
    all the structure we need.  ``col_rows`` and ``row_cols`` are read-only
    ``IndexLists`` views; the row buffers are the transpose, built on first
    use.  A matrix built by ``assemble_qc`` also knows its circulant size
    (``circulant_size``), which ``graphs.girth`` uses; equality, hashing and
    alist text ignore it.
    """

    __slots__ = ("nrows", "ncols", "col_rows", "_row_cols", "_circulant")

    def __init__(self, nrows: int, ncols: int,
                 col_rows: Sequence[Sequence[int]]):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        if len(col_rows) != ncols:
            raise ValueError("col_rows length does not match ncols")
        ptr, idx = array(INDEX_TYPE, (0,)), array(INDEX_TYPE)
        for j, rows in enumerate(col_rows):
            rows = tuple(rows)
            check_column(j, rows, nrows)
            idx.extend(rows)
            ptr.append(len(idx))
        self._init(nrows, ncols, ptr, idx)

    def _init(self, nrows: int, ncols: int, ptr: array, idx: array,
              circulant: Optional[int] = None) -> None:
        self.nrows = nrows
        self.ncols = ncols
        self.col_rows = IndexLists(ptr, idx)
        self._row_cols: Optional[IndexLists] = None
        self._circulant = circulant

    @classmethod
    def _from_buffers(cls, nrows: int, ncols: int, ptr: array, idx: array,
                      circulant: Optional[int] = None
                      ) -> "SparseBinaryMatrix":
        """Wrap column buffers the caller has already validated."""
        h = cls.__new__(cls)
        h._init(nrows, ncols, ptr, idx, circulant)
        return h

    @property
    def row_cols(self) -> IndexLists:
        if self._row_cols is None:
            # Counting transpose into the two result buffers only: count
            # each row's entries, turn the counts into row ends, then fill
            # the columns last to first, so each row's end walks down to
            # its start and its columns come out ascending.
            col_ptr, col_idx = self.col_rows.ptr, self.col_rows.idx
            ptr, idx = _zeros(self.nrows + 1), _zeros(len(col_idx))
            for r in col_idx:
                ptr[r] += 1
            total = 0
            for r in range(self.nrows):
                total += ptr[r]
                ptr[r] = total
            ptr[self.nrows] = total
            for j in range(self.ncols - 1, -1, -1):
                for r in col_idx[col_ptr[j]:col_ptr[j + 1]]:
                    end = ptr[r] - 1
                    ptr[r] = end
                    idx[end] = j
            self._row_cols = IndexLists(ptr, idx)
        return self._row_cols

    @property
    def circulant_size(self) -> Optional[int]:
        """Z when ``assemble_qc`` built this matrix from Z x Z circulants,
        else None."""
        return self._circulant

    @property
    def nnz(self) -> int:
        return len(self.col_rows.idx)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseBinaryMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.col_rows == other.col_rows)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.col_rows.ptr.tobytes(),
                     self.col_rows.idx.tobytes()))

    def __repr__(self) -> str:
        return (f"SparseBinaryMatrix({self.nrows}x{self.ncols}, "
                f"nnz={self.nnz})")


@record(frozen=True)
class BaseCode:
    """A gamma x kappa binary base matrix; all ones unless a mask is given."""

    gamma: int
    kappa: int
    mask: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.gamma < 1 or self.kappa < 1:
            raise ValueError("base dimensions must be at least 1x1")
        if not self.mask:
            object.__setattr__(
                self, "mask",
                tuple(tuple(1 for _ in range(self.kappa))
                      for _ in range(self.gamma)))
        mask = tuple(tuple(map(operator.index, row)) for row in self.mask)
        if len(mask) != self.gamma or any(len(r) != self.kappa for r in mask):
            raise ValueError("mask shape does not match gamma x kappa")
        if any(v not in (0, 1) for row in mask for v in row):
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "mask", mask)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Masked edges (i, j) in row-major order, built once."""
        return tuple((i, j) for i in range(self.gamma)
                     for j in range(self.kappa) if self.mask[i][j])

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.mask[i][j])


def _as_fraction(x: object) -> Fraction:
    if isinstance(x, float):
        raise TypeError("probabilities must be exact (int, str or Fraction), "
                        "not float")
    return Fraction(x)  # type: ignore[arg-type]


def frac_text(p: Optional[Fraction]) -> Optional[str]:
    """The "num/den" text of an exact rational, as every document writes
    it (``_as_fraction`` reads it back); None for None or for a numerator
    or denominator past 14000 bits, below Python's 4300-digit text limit."""
    if p is None or max(abs(p.numerator), p.denominator).bit_length() > 14000:
        return None
    return f"{p.numerator}/{p.denominator}"


@record(frozen=True)
class CouplingScheme:
    """Spreading pattern + probabilities, chain length and lift degree.

    ``pattern`` lists the allowed component indices, strictly increasing with
    ``pattern[-1] = memory``; ``probs`` are exact positive rationals summing
    to one.  ``coupling_length`` is the replica count L (default: memory +
    1), ``lifting_degree`` the circulant size Z.
    """

    pattern: tuple[int, ...]
    probs: tuple[Fraction, ...]
    coupling_length: Optional[int] = None
    lifting_degree: int = 1

    def __post_init__(self) -> None:
        pattern = tuple(map(operator.index, self.pattern))
        probs = tuple(_as_fraction(p) for p in self.probs)
        if not pattern:
            raise ValueError("empty spreading pattern")
        if pattern[0] < 0:
            raise ValueError("pattern values must be non-negative")
        if any(pattern[k] >= pattern[k + 1] for k in range(len(pattern) - 1)):
            raise ValueError("pattern must be strictly increasing")
        if len(probs) != len(pattern):
            raise ValueError("probs length must match pattern length")
        if any(p <= 0 for p in probs):
            raise ValueError("probabilities must be strictly positive")
        if sum(probs) != 1:
            raise ValueError("probabilities must sum to exactly 1")
        if self.lifting_degree < 1:
            raise ValueError("lifting degree must be at least 1")
        if self.coupling_length is None:
            object.__setattr__(self, "coupling_length", pattern[-1] + 1)
        if self.coupling_length < pattern[-1] + 1:
            raise ValueError("coupling length must be at least memory + 1")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "probs", probs)

    @property
    def memory(self) -> int:
        return self.pattern[-1]

    @classmethod
    def uniform(cls, memory: int, coupling_length: Optional[int] = None,
                lifting_degree: int = 1) -> "CouplingScheme":
        """Full pattern (0, 1, ..., m) with uniform probabilities."""
        if memory < 0:
            raise ValueError("memory must be non-negative")
        n = memory + 1
        return cls(tuple(range(n)), tuple(Fraction(1, n) for _ in range(n)),
                   coupling_length, lifting_degree)


@record(frozen=True)
class Assignment:
    """Per-edge integer values for one stage ("partition" or "lift").

    Stored as a gamma x kappa grid with None on non-edges; immutable.
    """

    stage: str
    values: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self) -> None:
        if self.stage not in ("partition", "lift"):
            raise ValueError(f"unknown stage {self.stage!r}")
        vals = tuple(tuple(v if v is None else operator.index(v) for v in row)
                     for row in self.values)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dict(cls, stage: str, mapping: dict[Edge, int],
                  gamma: int, kappa: int) -> "Assignment":
        grid = [[None] * kappa for _ in range(gamma)]
        for (i, j), v in mapping.items():
            grid[i][j] = v
        return cls(stage, tuple(tuple(row) for row in grid))

    def __getitem__(self, edge: Edge) -> int:
        i, j = edge
        v = self.values[i][j]
        if v is None:
            raise KeyError(f"no value on edge ({i},{j})")
        return v

    def get(self, edge: Edge) -> Optional[int]:
        i, j = edge
        return self.values[i][j]

    def covers(self, base: BaseCode) -> bool:
        if (len(self.values) != base.gamma
                or any(len(r) != base.kappa for r in self.values)):
            return False
        return all(self.values[i][j] is not None for i, j in base.edges)

    def items(self) -> Iterator[tuple[Edge, int]]:
        for i, row in enumerate(self.values):
            for j, v in enumerate(row):
                if v is not None:
                    yield (i, j), v


@record(frozen=True)
class CodeInstance:
    """A fully determined construction: base, scheme, both assignments."""

    base: BaseCode
    scheme: CouplingScheme
    partition: Assignment
    lift: Assignment
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.partition.stage != "partition" or self.lift.stage != "lift":
            raise ValueError("assignments passed in the wrong order")
        z = self.scheme.lifting_degree
        _check_grid(self.base, self.partition, self.scheme.pattern,
                    "not in pattern")
        _check_grid(self.base, self.lift, range(z), f"outside [0,{z})")


def _check_grid(base: BaseCode, a: Assignment, allowed,
                outside: str) -> None:
    """A value on every base edge, none on a masked-out position, and each
    in ``allowed``."""
    if not a.covers(base):
        raise ValueError(f"{a.stage} assignment does not cover the base mask")
    for (i, j), v in a.items():
        if not base.mask[i][j]:
            raise ValueError(f"{a.stage} value {v} on masked-out ({i},{j})")
        if v not in allowed:
            raise ValueError(f"{a.stage} value {v} on edge ({i},{j}) "
                             f"{outside}")


def assemble_qc(instance: CodeInstance) -> SparseBinaryMatrix:
    """Build the full lifted parity-check matrix of an instance.

    Every protograph one of base edge (i, j) becomes sigma^{L(i,j)}:
    lifted row R*Z + ((c + x) mod Z), column C*Z + c for c in [0, Z).
    The column buffers are written directly: the block rows of one
    protograph column are distinct, so once its (block row R*Z, shift x)
    pairs are sorted, the k-th of them gives the k-th row of each of its Z
    lifted columns, one strided slice per protograph one.
    """
    base, scheme = instance.base, instance.scheme
    m = scheme.memory
    length = scheme.coupling_length
    z = scheme.lifting_degree
    nrows = base.gamma * (length + m) * z
    ncols = base.kappa * length * z
    ptr = array(INDEX_TYPE, (0,))
    idx = _zeros(length * z * len(base.edges))
    for r in range(length):
        for j in range(base.kappa):
            blocks = sorted(
                (((r + instance.partition.values[i][j]) * base.gamma + i) * z,
                 instance.lift.values[i][j])
                for i in range(base.gamma) if base.mask[i][j])
            start, d = ptr[-1], len(blocks)
            for k, (big_r, x) in enumerate(blocks):
                idx[start + k:start + d * z:d] = array(INDEX_TYPE, chain(
                    range(big_r + x, big_r + z), range(big_r, big_r + x)))
            ptr.extend(range(start + d, start + d * z + 1, d) if d
                       else (start,) * z)
    return SparseBinaryMatrix._from_buffers(nrows, ncols, ptr, idx, z)
