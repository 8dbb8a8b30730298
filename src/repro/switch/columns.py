"""Columnar (struct-of-arrays) packet representation for the data plane.

The scalar pipeline hands every packet around as a Python dict (one PHV
per packet).  For sketch-style switch analytics — hashing, Bloom tests,
register scatter-adds — the per-packet work is identical ALU arithmetic
over different bytes, which is exactly the shape that vectorizes.  The
columnar switch paths are ONE algorithm (match rows, group duplicates,
decrypt each group once, fold with multiplicities) written over the
kernels below, and every kernel has two forms — numpy and plain Python
— that return identical results.  This module provides the shared
substrate:

* :data:`HAVE_NUMPY` / :func:`numpy_enabled` — a single gate for the
  optional numpy dependency.  Setting the environment variable
  ``REPRO_NO_NUMPY=1`` (or calling :func:`force_numpy`) disables the
  vectorized kernels even when numpy is importable, which is how the
  CI fallback job and the differential suite prove the pure-Python
  forms are the semantic reference.
* :data:`VECTOR_MIN_ROWS` — the one batch-size cut-off: smaller batches
  take the Python forms even with numpy on, because array set-up costs
  more than the loops it replaces.
* :class:`PacketColumns` — a batch of packets as padded byte matrices
  plus parallel integer arrays (lengths, leading header fields), built
  once per batch by the parser/switch front end.
* :func:`group_rows` — duplicate-grouping over a byte-slice of every
  row (the "group duplicate cookie bytes before hitting the cipher"
  primitive): group keys in first-occurrence order and an inverse
  mapping, one dict scan whatever the batch is built from.
* :func:`match_rows` / :func:`group_counts` — the exact-match row mask
  and the per-group multiplicities the switch paths fold with.
* :class:`BatchView` — what a columnar switch entry point returns: the
  counts its streaming callers read, settled eagerly, and the
  per-packet results as a sequence rendered on first use.

Every kernel built on top of this module (vectorized CRC, batched AES,
register scatter ops) is *bit-identical* to its scalar counterpart;
``tests/differential`` proves it end to end.
"""

from __future__ import annotations

import os
from collections import abc
from itertools import chain
from typing import Any, Iterable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "HAVE_NUMPY",
    "numpy_enabled",
    "force_numpy",
    "get_numpy",
    "VECTOR_MIN_ROWS",
    "PacketColumns",
    "BatchView",
    "row_matrix",
    "group_rows",
    "match_rows",
    "group_counts",
]

HAVE_NUMPY = _np is not None

# Tri-state override: None = follow availability, True/False = forced.
# The environment sets the default that force_numpy(None) returns to.
_DEFAULT: Optional[bool] = (
    False
    if os.environ.get("REPRO_NO_NUMPY", "").strip() not in ("", "0")
    else None
)
_FORCED: Optional[bool] = _DEFAULT


# Batches with fewer rows run the Python kernel forms even when the
# gate is open: building the padded matrix and the field arrays costs
# tens of microseconds per call, which makes the
# 1-8 row calls a per-packet simulator issues 2-3x slower than the
# loops they replace (measured on 20-byte CIDs through LarkSwitch).
# From here up the two forms of the row kernels are within ~25% of
# each other, and a matrix-backed batch is what the CRC, partition and
# ring-push kernels need to win outright.
VECTOR_MIN_ROWS = 16


def numpy_enabled() -> bool:
    """True when the vectorized kernels should run."""
    if _FORCED is not None:
        return _FORCED and HAVE_NUMPY
    return HAVE_NUMPY


def force_numpy(enabled: Optional[bool]) -> None:
    """Override the numpy gate (``None`` restores the default:
    auto-detection, or off under ``REPRO_NO_NUMPY=1``).

    Used by the differential suite to run the very same workload with
    kernels on and off; production code never calls this.
    """
    global _FORCED
    _FORCED = _DEFAULT if enabled is None else enabled


def get_numpy():
    """The numpy module, or ``None`` when the gate is closed."""
    return _np if numpy_enabled() else None


class PacketColumns:
    """A batch of variable-length byte strings as struct-of-arrays.

    ``data`` is an ``(n, max_len)`` uint8 matrix, rows zero-padded past
    their length; ``lengths`` the per-row byte counts.  When numpy is
    gated off, or the batch has fewer than :data:`VECTOR_MIN_ROWS`
    rows, no matrix is built: ``lengths`` is a plain list and the
    consumers run their Python forms.
    """

    __slots__ = ("_raw", "data", "lengths", "n", "max_len", "vectorized")

    def __init__(self, rows: Sequence[bytes]):
        raw: List[bytes] = [bytes(r) for r in rows]
        self._raw: Optional[List[bytes]] = raw
        self.n = len(raw)
        lens = list(map(len, raw))
        self.max_len = max(lens, default=0)
        np = get_numpy() if self.n >= VECTOR_MIN_ROWS else None
        self.vectorized = np is not None
        if np is not None:
            lengths = np.asarray(lens, dtype=np.int64)
            if self.n and lens.count(self.max_len) == self.n:
                # Uniform row length (the common case — e.g. 20-byte
                # connection IDs): one buffer join + reshape instead
                # of a frombuffer call per row.
                data = np.frombuffer(
                    b"".join(raw), dtype=np.uint8
                ).reshape(self.n, self.max_len).copy()
            else:
                data = np.zeros((self.n, self.max_len), dtype=np.uint8)
                for i, row in enumerate(raw):
                    if row:
                        data[i, : len(row)] = np.frombuffer(
                            row, dtype=np.uint8
                        )
            self.data = data
            self.lengths = lengths
        else:
            self.data = None
            self.lengths = lens

    @classmethod
    def from_matrix(cls, data, lengths=None) -> "PacketColumns":
        """Wrap an existing ``(n, width)`` uint8 matrix directly.

        The batched packet-assembly path builds the DCID matrix without
        ever holding per-row ``bytes`` objects; ``raw`` materializes
        them lazily only if a scalar consumer asks.  Requires the numpy
        gate open (callers on the scalar path build from rows instead).
        """
        np = get_numpy()
        if np is None:
            raise RuntimeError(
                "PacketColumns.from_matrix needs the numpy gate open"
            )
        self = cls.__new__(cls)
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.ndim != 2:
            raise ValueError("expected an (n, width) matrix")
        self._raw = None
        self.n = int(data.shape[0])
        self.max_len = int(data.shape[1]) if self.n else 0
        self.data = data
        if lengths is None:
            self.lengths = np.full(self.n, self.max_len, dtype=np.int64)
        else:
            self.lengths = np.asarray(lengths, dtype=np.int64)
        self.vectorized = True
        return self

    @property
    def raw(self) -> List[bytes]:
        """Per-row ``bytes`` (materialized lazily for matrix-built
        batches; cached afterwards)."""
        if self._raw is None:
            flat = self.data.tobytes()
            m = self.max_len
            self._raw = [
                flat[i * m:i * m + int(self.lengths[i])]
                for i in range(self.n)
            ]
        return self._raw

    def __len__(self) -> int:
        return self.n

    def kernels(self):
        """numpy when this batch takes the vectorized kernel forms,
        ``None`` for the Python ones (gate closed, no matrix, or too
        few rows to repay the array set-up)."""
        if self.vectorized and self.n >= VECTOR_MIN_ROWS:
            return get_numpy()
        return None

    def __iter__(self):
        return iter(self.raw)

    # -- column extraction -------------------------------------------------

    def byte_column(self, index: int, default: int = -1):
        """Byte at ``index`` of every row (``default`` where too short).

        Returns an int64 array when vectorized, else a list.
        """
        np = self.kernels()
        if np is not None:
            out = np.full(self.n, default, dtype=np.int64)
            mask = self.lengths > index
            if index < self.max_len:
                out[mask] = self.data[mask, index]
            return out
        return [
            row[index] if len(row) > index else default for row in self.raw
        ]

    def be16_column(self, index: int, default: int = 0):
        """Big-endian 16-bit field at ``index`` (``default`` if short)."""
        np = self.kernels()
        if np is not None:
            out = np.full(self.n, default, dtype=np.int64)
            mask = self.lengths >= index + 2
            if index + 1 < self.max_len:
                out[mask] = (
                    self.data[mask, index].astype(np.int64) << 8
                ) | self.data[mask, index + 1]
            return out
        return [
            int.from_bytes(row[index:index + 2], "big")
            if len(row) >= index + 2 else default
            for row in self.raw
        ]


def row_matrix(np, rows: Sequence[Sequence[int]], width: int):
    """Equal-width integer rows (wire rows) as an ``(n, width)`` int64
    matrix.  One flat pass over the ints: about twice as fast as
    ``np.array(rows)`` on a list of tuples."""
    return np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=len(rows) * width
    ).reshape(len(rows), width)


class BatchView(abc.Sequence):
    """Outcome of one columnar switch call, as a sequence.

    A subclass settles the counts its streaming callers read before
    the call returns, keeps in ``_parts`` whatever columns its
    ``_render()`` needs, and *is* the sequence of the batch's
    per-packet results — exactly what the scalar entry point returns
    packet by packet — rendered on first use, then kept: a second read
    returns the same objects.  ``len``, int / negative / slice
    indexing, iteration, ``in`` / ``index``, ``==`` against a list or
    another batch and ``+`` with a list all work; truth is non-empty.
    """

    __slots__ = ("n", "_parts", "_results")

    def __init__(
        self, n: int, parts: Any = (), results: Optional[List[Any]] = None
    ):
        self.n = n
        self._parts = parts
        self._results = results

    def _render(self) -> List[Any]:
        raise NotImplementedError

    def results(self) -> List[Any]:
        """The per-packet view (rendered once)."""
        if self._results is None:
            self._results = self._render()
            self._parts = ()
        return self._results

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        return self.results()[index]

    def __iter__(self):
        return iter(self.results())

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, BatchView):
            other = other.results()
        return self.results() == other

    def __add__(self, other: Iterable[Any]) -> List[Any]:
        return self.results() + list(other)


def group_rows(
    rows: Sequence[bytes],
    start: int = 0,
    end: Optional[int] = None,
    indexes: Optional[Sequence[int]] = None,
) -> Tuple[List[bytes], List[int], List[int]]:
    """Group rows by the byte slice ``[start, end)`` (plus row length).

    Returns ``(keys, lengths, inverse)``: ``keys[g]`` is the slice
    bytes of group ``g``, ``lengths[g]`` the total length of its rows
    and ``inverse[j]`` the group of row ``indexes[j]`` (of row ``j``
    when ``indexes`` is ``None``).  Groups are numbered in
    first-occurrence order.  Two rows with different total lengths
    never share a group even if their slices match (a truncated cookie
    must not alias a full one in the decode memo).

    One dict scan.  A matrix batch whose rows all have one length cuts
    its keys out of a single ``tobytes`` of the column range — no
    per-row ``bytes`` is built; any other batch scans its raw rows.
    (numpy's ``unique`` over void rows, the form this replaced, was
    behind the scan at every size: 594 vs 202 ns/row at 1024 rows,
    1387 vs 312 at 32; table in DESIGN.md section 8.)
    """
    seen: dict = {}
    group_of = seen.setdefault
    columns = rows if isinstance(rows, PacketColumns) else None
    width = 0
    if (
        columns is not None and columns.vectorized and columns.n
        and (columns.lengths == columns.max_len).all()
    ):
        flat = columns.data[:, start:end].tobytes()
        width = len(flat) // columns.n
    if width:
        offsets = (
            range(0, len(flat), width) if indexes is None
            else [i * width for i in indexes]
        )
        # len(seen) is read before setdefault inserts: the next group
        # number for a new key, ignored for a known one.
        inverse = [group_of(flat[o:o + width], len(seen)) for o in offsets]
        return list(seen), [columns.max_len] * len(seen), inverse
    raw_rows = rows if columns is None else columns.raw
    if indexes is not None:
        raw_rows = [raw_rows[i] for i in indexes]
    inverse = [
        group_of((len(row), row[start:end]), len(seen))
        for row in map(bytes, raw_rows)
    ]
    return [key for _, key in seen], [size for size, _ in seen], inverse


def match_rows(fields: Sequence[Any], values: Sequence[int]) -> List[int]:
    """Indexes, ascending, of the rows whose header ``fields`` all
    equal ``values`` — an exact-match table key looked up for a whole
    batch at once.  ``fields`` are parallel columns as returned by
    :meth:`PacketColumns.byte_column` / ``be16_column`` (arrays or
    lists; the form follows theirs)."""
    first = fields[0]
    if isinstance(first, list):
        key = tuple(values)
        return [i for i, row in enumerate(zip(*fields)) if row == key]
    hit = first == values[0]
    for column, value in zip(fields[1:], values[1:]):
        hit &= column == value
    return _np.flatnonzero(hit).tolist()


def group_counts(inverse: List[int], groups: int) -> List[int]:
    """Rows per group for an ``inverse`` mapping from
    :func:`group_rows`."""
    counts = [0] * groups
    for group in inverse:
        counts[group] += 1
    return counts
