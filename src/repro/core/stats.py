"""On-switch statistics for semantic-cookie features.

The prototype implements (paper section 4.1 "Statistics Calculation"):

* for **class** features: counting by matched value, optionally grouped
  by another class feature (e.g. per-campaign demographic counts);
* for **number** features: sum, min, max, and average (sum + count).

Statistics live in register arrays allocated from a switch pipeline's
register file, so SRAM budgeting applies; snapshots are plain dicts
that aggregation packets carry and the AggSwitch merges.

The register algebra is declared once, in :data:`REGISTER_LANES`;
every fold, merge, reset and render below reads it, and
``tests/properties/test_register_algebra.py`` generates its laws.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

from repro.core.schema import CookieSchema, FeatureType
from repro.switch.columns import VECTOR_MIN_ROWS, get_numpy, row_matrix
from repro.switch.registers import RegisterFile

__all__ = [
    "Lane",
    "REGISTER_LANES",
    "REGISTER_WIDTH",
    "StatKind",
    "StatSpec",
    "SwitchStatistics",
    "array_lanes",
    "array_shapes",
    "counts_match",
    "merge_snapshots",
]

REGISTER_WIDTH = 48  # every statistics register; counts and sums wrap here
_MASK = (1 << REGISTER_WIDTH) - 1


def _scatter(np, ufunc, size: int, identity: int, index, values) -> List[int]:
    """Dense per-cell vector of ``values`` reduced at ``index`` by
    ``ufunc`` (``identity`` elsewhere), for the register bulk ops."""
    cells = np.full(size, identity, dtype=np.int64)
    ufunc.at(cells, index, values)
    return cells.tolist()


class StatKind(enum.Enum):
    COUNT_BY_CLASS = "count_by_class"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


class Lane(NamedTuple):
    """One register array of a statistic and the algebra its cells
    fold under: ``combine`` is a commutative monoid on the cells of a
    ``REGISTER_WIDTH``-bit register with unit ``identity``, ``ufunc``
    the numpy ufunc that computes it over many contributions, ``rmw``
    and ``bulk`` the :class:`~repro.switch.registers.RegisterArray`
    ops that apply it to one cell and cell-wise to a vector."""

    identity: int  # idle cell: reset writes it, a merge keeps it
    combine: Callable[[int, int], int]
    ufunc: str
    scales: bool  # a row of multiplicity m contributes m times
    rmw: str
    bulk: str
    suffix: str = ""  # snapshot array name = spec name + suffix
    tally: bool = False  # a row contributes 1 (an occurrence)


def _add_wrapped(a: int, b: int) -> int:
    return (a + b) & _MASK


_SUM = Lane(0, _add_wrapped, "add", True, "add", "add_vector")
# MIN's identity is the all-ones cell, at or above every cell value.
_MIN = Lane(_MASK, min, "minimum", False, "update_min", "min_vector")
_MAX = Lane(0, max, "maximum", False, "update_max", "max_vector")

# Each kind's lanes.  AVG is two SUM lanes, its sum and its count.
REGISTER_LANES: Dict[StatKind, Tuple[Lane, ...]] = {
    StatKind.COUNT_BY_CLASS: (_SUM._replace(tally=True),),
    StatKind.SUM: (_SUM,),
    StatKind.MIN: (_MIN,),
    StatKind.MAX: (_MAX,),
    StatKind.AVG: (
        _SUM._replace(suffix=".sum"),
        _SUM._replace(suffix=".count", tally=True),
    ),
}


@dataclass(frozen=True)
class StatSpec:
    """One requested statistic over a feature.

    ``group_by`` names a class feature whose categories partition the
    statistic (the ad-campaign workload groups by campaign).
    """

    name: str
    kind: StatKind
    feature: str
    group_by: Optional[str] = None


def array_lanes(specs: Iterable[StatSpec]) -> Dict[str, Lane]:
    """Snapshot array name -> lane, for every array ``specs``
    allocate (in allocation order)."""
    return {
        spec.name + lane.suffix: lane
        for spec in specs
        for lane in REGISTER_LANES[spec.kind]
    }


def array_shapes(
    schema: CookieSchema, spec: StatSpec
) -> List[Tuple[str, int]]:
    """``(snapshot array name, cell count)`` of the register arrays
    one spec allocates: a cell per group, times a cell per class for
    a class count."""
    cells = (
        schema.feature(spec.group_by).cardinality if spec.group_by else 1
    )
    if spec.kind is StatKind.COUNT_BY_CLASS:
        cells *= schema.feature(spec.feature).cardinality
    return [
        (spec.name + lane.suffix, cells) for lane in REGISTER_LANES[spec.kind]
    ]


class SwitchStatistics:
    """Register-backed statistics for one application on one switch."""

    def __init__(
        self,
        schema: CookieSchema,
        specs: List[StatSpec],
        registers: RegisterFile,
        prefix: str = "stats",
    ):
        self.schema = schema
        self.specs = list(specs)
        self.lanes = array_lanes(self.specs)
        self._arrays: Dict[str, Any] = {}
        self.updates = 0
        for spec in self.specs:
            self._validate_spec(spec)
            for name, size in array_shapes(schema, spec):
                array = registers.allocate(
                    "%s.%s" % (prefix, name), size, REGISTER_WIDTH
                )
                array.fill(self.lanes[name].identity)
                self._arrays[name] = array
        # Per spec, resolved once (schema and specs are fixed after
        # construction), so no hot path redoes schema lookups: its
        # report keys (report_from_snapshot runs per merged packet on
        # the AggSwitch), and the plan update and fold_rows run by —
        # (feature column, group column or -1, class cardinality or 0,
        # min_value, lane ops, feature, group feature or None), the
        # ops one (tally, scales, bound one-cell op, array, lane) per
        # lane.  A class count indexes its cells by class within the
        # group, every other kind by group alone.
        self._report_keys: List[Tuple[StatSpec, List[Any]]] = []
        self._fold_plan: List[Tuple[Any, ...]] = []
        names = schema.feature_names()
        for spec in self.specs:
            feature = schema.feature(spec.feature)
            group = (
                schema.feature(spec.group_by)
                if spec.group_by is not None else None
            )
            groups = [None] if group is None else list(group.classes)
            card = 0
            if spec.kind is StatKind.COUNT_BY_CLASS:
                card = feature.cardinality
                keys = [
                    cls if g is None else (g, cls)
                    for g in groups
                    for cls in feature.classes
                ]
            else:
                keys = [g if g is not None else "all" for g in groups]
            self._report_keys.append((spec, keys))
            ops = []
            for lane in REGISTER_LANES[spec.kind]:
                array = self._arrays[spec.name + lane.suffix]
                ops.append((
                    lane.tally, lane.scales, getattr(array, lane.rmw),
                    array, lane,
                ))
            self._fold_plan.append((
                names.index(spec.feature),
                -1 if group is None else names.index(group.name),
                card, feature.min_value, tuple(ops), feature, group,
            ))
        # The numpy form needs every wire integer inside int64.
        self._rows_fit_int64 = all(
            feature.bits < 64 for feature in schema.features
        )

    def _validate_spec(self, spec: StatSpec) -> None:
        feature = self.schema.feature(spec.feature)
        if spec.kind is StatKind.COUNT_BY_CLASS:
            if feature.ftype != FeatureType.CLASS:
                raise ValueError(
                    "%s: count_by_class needs a class feature" % spec.name
                )
        else:
            if feature.ftype != FeatureType.NUMBER:
                raise ValueError(
                    "%s: %s needs a number feature" % (spec.name, spec.kind.value)
                )
        if spec.group_by is not None:
            group = self.schema.feature(spec.group_by)
            if group.ftype != FeatureType.CLASS:
                raise ValueError(
                    "%s: group_by needs a class feature" % spec.name
                )

    # -- update path (per decoded cookie) ------------------------------------

    def update(self, values: Dict[str, Any]) -> None:
        """Fold one decoded cookie's values into the registers."""
        self.updates += 1
        for _, _, card, _, ops, feature, group in self._fold_plan:
            if feature.name not in values:
                continue
            if group is None:
                index = 0
            elif group.name not in values:
                continue
            else:
                index = group.encode_value(values[group.name])
            if card:
                index = index * card + feature.encode_value(
                    values[feature.name]
                )
                raw = 1
            else:
                raw = int(values[feature.name])
            for tally, _, rmw, _, _ in ops:
                rmw(index, 1 if tally else raw)

    def fold_rows(self, rows, counts=None) -> None:
        """Columnar fold: ``rows[i]`` is the wire row of one decoded
        cookie (one int per schema feature in schema order, ``-1``
        where the feature is absent — see
        :meth:`TransportCookieCodec.rows_from_blocks`) and
        ``counts[i] >= 1`` its multiplicity (``None``: one each).
        ``rows`` is a list of tuples or the same thing as an ``(n, F)``
        int64 matrix (the AggSwitch parses its payloads to one).

        Bit-identical to :meth:`update` called ``counts[i]`` times on
        row ``i``'s decoded values, in any order: each lane's combine
        is a commutative monoid (:data:`REGISTER_LANES`), so a scaling
        lane takes ``counts[i]`` times the row's contribution at once
        and an idempotent one takes it once.  The wire integers index
        the registers directly (``group * cardinality + class``), as
        on the switch ALU.  From ``VECTOR_MIN_ROWS`` rows up, with
        numpy on, each lane is one column compare plus one scatter by
        its ufunc; below, the same integer arithmetic runs row by row.
        """
        n = len(rows)
        if counts is not None and len(counts) != n:
            raise ValueError(
                "fold_rows got %d rows but %d counts" % (n, len(counts))
            )
        width = len(self.schema.features)
        matrix = None if isinstance(rows, list) else rows
        if matrix is not None and (
            matrix.shape[1:] != (width,) or matrix.dtype.name != "int64"
        ):
            raise ValueError(
                "fold_rows needs an (n, %d) int64 matrix, got %s %s"
                % (width, matrix.shape, matrix.dtype)
            )
        self.updates += n if counts is None else sum(counts)
        np = (
            get_numpy()
            if n >= VECTOR_MIN_ROWS and self._rows_fit_int64
            else None
        )
        if np is None:
            if matrix is not None:
                rows = matrix.tolist()
            plan = self._fold_plan
            for row, times in zip(
                rows, repeat(1) if counts is None else counts
            ):
                for column, by, card, low, ops, _, _ in plan:
                    wire = row[column]
                    group = row[by] if by >= 0 else 0
                    if wire < 0 or group < 0:
                        continue
                    for tally, scales, rmw, _, _ in ops:
                        if tally:
                            rmw(group * card + wire if card else group, times)
                        elif scales:
                            rmw(group, (wire + low) * times)
                        else:
                            rmw(group, wire + low)
            return
        if matrix is None:
            matrix = row_matrix(np, rows, width)
        weights = (
            np.ones(n, dtype=np.int64) if counts is None
            else np.array(counts, dtype=np.int64)
        )
        ungrouped = np.zeros(n, dtype=np.int64)
        for column, by, card, low, ops, _, _ in self._fold_plan:
            wire = matrix[:, column]
            index = matrix[:, by] if by >= 0 else ungrouped
            present = (wire >= 0) & (index >= 0)
            wire, index = wire[present], index[present]
            times = weights[present]
            if card:
                index = index * card + wire
            for tally, scales, _, array, lane in ops:
                values = times
                if not tally:
                    # Masked like the scalar RMWs mask each value; int64
                    # wraps modulo 2**64, a multiple of the register
                    # width.
                    values = (wire + (low & _MASK)) & _MASK
                    if scales:
                        values = values * times
                getattr(array, lane.bulk)(_scatter(
                    np, getattr(np, lane.ufunc), array.size, lane.identity,
                    index, values,
                ))

    # -- read-out ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, List[int]]:
        """Raw register contents per statistic (control-plane read)."""
        return {
            name: array.snapshot() for name, array in self._arrays.items()
        }

    def reset(self) -> None:
        """Period-boundary reset of all arrays to their identities."""
        for name, lane in self.lanes.items():
            self._arrays[name].fill(lane.identity)
        self.updates = 0

    def report(self) -> Dict[str, Any]:
        """Human-readable results: class counts keyed by (group, class)
        labels, numbers as scalars per group, averages computed."""
        return self.report_from_snapshot(self.snapshot())

    def report_from_snapshot(
        self, snapshot: Dict[str, List[int]]
    ) -> Dict[str, Any]:
        """Render a raw snapshot (this statistics program's shape, but
        possibly merged from several shards/switches) the way
        :meth:`report` renders the live registers.  A two-lane
        statistic (AVG) renders its sum over its count, ``None`` at a
        zero count; a one-lane statistic its cells, MIN's idle
        sentinel as ``None``."""
        out: Dict[str, Any] = {}
        for spec, keys in self._report_keys:
            lanes = REGISTER_LANES[spec.kind]
            if len(lanes) == 2:
                sums, counts = (
                    snapshot[spec.name + lane.suffix] for lane in lanes
                )
                out[spec.name] = {
                    key: sums[gi] / counts[gi] if counts[gi] else None
                    for gi, key in enumerate(keys)
                }
                continue
            cells = snapshot[spec.name]
            # A nonzero identity (MIN's sentinel) is no value at all; an
            # idle count, sum or maximum reads 0.
            blank = lanes[0].identity or None
            out[spec.name] = dict(zip(keys, cells)) if blank is None else {
                key: None if value == blank else value
                for key, value in zip(keys, cells)
            }
        return out

    def load_snapshot(self, snapshot: Dict[str, List[int]]) -> None:
        """Overwrite the registers with a raw snapshot (AggSwitch
        periodical merge write-back)."""
        for name, cells in snapshot.items():
            # Bulk overwrite instead of a per-cell write loop — this is
            # on the epoch-restore path, which at scale walks millions
            # of cells.
            self._arrays[name].load(cells)

    def load_report(self, report: Dict[str, Any]) -> None:
        """Inverse of :meth:`report`: overwrite the registers so that
        :meth:`report` returns ``report``.  This is the section-6
        reconcile step — the analytics re-run on the complete
        web-server-side data replaces a drifted in-network aggregate.

        A missing or ``None`` cell restores each lane's identity.  AVG
        statistics are restored as (value, 1) sum/count pairs: the
        average itself is preserved even though the original update
        count is unrecoverable from a report.
        """
        for spec, keys in self._report_keys:
            cells_map = report.get(spec.name)
            if cells_map is None:
                continue
            lanes = [
                (self._arrays[spec.name + lane.suffix], lane)
                for lane in REGISTER_LANES[spec.kind]
            ]
            for index, key in enumerate(keys):
                value = cells_map.get(key)
                for array, lane in lanes:
                    if value is None:
                        array.write(index, lane.identity)
                    elif len(lanes) == 2:  # AVG: (value, 1)
                        array.write(
                            index, 1 if lane.tally else int(round(value))
                        )
                    else:
                        array.write(index, int(value))


def merge_snapshots(
    specs: List[StatSpec],
    a: Dict[str, List[int]],
    b: Dict[str, List[int]],
) -> Dict[str, List[int]]:
    """AggSwitch-side merge of two raw snapshots, cell by cell under
    each array's lane combine (:func:`array_lanes`): counts and sums
    add modulo ``2 ** REGISTER_WIDTH``, minima take min, maxima take
    max.  So folding the snapshots of any split of one stream gives
    the snapshot one bank fed the whole stream holds."""
    out: Dict[str, List[int]] = {}
    for name, lane in array_lanes(specs).items():
        left, right = a.get(name), b.get(name)
        if left is None or right is None:
            out[name] = list(left or right or [])
            continue
        if len(left) != len(right):
            raise ValueError("snapshot shape mismatch for %r" % name)
        out[name] = list(map(lane.combine, left, right))
    return out


def counts_match(
    report: Dict[str, Any], reference: Dict[str, Dict[Any, int]]
) -> bool:
    """Whether a rendered report equals a ground-truth count table on
    every statistic the table names: each reference cell is reported
    with its exact count, and no other cell of those statistics holds
    a non-zero count."""
    for stat, expected in reference.items():
        got = report.get(stat, {})
        for key in expected.keys() | got.keys():
            if got.get(key, 0) != expected.get(key, 0):
                return False
    return True
