"""On-switch statistics for semantic-cookie features.

The prototype implements (paper section 4.1 "Statistics Calculation"):

* for **class** features: counting by matched value, optionally grouped
  by another class feature (e.g. per-campaign demographic counts);
* for **number** features: sum, min, max, and average (sum + count).

Statistics live in register arrays allocated from a switch pipeline's
register file, so SRAM budgeting applies; snapshots are plain dicts
that aggregation packets carry and the AggSwitch merges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.core.schema import CookieSchema, FeatureType
from repro.switch.columns import VECTOR_MIN_ROWS, get_numpy, row_matrix
from repro.switch.registers import RegisterFile

__all__ = [
    "StatKind",
    "StatSpec",
    "SwitchStatistics",
    "array_shapes",
    "counts_match",
    "merge_snapshots",
    "min_array_names",
]

_NUMBER_WIDTH = 48  # register width of every statistic; sums wrap here
_MIN_SENTINEL = (1 << _NUMBER_WIDTH) - 1


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


def array_shapes(
    schema: CookieSchema, spec: StatSpec
) -> List[Tuple[str, int]]:
    """``(snapshot array name, cell count)`` of the register arrays
    one spec allocates."""
    groups = (
        schema.feature(spec.group_by).cardinality if spec.group_by else 1
    )
    if spec.kind is StatKind.COUNT_BY_CLASS:
        return [
            (spec.name, groups * schema.feature(spec.feature).cardinality)
        ]
    if spec.kind is StatKind.AVG:
        return [(spec.name + ".sum", groups), (spec.name + ".count", groups)]
    return [(spec.name, groups)]


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
        self._registers = registers
        self._arrays: Dict[str, Any] = {}
        self.updates = 0
        for spec in self.specs:
            self._validate_spec(spec)
            self._allocate(spec, prefix)
        # Per-spec report keys, precomputed once (schema and specs are
        # fixed after construction).  report_from_snapshot runs per
        # merged packet on the AggSwitch, so rendering must not redo
        # schema lookups or key construction.
        self._report_keys: List[Tuple[StatSpec, List[Any]]] = []
        for spec in self.specs:
            feature = self.schema.feature(spec.feature)
            groups = (
                list(self.schema.feature(spec.group_by).classes)
                if spec.group_by
                else [None]
            )
            if spec.kind is StatKind.COUNT_BY_CLASS:
                keys = [
                    cls if group is None else (group, cls)
                    for group in groups
                    for cls in feature.classes
                ]
            else:
                keys = [
                    group if group is not None else "all" for group in groups
                ]
            self._report_keys.append((spec, keys))
        # Per-spec resolved features, precomputed once: the update hot
        # path must not re-run schema lookups per packet per spec.
        self._spec_rows: List[
            Tuple[StatSpec, Any, Optional[Any]]
        ] = [
            (
                spec,
                self.schema.feature(spec.feature),
                self.schema.feature(spec.group_by)
                if spec.group_by is not None
                else None,
            )
            for spec in self.specs
        ]
        # The same specs resolved to wire-row columns for fold_rows:
        # (kind, feature column, group column or -1, cardinality,
        # min_value, array, AVG count array).
        names = self.schema.feature_names()
        self._fold_plan: List[Tuple[Any, ...]] = [
            (
                spec.kind,
                names.index(spec.feature),
                names.index(spec.group_by) if group is not None else -1,
                feature.cardinality,
                feature.min_value,
                self._arrays[
                    spec.name + ".sum" if spec.kind is StatKind.AVG
                    else spec.name
                ],
                self._arrays[spec.name + ".count"]
                if spec.kind is StatKind.AVG else None,
            )
            for spec, feature, group in self._spec_rows
        ]
        # The numpy form needs every wire integer inside int64.
        self._rows_fit_int64 = all(
            feature.bits < 64 for feature in self.schema.features
        )

    # -- setup ------------------------------------------------------------

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

    def _allocate(self, spec: StatSpec, prefix: str) -> None:
        for name, size in array_shapes(self.schema, spec):
            array = self._registers.allocate(
                "%s.%s" % (prefix, name), size, _NUMBER_WIDTH
            )
            if spec.kind is StatKind.MIN:
                array.fill(_MIN_SENTINEL)
            self._arrays[name] = array

    # -- update path (per decoded cookie) ------------------------------------

    def update(self, values: Dict[str, Any]) -> None:
        """Fold one decoded cookie's values into the registers."""
        self.updates += 1
        for spec, feature, group in self._spec_rows:
            if spec.feature not in values:
                continue
            if group is None:
                group_index = 0
            elif spec.group_by not in values:
                continue
            else:
                group_index = group.encode_value(values[spec.group_by])
            if spec.kind is StatKind.COUNT_BY_CLASS:
                wire = feature.encode_value(values[spec.feature])
                self._arrays[spec.name].add(
                    group_index * feature.cardinality + wire
                )
            else:
                raw = int(values[spec.feature])
                if spec.kind is StatKind.SUM:
                    self._arrays[spec.name].add(group_index, raw)
                elif spec.kind is StatKind.MIN:
                    self._arrays[spec.name].update_min(group_index, raw)
                elif spec.kind is StatKind.MAX:
                    self._arrays[spec.name].update_max(group_index, raw)
                elif spec.kind is StatKind.AVG:
                    self._arrays[spec.name + ".sum"].add(group_index, raw)
                    self._arrays[spec.name + ".count"].add(group_index)

    def fold_rows(self, rows, counts=None) -> None:
        """Columnar fold: ``rows[i]`` is the wire row of one decoded
        cookie (one int per schema feature in schema order, ``-1``
        where the feature is absent — see
        :meth:`TransportCookieCodec.rows_from_blocks`) and
        ``counts[i] >= 1`` its multiplicity (``None``: one each).
        ``rows`` is a list of tuples or the same thing as an ``(n, F)``
        int64 matrix (the AggSwitch parses its payloads to one).

        Bit-identical to :meth:`update` called ``counts[i]`` times on
        row ``i``'s decoded values, in any order: counts and sums scale
        linearly (addition is associative modulo the register mask),
        min/max are idempotent.  The wire integers index the registers
        directly (``group * cardinality + class``), as on the switch
        ALU.  From ``VECTOR_MIN_ROWS`` rows up, with numpy on, each
        spec is one column compare plus one scatter; below, the same
        integer arithmetic runs row by row.
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
            for row, times in zip(
                rows, repeat(1) if counts is None else counts
            ):
                for kind, column, by, card, low, array, tally in (
                    self._fold_plan
                ):
                    wire = row[column]
                    group = row[by] if by >= 0 else 0
                    if wire < 0 or group < 0:
                        continue
                    if kind is StatKind.COUNT_BY_CLASS:
                        array.add(group * card + wire, times)
                    elif kind is StatKind.MIN:
                        array.update_min(group, wire + low)
                    elif kind is StatKind.MAX:
                        array.update_max(group, wire + low)
                    else:  # SUM, and AVG's sum half
                        array.add(group, (wire + low) * times)
                        if tally is not None:
                            tally.add(group, times)
            return
        if matrix is None:
            matrix = row_matrix(np, rows, width)
        weights = (
            np.ones(n, dtype=np.int64) if counts is None
            else np.array(counts, dtype=np.int64)
        )
        ungrouped = np.zeros(n, dtype=np.int64)
        for kind, column, by, card, low, array, tally in self._fold_plan:
            wire = matrix[:, column]
            index = matrix[:, by] if by >= 0 else ungrouped
            present = (wire >= 0) & (index >= 0)
            wire, index = wire[present], index[present]
            times = weights[present]
            if kind is StatKind.COUNT_BY_CLASS:
                array.add_vector(_scatter(
                    np, np.add, array.size, 0, index * card + wire, times
                ))
                continue
            # Masked like the scalar RMWs mask each value; int64 wraps
            # modulo 2**64, a multiple of every register width.
            raw = (wire + (low & array.mask)) & array.mask
            if kind is StatKind.MIN:
                array.min_vector(_scatter(
                    np, np.minimum, array.size, array.mask, index, raw
                ))
            elif kind is StatKind.MAX:
                array.max_vector(_scatter(
                    np, np.maximum, array.size, 0, index, raw
                ))
            else:
                array.add_vector(_scatter(
                    np, np.add, array.size, 0, index, raw * times
                ))
                if tally is not None:
                    tally.add_vector(_scatter(
                        np, np.add, tally.size, 0, index, times
                    ))

    # -- read-out ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, List[int]]:
        """Raw register contents per statistic (control-plane read)."""
        return {
            name: array.snapshot() for name, array in self._arrays.items()
        }

    def reset(self) -> None:
        """Period-boundary reset of all arrays."""
        for spec in self.specs:
            if spec.kind is StatKind.AVG:
                self._arrays[spec.name + ".sum"].reset()
                self._arrays[spec.name + ".count"].reset()
            elif spec.kind is StatKind.MIN:
                self._arrays[spec.name].fill(_MIN_SENTINEL)
            else:
                self._arrays[spec.name].reset()
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
        :meth:`report` renders the live registers."""
        out: Dict[str, Any] = {}
        for spec, keys in self._report_keys:
            if spec.kind is StatKind.COUNT_BY_CLASS:
                out[spec.name] = dict(zip(keys, snapshot[spec.name]))
            elif spec.kind is StatKind.AVG:
                sums = snapshot[spec.name + ".sum"]
                counts = snapshot[spec.name + ".count"]
                out[spec.name] = {
                    key: sums[gi] / counts[gi] if counts[gi] else None
                    for gi, key in enumerate(keys)
                }
            elif spec.kind is StatKind.MIN:
                out[spec.name] = {
                    key: None if value == _MIN_SENTINEL else value
                    for key, value in zip(keys, snapshot[spec.name])
                }
            else:
                out[spec.name] = dict(zip(keys, snapshot[spec.name]))
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

        AVG statistics are restored as (value, 1) sum/count pairs: the
        average itself is preserved even though the original update
        count is unrecoverable from a report.
        """
        for spec in self.specs:
            cells_map = report.get(spec.name)
            if cells_map is None:
                continue
            feature = self.schema.feature(spec.feature)
            groups = (
                list(self.schema.feature(spec.group_by).classes)
                if spec.group_by
                else [None]
            )
            if spec.kind is StatKind.COUNT_BY_CLASS:
                classes = list(feature.classes)
                array = self._arrays[spec.name]
                for gi, group in enumerate(groups):
                    for ci, cls in enumerate(classes):
                        key = cls if group is None else (group, cls)
                        array.write(
                            gi * len(classes) + ci,
                            int(cells_map.get(key, 0) or 0),
                        )
            elif spec.kind is StatKind.AVG:
                sums = self._arrays[spec.name + ".sum"]
                counts = self._arrays[spec.name + ".count"]
                for gi, group in enumerate(groups):
                    value = cells_map.get(group if group is not None else "all")
                    if value is None:
                        sums.write(gi, 0)
                        counts.write(gi, 0)
                    else:
                        sums.write(gi, int(round(value)))
                        counts.write(gi, 1)
            else:
                array = self._arrays[spec.name]
                for gi, group in enumerate(groups):
                    value = cells_map.get(group if group is not None else "all")
                    if value is None:
                        value = _MIN_SENTINEL if spec.kind is StatKind.MIN else 0
                    array.write(gi, int(value))


def merge_snapshots(
    specs: List[StatSpec],
    a: Dict[str, List[int]],
    b: Dict[str, List[int]],
) -> Dict[str, List[int]]:
    """AggSwitch-side merge of two raw snapshots: counts and sums add
    modulo the register width (``2 ** _NUMBER_WIDTH``, where
    :meth:`RegisterArray.add` wraps), minima take min, maxima take
    max.  So folding the snapshots of any split of one stream gives
    the snapshot one bank fed the whole stream holds."""
    mask = (1 << _NUMBER_WIDTH) - 1
    out: Dict[str, List[int]] = {}
    kinds: Dict[str, StatKind] = {}
    for spec in specs:
        if spec.kind is StatKind.AVG:
            kinds[spec.name + ".sum"] = StatKind.SUM
            kinds[spec.name + ".count"] = StatKind.SUM
        else:
            kinds[spec.name] = spec.kind
    for name, kind in kinds.items():
        left, right = a.get(name), b.get(name)
        if left is None or right is None:
            out[name] = list(left or right or [])
            continue
        if len(left) != len(right):
            raise ValueError("snapshot shape mismatch for %r" % name)
        if kind is StatKind.MIN:
            out[name] = [min(x, y) for x, y in zip(left, right)]
        elif kind is StatKind.MAX:
            out[name] = [max(x, y) for x, y in zip(left, right)]
        else:
            out[name] = [(x + y) & mask for x, y in zip(left, right)]
    return out


def min_array_names(specs: List[StatSpec]) -> set:
    """Names of snapshot arrays whose idle value is the MIN sentinel."""
    return {spec.name for spec in specs if spec.kind is StatKind.MIN}


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
