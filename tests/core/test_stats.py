"""Switch statistics: counters, numeric aggregates, merge semantics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.larkswitch import flatten_snapshot, unflatten_snapshot
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import (
    StatKind,
    StatSpec,
    SwitchStatistics,
    array_lanes,
    merge_snapshots,
)
from repro.switch import columns
from repro.switch.registers import RegisterFile


def _schema():
    return CookieSchema(
        "app",
        (
            Feature.categorical("campaign", ["c0", "c1"]),
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("demand", 0, 1000),
        ),
    )


def _specs():
    return [
        StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender",
                 group_by="campaign"),
        StatSpec("demand_sum", StatKind.SUM, "demand"),
        StatSpec("demand_min", StatKind.MIN, "demand"),
        StatSpec("demand_max", StatKind.MAX, "demand"),
        StatSpec("demand_avg", StatKind.AVG, "demand"),
    ]


def _stats(specs=None):
    return SwitchStatistics(
        _schema(), specs or _specs(), RegisterFile(), prefix="t"
    )


class TestUpdates:
    def test_grouped_class_counts(self):
        stats = _stats()
        stats.update({"campaign": "c0", "gender": "f"})
        stats.update({"campaign": "c0", "gender": "f"})
        stats.update({"campaign": "c1", "gender": "m"})
        report = stats.report()
        assert report["by_gender"][("c0", "f")] == 2
        assert report["by_gender"][("c1", "m")] == 1
        assert report["by_gender"][("c1", "x")] == 0

    def test_numeric_aggregates(self):
        stats = _stats()
        for demand in (10, 50, 30):
            stats.update({"demand": demand})
        report = stats.report()
        assert report["demand_sum"]["all"] == 90
        assert report["demand_min"]["all"] == 10
        assert report["demand_max"]["all"] == 50
        assert report["demand_avg"]["all"] == pytest.approx(30.0)

    def test_missing_feature_skipped(self):
        stats = _stats()
        stats.update({"gender": "f"})  # no campaign -> group unknown
        report = stats.report()
        assert all(v == 0 for v in report["by_gender"].values())

    def test_empty_report_values(self):
        report = _stats().report()
        assert report["demand_min"]["all"] is None
        assert report["demand_avg"]["all"] is None
        assert report["demand_max"]["all"] == 0

    def test_reset(self):
        stats = _stats()
        stats.update({"campaign": "c0", "gender": "f", "demand": 5})
        stats.reset()
        report = stats.report()
        assert report["by_gender"][("c0", "f")] == 0
        assert report["demand_min"]["all"] is None
        assert stats.updates == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="class feature"):
            _stats([StatSpec("bad", StatKind.COUNT_BY_CLASS, "demand")])
        with pytest.raises(ValueError, match="number feature"):
            _stats([StatSpec("bad", StatKind.SUM, "gender")])
        with pytest.raises(ValueError, match="group_by"):
            _stats([StatSpec("bad", StatKind.SUM, "demand",
                             group_by="demand")])

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
    @settings(max_examples=25)
    def test_numeric_aggregates_match_reference(self, demands):
        stats = _stats()
        for demand in demands:
            stats.update({"demand": demand})
        report = stats.report()
        assert report["demand_sum"]["all"] == sum(demands)
        assert report["demand_min"]["all"] == min(demands)
        assert report["demand_max"]["all"] == max(demands)
        assert report["demand_avg"]["all"] == pytest.approx(
            sum(demands) / len(demands)
        )


def _wire_row(schema, values):
    return tuple(
        f.encode_value(values[f.name]) if f.name in values else -1
        for f in schema.features
    )


def _fold_schema():
    return CookieSchema(
        "fold",
        (
            Feature.categorical("campaign", ["c0", "c1", "c2"]),
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("score", -10, 10),
        ),
    )


def _fold_specs():
    """Every StatKind, ungrouped and grouped."""
    specs = [StatSpec("gender", StatKind.COUNT_BY_CLASS, "gender")]
    specs.append(StatSpec("gender_by", StatKind.COUNT_BY_CLASS, "gender",
                          group_by="campaign"))
    for kind in (StatKind.SUM, StatKind.MIN, StatKind.MAX, StatKind.AVG):
        specs.append(StatSpec(kind.value, kind, "score"))
        specs.append(StatSpec(kind.value + "_by", kind, "score",
                              group_by="campaign"))
    return specs


def _fold_cookies(n, seed=5):
    """``(values, multiplicity)`` pairs: each feature independently
    absent a quarter of the time, so ``-1`` lands in value columns and
    in the group column; scores straddle zero."""
    rng = random.Random(seed)
    schema = _fold_schema()
    cookies = []
    for _ in range(n):
        values = {}
        for feature in schema.features:
            if rng.random() < 0.25:
                continue
            values[feature.name] = (
                rng.choice(feature.classes) if feature.classes
                else rng.randint(feature.min_value, feature.max_value)
            )
        cookies.append((values, rng.choice((1, 1, 2, 7))))
    return cookies


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield request.param
    finally:
        columns._FORCED = previous


@pytest.mark.usefixtures("kernel_form")
class TestFoldRows:
    """``fold_rows`` against per-packet ``update``, the reference."""

    @staticmethod
    def _pair(schema, specs, cookies, preload=None):
        scalar = SwitchStatistics(schema, specs, RegisterFile(), prefix="s")
        folded = SwitchStatistics(schema, specs, RegisterFile(), prefix="f")
        if preload is not None:
            scalar.load_snapshot(preload)
            folded.load_snapshot(preload)
        for values, times in cookies:
            for _ in range(times):
                scalar.update(values)
        folded.fold_rows(
            [_wire_row(schema, values) for values, _ in cookies],
            [times for _, times in cookies],
        )
        assert folded.snapshot() == scalar.snapshot()
        assert folded.updates == scalar.updates
        return folded

    # Below and above the cut-off: the row-by-row form and (with numpy
    # on) the scatter form.
    @pytest.mark.parametrize(
        "rows", (1, columns.VECTOR_MIN_ROWS - 1, columns.VECTOR_MIN_ROWS, 200)
    )
    def test_every_kind_matches_update(self, rows):
        cookies = _fold_cookies(rows)
        folded = self._pair(_fold_schema(), _fold_specs(), cookies)
        if rows == 200:
            # Scores straddle zero, and registers are unsigned.
            assert folded.snapshot()["min"] == [0]
            assert folded.snapshot()["max"] == [(1 << 48) - 1]

    @pytest.mark.parametrize("repeat", (1, 6))
    def test_signed_min_max_mask_before_the_reduce(self, repeat):
        """Scalar ``update_min`` / ``update_max`` mask each value to
        the register width and then compare; a fold that reduced the
        signed values first ended at mn=[2**48-5], mx=[7]."""
        schema = CookieSchema("x", (Feature.number("x", -10, 10),))
        specs = [
            StatSpec("mn", StatKind.MIN, "x"),
            StatSpec("mx", StatKind.MAX, "x"),
        ]
        cookies = [({"x": x}, 1) for x in (-5, 3, 7)] * repeat
        assert (len(cookies) >= columns.VECTOR_MIN_ROWS) == (repeat > 1)
        folded = self._pair(schema, specs, cookies)
        assert folded.snapshot() == {"mn": [3], "mx": [(1 << 48) - 5]}

    def test_register_wraps_at_its_width(self):
        schema, specs = _fold_schema(), _fold_specs()
        top = (1 << 48) - 1
        preload = {
            name: [top - 3] * len(cells)
            for name, cells in SwitchStatistics(
                schema, specs, RegisterFile()
            ).snapshot().items()
            if not name.startswith(("min", "max"))
        }
        folded = self._pair(schema, specs, _fold_cookies(64), preload)
        assert any(
            cell < 1000 for cell in folded.snapshot()["gender"]
        ), "the count register should have wrapped past zero"

    def test_empty_input_is_a_no_op(self):
        stats = SwitchStatistics(
            _fold_schema(), _fold_specs(), RegisterFile()
        )
        before = stats.snapshot()
        stats.fold_rows([], [])
        assert stats.snapshot() == before
        assert stats.updates == 0

    def test_rows_and_counts_must_pair_up(self):
        stats = SwitchStatistics(
            _fold_schema(), _fold_specs(), RegisterFile()
        )
        with pytest.raises(ValueError, match="2 rows but 1 counts"):
            stats.fold_rows([(0, 0, 0), (1, 1, 1)], [1])

    @pytest.mark.parametrize(
        "rows", (1, columns.VECTOR_MIN_ROWS - 1, columns.VECTOR_MIN_ROWS, 200)
    )
    def test_counts_none_means_one_each_and_a_matrix_is_the_same_rows(
        self, rows
    ):
        """``counts=None`` is ``[1] * n``; an ``(n, F)`` int64 matrix
        folds as the tuple list it holds — it is the list case's own
        conversion handed in ready-made (the AggSwitch parse), in
        either kernel form and on both sides of the cut-off."""
        np = pytest.importorskip("numpy")
        schema, specs = _fold_schema(), _fold_specs()
        wire_rows = [_wire_row(schema, v) for v, _ in _fold_cookies(rows)]
        folds = [
            SwitchStatistics(schema, specs, RegisterFile(), prefix="p%d" % k)
            for k in range(4)
        ]
        folds[0].fold_rows(wire_rows, [1] * rows)
        folds[1].fold_rows(wire_rows)
        folds[2].fold_rows(np.array(wire_rows, dtype=np.int64))
        folds[3].fold_rows(
            np.array(wire_rows, dtype=np.int64), list(range(1, rows + 1))
        )
        assert folds[1].snapshot() == folds[2].snapshot() == (
            folds[0].snapshot()
        )
        assert [f.updates for f in folds[:3]] == [rows] * 3
        weighted = SwitchStatistics(schema, specs, RegisterFile(), prefix="w")
        weighted.fold_rows(wire_rows, list(range(1, rows + 1)))
        assert folds[3].snapshot() == weighted.snapshot()
        assert folds[3].updates == weighted.updates

    @pytest.mark.parametrize("rows", (2, 40))
    def test_a_matrix_of_the_wrong_shape_or_dtype_moves_no_register(
        self, rows
    ):
        np = pytest.importorskip("numpy")
        stats = SwitchStatistics(
            _fold_schema(), _fold_specs(), RegisterFile()
        )
        before = stats.snapshot()
        for bad in (
            np.zeros((rows, 2), dtype=np.int64),
            np.zeros((rows, 4), dtype=np.int64),
            np.zeros(rows * 3, dtype=np.int64),
            np.zeros((rows, 3), dtype=np.float64),
            np.zeros((rows, 3), dtype=np.uint64),
            np.zeros((rows, 3), dtype=np.int32),
            np.zeros((rows, 3), dtype=bool),
        ):
            with pytest.raises(ValueError, match=r"\(n, 3\) int64 matrix"):
                stats.fold_rows(bad)
            with pytest.raises(ValueError):
                stats.fold_rows(bad, [1] * rows)
        assert stats.snapshot() == before and stats.updates == 0

    def test_wire_integers_beyond_int64_take_the_row_form(self):
        """A 64-bit feature cannot enter an int64 matrix; the fold must
        still agree with ``update`` at any batch size."""
        schema = CookieSchema(
            "wide",
            (
                Feature.number("id", 0, (1 << 64) - 1),
                Feature.categorical("gender", ["f", "m"]),
            ),
        )
        specs = [
            StatSpec("gender", StatKind.COUNT_BY_CLASS, "gender"),
            StatSpec("id_sum", StatKind.SUM, "id"),
            StatSpec("id_max", StatKind.MAX, "id"),
        ]
        cookies = [
            ({"id": (1 << 64) - 1 - i, "gender": "fm"[i % 2]}, 1 + i % 3)
            for i in range(columns.VECTOR_MIN_ROWS * 2)
        ]
        self._pair(schema, specs, cookies)


class TestMerge:
    def test_merge_adds_counts_and_resolves_minmax(self):
        a, b = _stats(), _stats()
        a.update({"campaign": "c0", "gender": "f", "demand": 10})
        b.update({"campaign": "c0", "gender": "f", "demand": 40})
        merged = merge_snapshots(_specs(), a.snapshot(), b.snapshot())
        target = _stats()
        for name, cells in merged.items():
            array = target._arrays[name]
            for i, value in enumerate(cells):
                array.write(i, value)
        report = target.report()
        assert report["by_gender"][("c0", "f")] == 2
        assert report["demand_sum"]["all"] == 50
        assert report["demand_min"]["all"] == 10
        assert report["demand_max"]["all"] == 40
        assert report["demand_avg"]["all"] == pytest.approx(25.0)

    def test_merge_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            merge_snapshots(
                [StatSpec("s", StatKind.SUM, "demand")],
                {"s": [1, 2]},
                {"s": [1]},
            )

    def test_merge_handles_one_sided(self):
        merged = merge_snapshots(
            [StatSpec("s", StatKind.SUM, "demand")],
            {"s": [5]},
            {},
        )
        assert merged["s"] == [5]


class TestFlattenRoundtrip:
    def test_roundtrip_preserves_snapshot(self):
        stats = _stats()
        stats.update({"campaign": "c1", "gender": "x", "demand": 123})
        stats.update({"campaign": "c0", "gender": "f", "demand": 7})
        snapshot = stats.snapshot()
        lanes = array_lanes(_specs())
        items = flatten_snapshot(snapshot, lanes)
        rebuilt = unflatten_snapshot(items, snapshot, lanes)
        assert rebuilt == snapshot

    def test_min_sentinel_preserved_when_idle(self):
        stats = _stats()
        stats.update({"campaign": "c0", "gender": "f"})  # no demand
        snapshot = stats.snapshot()
        lanes = array_lanes(_specs())
        items = flatten_snapshot(snapshot, lanes)
        rebuilt = unflatten_snapshot(items, snapshot, lanes)
        assert rebuilt["demand_min"] == snapshot["demand_min"]

    def test_zero_cells_skipped(self):
        stats = _stats()
        stats.update({"campaign": "c0", "gender": "f"})
        items = flatten_snapshot(stats.snapshot(), array_lanes(_specs()))
        # Only the one count cell (plus nothing else) is non-idle.
        assert len(items) == 1

    def test_bad_tags_rejected(self):
        snapshot = _stats().snapshot()
        with pytest.raises(ValueError, match="ordinal"):
            unflatten_snapshot([(63 << 10, 1)], snapshot)
        with pytest.raises(ValueError, match="index"):
            unflatten_snapshot([(0 | 1023, 1)], snapshot)

    def test_unaddressable_snapshots_rejected(self):
        """The tag is (6-bit ordinal, 10-bit index): anything beyond
        would alias onto another cell, so it raises instead."""
        assert flatten_snapshot({"a": [0] * 1023 + [9]}) == [(1023, 9)]
        with pytest.raises(ValueError, match="'wide' has 1025 cells"):
            flatten_snapshot({"a": [1], "wide": [0] * 1025})
        arrays = {"s%02d" % i: [i + 1] for i in range(65)}
        with pytest.raises(ValueError, match="65 statistics arrays"):
            flatten_snapshot(arrays)
        del arrays["s64"]
        assert flatten_snapshot(arrays)[-1] == (63 << 10, 64)

    def test_array_lanes(self):
        """Every array the specs allocate has a lane, and only the MIN
        array idles at a nonzero identity."""
        lanes = array_lanes(_specs())
        assert list(lanes) == list(_stats().snapshot())
        assert {name for name, lane in lanes.items() if lane.identity} == {
            "demand_min"
        }
