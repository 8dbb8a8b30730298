"""INSA capability model: Table 1 and the query planner."""

import pytest

from repro.core.insa import (
    DSTREAM_SUPPORT,
    InsaPlanner,
    PlanOp,
    Support,
    classify,
    table1_rows,
)
from repro.streaming.dstream import DStream


class TestTable1:
    def test_row_count_matches_paper(self):
        assert len(DSTREAM_SUPPORT) == 39

    @pytest.mark.parametrize(
        "method,support",
        [
            ("cache", "N/A"),
            ("checkpoint", "N/A"),
            ("cogroup", "Y*"),
            ("count", "Y"),
            ("countByValue", "Y"),
            ("countByValueAndWindow", "Y"),
            ("countByWindow", "Y"),
            ("filter", "Y*"),
            ("groupByKey", "Y"),
            ("groupByKeyAndWindow", "Y"),
            ("map", "Y*"),
            ("partitionBy", "N"),
            ("reduce", "Y*"),
            ("reduceByKeyAndWindow", "Y*"),
            ("repartition", "N"),
            ("saveAsTextFiles", "N/A"),
            ("slice", "Y"),
            ("union", "Y*"),
            ("updateStateByKey", "Y*"),
            ("window", "Y"),
        ],
    )
    def test_paper_classifications(self, method, support):
        assert classify(method).support.value == support

    def test_only_partition_moves_are_unsupported(self):
        unsupported = [
            m for m, info in DSTREAM_SUPPORT.items()
            if info.support is Support.NO
        ]
        assert sorted(unsupported) == ["partitionBy", "repartition"]

    def test_categories_present(self):
        info = classify("reduceByKeyAndWindow")
        assert set(info.categories) == {"partition", "window", "reduce"}

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            classify("collectAsync")

    def test_rows_render_sorted(self):
        rows = table1_rows()
        assert len(rows) == 39
        methods = [m for m, _s, _c in rows]
        assert methods == sorted(methods, key=str.lower)

    def test_every_engine_operator_is_a_table1_row(self):
        """Table 1 is classified, not executed; the operators the engine
        keeps must each be one of its rows."""
        operators = [
            m for m in vars(DStream)
            if not m.startswith("_") and m != "rdd_for_batch"
        ]
        assert sorted(operators) == [
            "filter", "foreachRDD", "map", "reduceByKey",
            "reduceByKeyAndWindow", "transform", "window",
        ]
        for method in operators:
            assert method in DSTREAM_SUPPORT, method


class TestPlanner:
    def test_full_offload(self):
        plan = InsaPlanner().plan(
            [
                PlanOp("filter", ("eq",)),
                PlanOp("countByValue"),
            ]
        )
        assert plan.fully_offloaded
        assert plan.offload_fraction == 1.0
        assert plan.stages_used == 2

    def test_unsupported_operand_blocks(self):
        plan = InsaPlanner().plan(
            [
                PlanOp("filter", ("eq",)),
                PlanOp("map", ("log",)),
                PlanOp("count"),
            ]
        )
        assert [op.method for op in plan.offloaded] == ["filter"]
        assert [op.method for op in plan.server_side] == ["map", "count"]
        assert any("unsupported operands" in r for r in plan.reasons)

    def test_partition_move_blocks(self):
        plan = InsaPlanner().plan(
            [PlanOp("repartition"), PlanOp("count")]
        )
        assert plan.offloaded == []
        assert len(plan.server_side) == 2
        assert any("pinned" in r for r in plan.reasons)

    def test_no_resume_after_block(self):
        """Once an op falls to the server, later switch-friendly ops
        stay on the server too."""
        plan = InsaPlanner().plan(
            [
                PlanOp("map", ("mod",)),
                PlanOp("count"),  # offloadable in isolation
            ]
        )
        assert [op.method for op in plan.server_side] == ["map", "count"]

    def test_stage_budget_enforced(self):
        planner = InsaPlanner(stage_budget=2)
        plan = planner.plan(
            [
                PlanOp("filter", ("eq",)),
                PlanOp("reduceByKey", ("add",)),
                PlanOp("count"),
            ]
        )
        assert len(plan.offloaded) == 2
        assert any("stage budget" in r for r in plan.reasons)

    def test_na_methods_cost_no_stages(self):
        plan = InsaPlanner(stage_budget=1).plan(
            [PlanOp("cache"), PlanOp("count")]
        )
        assert plan.fully_offloaded
        assert plan.stages_used == 1

    def test_custom_stage_cost(self):
        planner = InsaPlanner(stage_budget=3)
        plan = planner.plan(
            [PlanOp("reduceByKeyAndWindow", ("add",), stages_needed=4)]
        )
        assert not plan.fully_offloaded

    def test_empty_plan(self):
        plan = InsaPlanner().plan([])
        assert plan.fully_offloaded
        assert plan.offload_fraction == 0.0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            InsaPlanner(stage_budget=0)
