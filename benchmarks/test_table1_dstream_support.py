"""Table 1: DStream methods and their in-network (INSA) support.

The table is regenerated from the capability model: classified, not
executed.  It is cross-checked against the engine the other way round —
every operator the DStream engine keeps is a Table 1 row — and the
planner's offload decisions agree with the classifications.
"""

from conftest import attach, emit_table

from repro.core.insa import (
    DSTREAM_SUPPORT,
    InsaPlanner,
    PlanOp,
    Support,
    table1_rows,
)
from repro.streaming.dstream import DStream


def test_table1_dstream_support(benchmark):
    rows = benchmark(table1_rows)

    emit_table(
        "Table 1: DStream methods vs INSA support",
        ["method", "INSA", "categories"],
        rows,
    )
    tally = {"Y": 0, "Y*": 0, "N": 0, "N/A": 0}
    for _method, support, _categories in rows:
        tally[support] += 1
    attach(benchmark, **{("count_" + k.replace("*", "_star").replace("/", "_")): v
                         for k, v in tally.items()})
    # Paper's Table 1 composition.
    assert len(rows) == 39
    assert tally["N"] == 2          # partitionBy, repartition
    assert tally["N/A"] == 7        # engine bookkeeping
    assert tally["Y"] == 8
    assert tally["Y*"] == 22

    # Every operator the engine keeps is a Table 1 row (rdd_for_batch
    # is engine plumbing, not an operator).
    operators = [
        m for m in vars(DStream)
        if not m.startswith("_") and m != "rdd_for_batch"
    ]
    assert operators
    for method in operators:
        assert method in DSTREAM_SUPPORT, method

    # The planner honours the table: supported ops offload, the two
    # partition movers do not.
    planner = InsaPlanner()
    for method, info in DSTREAM_SUPPORT.items():
        plan = planner.plan([PlanOp(method, operands=("add",))])
        if info.support is Support.NO:
            assert plan.server_side, method
        else:
            assert plan.fully_offloaded, method
