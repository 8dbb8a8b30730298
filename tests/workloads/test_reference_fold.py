"""The ad workload's reference fold, numpy form against Python form.

``AdCampaignWorkload.accumulate_reference`` is the streaming pipeline's
ground truth, so both of its forms must fold every batch into the same
cells as ``reference_counts`` over the same events drawn one by one,
and neither may insert a zero cell (``counts_match`` would read one as
a report cell the switches never emitted).  The forms may differ only
in the dicts' insertion order.  Batches below ``REFERENCE_MIN_ROWS``
take the Python form whatever the gate says; the cut-off's measured
table sits beside it in ``repro/workloads/adcampaign.py``.
"""

import pytest

from repro.switch.columns import HAVE_NUMPY, force_numpy, get_numpy
from repro.workloads.adcampaign import REFERENCE_MIN_ROWS, AdCampaignWorkload

SIZES = (0, 1, REFERENCE_MIN_ROWS - 1, REFERENCE_MIN_ROWS,
         REFERENCE_MIN_ROWS + 1, 64, 1024)
SHAPES = (
    # (num_users, num_campaigns, seed)
    (200, 8, 42),
    (2000, 8, 7),
    (5, 3, 11),
    (40, 1, 23),
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def gate(request):
    force_numpy(request.param)
    try:
        yield request.param
    finally:
        force_numpy(None)


def _batch_and_events(shape, size):
    """One batch of ``size`` events and the same events drawn one by
    one through the legacy scalar path, from twin workloads."""
    users, campaigns, seed = shape
    twins = [
        AdCampaignWorkload(num_users=users, num_campaigns=campaigns, seed=seed)
        for _ in range(2)
    ]
    workload = twins[0]
    columns = workload.stream(20000.0, 1e9).generate_batch(size)
    scalar = twins[1].stream(20000.0, 1e9)
    events = [scalar.generate() for _ in range(size)]
    return workload, columns, events


def _no_zero_cells(reference):
    return all(count > 0 for cells in reference.values()
               for count in cells.values())


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%du%dc" % s[:2])
def test_both_forms_equal_the_scalar_reference(shape, size, gate):
    workload, columns, events = _batch_and_events(shape, size)
    expected = workload.reference_counts(events)
    assert _no_zero_cells(expected)

    folded = workload.new_reference()
    workload.accumulate_reference(columns, folded)
    assert folded == expected and _no_zero_cells(folded)

    cols = columns.columns
    python = workload.new_reference()
    workload._reference_python(cols["user"], cols["campaign"], python)
    assert python == expected and _no_zero_cells(python)

    np = get_numpy()
    if np is not None:
        vector = workload.new_reference()
        workload._reference_numpy(np, cols["user"], cols["campaign"], vector)
        assert vector == expected and _no_zero_cells(vector)


@needs_numpy
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%du%dc" % s[:2])
def test_forms_fold_into_a_running_reference(shape):
    """Batch after batch into one accumulator, numpy and Python forms
    mixed, equals the whole stream's scalar reference."""
    workload, columns, events = _batch_and_events(shape, 3000)
    force_numpy(True)
    try:
        np = get_numpy()
    finally:
        force_numpy(None)
    cols = columns.columns
    running = workload.new_reference()
    lo = 0
    for i, size in enumerate((1, 700, 13, 1024, 47, 1215)):
        users = cols["user"][lo:lo + size]
        campaigns = cols["campaign"][lo:lo + size]
        if i % 2:
            workload._reference_numpy(np, users, campaigns, running)
        else:
            workload._reference_python(users, campaigns, running)
        lo += size
    assert lo == 3000
    assert running == workload.reference_counts(events)


@pytest.mark.parametrize(
    "size", (REFERENCE_MIN_ROWS - 1, REFERENCE_MIN_ROWS)
)
def test_the_cut_off_decides_the_form(size, gate, monkeypatch):
    """Below the cut-off, and with the gate closed, the numpy form is
    never entered; from the cut-off up with the gate open, it is."""
    workload, columns, _ = _batch_and_events(SHAPES[0], size)
    entered = []

    def spy(np, users, campaigns, out):
        entered.append(len(users))

    monkeypatch.setattr(workload, "_reference_numpy", spy)
    workload.accumulate_reference(columns, workload.new_reference())
    numpy_form = gate and HAVE_NUMPY and size >= REFERENCE_MIN_ROWS
    assert entered == ([size] if numpy_form else [])
