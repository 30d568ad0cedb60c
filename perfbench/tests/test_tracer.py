import sys

import pytest

import tracer as tr


def test_self_time_subtracts_merged_children():
    # A [0, 10] holds B [1, 3] and C [2, 5] (overlapping) and D [8, 12],
    # which is clipped to A's end; E [1.5, 2.5] is a grandchild under B.
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    selfs = tr.self_times(start, end, parent)
    assert selfs == pytest.approx([10.0 - 4.0 - 2.0, 2.0 - 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_sequential_children():
    selfs = tr.self_times([0.0, 1.0, 4.0], [10.0, 3.0, 6.0], [-1, 0, 0])
    assert selfs == pytest.approx([6.0, 2.0, 2.0])


def test_patched_traces_every_binding_and_restores():
    from collarflow import fields, flow, quad_diff
    from collarflow.fields import TargetSpec, sample_map
    from collarflow.geometry import CollarGrid
    import numpy as np

    original_jet = fields.jet
    original_init = CollarGrid.__init__
    tracer = tr.Tracer()
    with tr.patched(tracer):
        assert flow.jet is not original_jet and quad_diff.jet is flow.jet
        # verify is loaded by patched itself when no test imported it before
        assert sys.modules["collarflow.verify"].jet is flow.jet
        grid = CollarGrid(0.2, 16, 8)  # outside an operation: not recorded
        u = sample_map(grid, TargetSpec.flat_torus(dim=1),
                       lambda s, t: np.sin(t)[..., None])
        assert len(tracer) == 0
        tracer.op_id = 7
        flow.pinned_tension(u)
        CollarGrid(0.2, 16, 8)
        tracer.op_id = None
    assert fields.jet is original_jet and flow.jet is original_jet
    assert CollarGrid.__init__ is original_init
    assert tracer.name == ["flow.pinned_tension", "fields.tension", "fields.jet",
                           "geometry.CollarGrid"]
    assert tracer.parent == [-1, 0, 1, -1]
    assert set(tracer.op) == {7}
    assert tr.within(tracer, "flow.pinned_tension") == [False, True, True, False]
    funcs = tr.per_function(tracer)
    assert funcs["fields.jet"]["calls"] == 1
    assert funcs["flow.pinned_tension"]["total_s"] >= funcs["fields.tension"]["total_s"]


def test_patched_restores_after_an_exception():
    from collarflow import fields

    original = fields.jet
    with pytest.raises(RuntimeError):
        with tr.patched(tr.Tracer()):
            raise RuntimeError("boom")
    assert fields.jet is original
