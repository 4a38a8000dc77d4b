"""Tests for the shared-memory array pool (allocation, attach, hygiene)."""

import pickle

import numpy as np

from repro.parallel.shm import (
    SEGMENT_PREFIX,
    SharedArrayPool,
    attach_array,
    leaked_segments,
)

from tests.parallel import own_segments


def _arrays():
    rng = np.random.default_rng(7)
    return {
        "A": rng.standard_normal((5, 7)),
        "B": np.arange(12, dtype=np.int64).reshape(3, 4),
        "c": rng.standard_normal(9),
    }


class TestSharedArrayPool:
    def test_views_mirror_source_data(self):
        arrays = _arrays()
        with SharedArrayPool(arrays) as pool:
            for name, arr in arrays.items():
                assert pool.views[name].dtype == arr.dtype
                assert np.array_equal(pool.views[name], arr)

    def test_copy_back_round_trips_mutations(self):
        arrays = _arrays()
        dest = {k: v.copy() for k, v in arrays.items()}
        with SharedArrayPool(arrays) as pool:
            pool.views["A"][...] = 42.0
            pool.copy_back(dest)
        assert np.all(dest["A"] == 42.0)
        assert np.array_equal(dest["B"], arrays["B"])

    def test_attach_sees_parent_writes(self):
        arrays = _arrays()
        with SharedArrayPool(arrays) as pool:
            spec = next(s for s in pool.specs() if s.name == "A")
            view, shm = attach_array(spec)
            try:
                pool.views["A"][0, 0] = -123.0
                assert view[0, 0] == -123.0
                view[1, 1] = 7.5  # and the other direction
                assert pool.views["A"][1, 1] == 7.5
            finally:
                del view
                shm.close()

    def test_specs_are_picklable(self):
        with SharedArrayPool(_arrays()) as pool:
            specs = pickle.loads(pickle.dumps(pool.specs()))
        assert [s.name for s in specs] == ["A", "B", "c"]

    def test_segments_use_our_prefix_and_unlink_on_close(self):
        arrays = _arrays()
        pool = SharedArrayPool(arrays)
        names = [s.segment for s in pool.specs()]
        assert all(n.startswith(SEGMENT_PREFIX) for n in names)
        assert leaked_segments(names) == sorted(names)
        pool.close()
        assert leaked_segments(names) == []

    def test_close_is_idempotent(self):
        pool = SharedArrayPool(_arrays())
        pool.close()
        pool.close()  # must not raise
        assert pool.views == {}

    def test_non_contiguous_input_is_copied(self):
        base = np.arange(24, dtype=float).reshape(4, 6)
        strided = base[:, ::2]  # non-contiguous view
        with SharedArrayPool({"S": strided}) as pool:
            assert np.array_equal(pool.views["S"], strided)
            assert pool.views["S"].flags["C_CONTIGUOUS"]

    def test_no_global_leaks_after_suite_style_usage(self):
        for _ in range(3):
            with SharedArrayPool(_arrays()):
                pass
        assert own_segments() == []
