import numpy as np
import pytest

import json
import signal

from repro.ann.ivfpq import SearchResult
from repro.core.config import EngineConfig
from repro.core.params import IndexParams, SearchParams
from repro.core.serving import BatchingPolicy, replay
from repro.utils import (
    check_2d,
    check_count,
    check_dtype,
    check_finite,
    check_operands,
    check_positive,
    check_same_dim,
)


class TestCheck2d:
    def test_passes_2d(self):
        a = np.zeros((3, 4))
        assert check_2d(a, "a") is a

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            check_2d(np.zeros(3), "a")

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="a must be 2-D"):
            check_2d(np.zeros((2, 2, 2)), "a")

    def test_converts_lists(self):
        out = check_2d([[1, 2], [3, 4]], "a")
        assert out.shape == (2, 2)


class TestCheckDtype:
    def test_accepts_matching(self):
        a = np.zeros(3, dtype=np.uint8)
        assert check_dtype(a, "uint8", "a") is a

    def test_accepts_one_of_many(self):
        a = np.zeros(3, dtype=np.float32)
        check_dtype(a, ["uint8", "float32"], "a")

    def test_rejects_mismatch(self):
        with pytest.raises(TypeError, match="dtype"):
            check_dtype(np.zeros(3, dtype=np.int64), "uint8", "a")


class TestCheckPositive:
    def test_positive_ok(self):
        assert check_positive(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_nonpositive_raises(self, bad):
        with pytest.raises(ValueError, match="must be > 0"):
            check_positive(bad, "x")


class TestCheckCount:
    """``batch_size`` is a count: malformed values are rejected by name
    at both round-size boundaries, never truncated or coerced."""

    BAD = [
        pytest.param(0, ValueError, id="zero"),
        pytest.param(-2, ValueError, id="negative"),
        pytest.param(2.5, TypeError, id="fraction"),
        pytest.param(4.0, TypeError, id="integral-float"),
        pytest.param(float("nan"), TypeError, id="nan"),
        pytest.param(True, TypeError, id="bool"),
        pytest.param("8", TypeError, id="str"),
    ]

    @pytest.mark.parametrize("bad, exc", BAD)
    @pytest.mark.parametrize(
        "owner", [SearchParams, BatchingPolicy], ids=lambda c: c.__name__
    )
    def test_malformed_batch_size_rejected(self, owner, bad, exc):
        with pytest.raises(exc, match="batch_size"):
            owner(batch_size=bad)

    def test_valid_counts(self):
        assert check_count(3, "n") == 3
        assert check_count(np.int64(3), "n") == 3
        assert check_count(None, "n", optional=True) is None
        assert SearchParams(batch_size=None).batch_size is None
        assert BatchingPolicy(batch_size=1).batch_size == 1
        with pytest.raises(TypeError, match="batch_size"):
            BatchingPolicy(batch_size=None)


_INDEX = dict(nlist=8, nprobe=2, k=10, num_subspaces=4, codebook_size=16)

NAN = float("nan")


def _index(**kw):
    return IndexParams(**{**_INDEX, **kw})


_MISSING = object()


def _from_dict(**override):
    """``EngineConfig.from_dict`` of a valid saved config with top-level
    keys overridden (``_MISSING`` deletes one)."""
    d = json.loads(json.dumps(EngineConfig(index=_index()).to_dict()))
    for key, value in override.items():
        if value is _MISSING:
            del d[key]
        else:
            d[key] = value
    return EngineConfig.from_dict(d)


def _scheduler_dict(**fields):
    """``_from_dict`` whose saved scheduler dict holds ``fields``."""
    return _from_dict(scheduler=fields)


class TestFieldValidation:
    """Config counts go through ``check_count`` and float knobs reject
    NaN (``not x > 0``), each error naming its field."""

    BAD = [
        pytest.param(_index, "k", 2.5, TypeError, id="k-fraction"),
        pytest.param(_index, "k", 0, ValueError, id="k-zero"),
        pytest.param(_index, "nlist", 8.0, TypeError, id="nlist-float"),
        pytest.param(_index, "nlist", -1, ValueError, id="nlist-negative"),
        pytest.param(_index, "nprobe", True, TypeError, id="nprobe-bool"),
        pytest.param(_index, "nprobe", "2", TypeError, id="nprobe-str"),
        pytest.param(_index, "nprobe", 9, ValueError, id="nprobe-above-nlist"),
        pytest.param(_index, "num_subspaces", NAN, TypeError, id="m-nan"),
        pytest.param(_index, "codebook_size", 16.0, TypeError, id="cb-float"),
        pytest.param(_index, "codebook_size", 1, ValueError, id="cb-one"),
        pytest.param(SearchParams, "nprobe_min", 2.5, TypeError, id="nprobe-min-fraction"),
        pytest.param(SearchParams, "nprobe_min", True, TypeError, id="nprobe-min-bool"),
        pytest.param(SearchParams, "adaptive_gap", NAN, ValueError, id="gap-nan"),
        pytest.param(SearchParams, "adaptive_gap", 0.0, ValueError, id="gap-zero"),
        pytest.param(BatchingPolicy, "max_wait_s", NAN, ValueError, id="wait-nan"),
        pytest.param(BatchingPolicy, "deadline_s", NAN, ValueError, id="deadline-nan"),
        pytest.param(BatchingPolicy, "deadline_s", 0.0, ValueError, id="deadline-0"),
        pytest.param(_from_dict, "index", _MISSING, ValueError, id="no-index"),
        pytest.param(_from_dict, "serach", {}, ValueError, id="unknown-key"),
        pytest.param(_from_dict, "use_opq", "false", TypeError, id="opq-str"),
        # Eq. 15's task costs come from the index shape, not the config.
        pytest.param(
            _scheduler_dict, "lut_latency", 5000.0, TypeError, id="scheduler-cost"
        ),
    ]

    @pytest.mark.parametrize("make, field, bad, exc", BAD)
    def test_malformed_field_rejected(self, make, field, bad, exc):
        with pytest.raises(exc, match=field):
            make(**{field: bad})

    def test_valid_fields(self):
        p = _index(nlist=np.int64(8), nprobe=8, codebook_size=2)
        assert (p.nlist, p.nprobe, p.codebook_size) == (8, 8, 2)
        assert BatchingPolicy(max_wait_s=0.0, deadline_s=1e-3).deadline_s == 1e-3

    def test_wram_reserve_is_not_a_knob(self):
        """The WRAM reserve is one module constant: a config or saved
        dict naming ``wram_reserve_bytes`` fails loudly."""
        with pytest.raises(TypeError, match="wram_reserve_bytes"):
            SearchParams(wram_reserve_bytes=0)
        saved = EngineConfig(index=_index()).to_dict()
        old = json.loads(json.dumps(saved))
        old["search"]["wram_reserve_bytes"] = 8192
        with pytest.raises(TypeError, match="wram_reserve_bytes"):
            EngineConfig.from_dict(old)


def _alarm(signum, frame):
    raise TimeoutError("replay did not return within its time limit")


class TestReplayArrivals:
    @pytest.mark.parametrize("bad", [NAN, float("inf")])
    def test_non_finite_arrivals_rejected_in_time(self, bad):
        """A NaN passes the sortedness check (``np.diff`` of NaN is
        NaN), and the batching loop then never advances; the alarm
        turns that hang into a failure."""
        queries = np.zeros((4, 2), dtype=np.uint8)
        arrivals = [0.0, bad, 0.002, 0.003]

        def run(members):
            shape = (len(members), 1)
            result = SearchResult(
                ids=np.full(shape, -1), distances=np.full(shape, np.inf)
            )
            return result, 1e-4

        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match="arrivals_s"):
                replay(queries, arrivals, BatchingPolicy(batch_size=2), run, None)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestCheckSameDim:
    def test_matching(self):
        check_same_dim(np.zeros((2, 5)), np.zeros((9, 5)), "a", "b")

    def test_mismatch_raises(self):
        with pytest.raises(ValueError, match="feature dimension"):
            check_same_dim(np.zeros((2, 5)), np.zeros((9, 4)), "a", "b")


class TestCheckOperands:
    def test_matching_integer_dtype_passes_untouched(self):
        a = np.array([[0, 255]], dtype=np.uint8)
        assert check_operands(a, np.uint8, "q") is a

    def test_in_range_wider_dtypes_pass(self):
        check_operands(np.array([[0, 255]], dtype=np.int64), np.uint8, "q")
        check_operands(np.array([[0.0, 255.0]]), np.uint8, "q")

    @pytest.mark.parametrize(
        "arr, match",
        [
            (np.array([[np.nan, 1.0]]), "q must be finite"),
            (np.array([[-np.inf, 1.0]]), "q must be finite"),
            (np.array([[1.5, 1.0]]), "q must hold integer values"),
            (np.array([[256, 1]]), r"q values must lie in \[0, 255\]"),
            (np.array([[-1.0, 1.0]]), r"q values must lie in \[0, 255\]"),
        ],
    )
    def test_rejects(self, arr, match):
        with pytest.raises(ValueError, match=match):
            check_operands(arr, np.uint8, "q")

    def test_non_numeric_rejected(self):
        with pytest.raises(TypeError, match="numeric"):
            check_operands(np.array([["a"]]), np.uint8, "q")

    def test_check_finite_ignores_integers(self):
        a = np.array([1, 2], dtype=np.int64)
        assert check_finite(a, "a") is a
