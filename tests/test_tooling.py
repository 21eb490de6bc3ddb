"""The test and benchmark tooling itself: failure reporting under the
repo's pytest configuration, and the benchmark build cache."""

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_failing_property_reports_falsifying_example(tmp_path):
    """Under ``pyproject.toml``'s warning filters a failing hypothesis
    property is reported as a failure with its falsifying example, not
    as an INTERNALERROR from the reporting hook's imports."""
    test = tmp_path / "test_property.py"
    test.write_text(
        textwrap.dedent(
            """
            from hypothesis import given
            from hypothesis import strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 0
            """
        )
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", os.path.join(ROOT, "pyproject.toml"),
            "--rootdir", str(tmp_path), str(test),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out


@pytest.mark.parametrize(
    "payload",
    [
        b"crepro.core.square_lut\nSquareTermCache\n)\x81.",  # class gone
        b"crepro.utils.cast_cache\nCastCache\n)\x81.",  # module gone
        b"\x80\x04\x95",  # truncated
    ],
)
def test_unreadable_cache_entry_is_rebuilt(tmp_path, monkeypatch, capsys, payload):
    """``benchmarks.common.cached`` treats an entry it cannot unpickle
    as a miss: it rebuilds and overwrites it and names the tag."""
    from benchmarks import common

    monkeypatch.setattr(common, "CACHE_DIR", str(tmp_path))
    (tmp_path / "entry.pkl").write_bytes(payload)
    assert common.cached("entry", lambda: {"rebuilt": 1}) == {"rebuilt": 1}
    assert "entry" in capsys.readouterr().err
    with open(tmp_path / "entry.pkl", "rb") as f:
        assert pickle.load(f) == {"rebuilt": 1}
    assert common.cached("entry", lambda: {"rebuilt": 2}) == {"rebuilt": 1}
