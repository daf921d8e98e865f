import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pkt import read_features, read_labels, write_features, write_labels

# Every finite double, with the edge cases drawn often: signed zeros, the
# smallest subnormals and values near the largest double.
FINITE_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def test_feature_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(12, 4)) * np.logspace(-12, 12, 4)
    path = tmp_path / "f.txt"
    write_features(path, feats)
    assert path.read_text().splitlines()[0] == "12 4"
    assert np.array_equal(read_features(path), feats)


@settings(max_examples=80, deadline=None)
@given(feats=hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=FINITE_DOUBLES))
def test_feature_round_trip_is_bitwise_exact_on_drawn_doubles(feats):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        write_features(path, feats)
        assert read_features(path).tobytes() == feats.tobytes()


def test_feature_single_row(tmp_path):
    path = tmp_path / "one.txt"
    write_features(path, np.array([[1.5, -2.5]]))
    back = read_features(path)
    assert back.shape == (1, 2)
    assert back[0, 1] == -2.5


def test_feature_header_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2\n")
    with pytest.raises(ValueError):
        read_features(path)
    path.write_text("a b\n")
    with pytest.raises(ValueError):
        read_features(path)
    path.write_text("0 2\n")
    with pytest.raises(ValueError):
        read_features(path)


def test_feature_body_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n3\n")
    with pytest.raises(ValueError):
        read_features(path)
    path.write_text("3 2\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        read_features(path)
    path.write_text("1 2\n1 nan\n")
    with pytest.raises(ValueError):
        read_features(path)


def test_label_round_trip(tmp_path):
    path = tmp_path / "l.txt"
    write_labels(path, [3, 0, 0, 7])
    assert np.array_equal(read_labels(path), np.array([3, 0, 0, 7]))


def test_label_errors(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("1\n-2\n")
    with pytest.raises(ValueError):
        read_labels(path)
    path.write_text("1\nx\n")
    with pytest.raises(ValueError):
        read_labels(path)
    path.write_text("")
    with pytest.raises(ValueError):
        read_labels(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_features(tmp_path / "absent.txt")
    with pytest.raises(OSError):
        read_labels(tmp_path / "absent.txt")
