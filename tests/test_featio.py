import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pkt import featio, read_features, read_labels, write_features, write_labels

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


def test_bad_token_names_path_line_and_column(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1 2 3\n4 x 6\n")
    with pytest.raises(ValueError, match=r"bad\.txt: line 3, column 2: 'x' is not a number$"):
        read_features(path)


@pytest.mark.parametrize("blank", ["", " ", "\t \r"])
def test_blank_line_among_the_rows_is_rejected(tmp_path, blank):
    path = tmp_path / "f.txt"
    path.write_text(f"3 2\n1 2\n{blank}\n3 4\n5 6\n", newline="")
    with pytest.raises(ValueError, match="line 3 has 0 values, expected 2"):
        read_features(path)


@pytest.mark.parametrize("tail, message", [
    ("5 6\n", "header promises 2 rows, found 3"),
    ("\n5\n", "line 5 has 1 values, expected 2"),
])
def test_rows_after_the_promised_rows_are_rejected(tmp_path, tail, message):
    path = tmp_path / "f.txt"
    path.write_text("2 2\n1 2\n3 4\n" + tail)
    with pytest.raises(ValueError, match=message):
        read_features(path)


@pytest.mark.filterwarnings("error")
def test_header_without_rows_is_rejected_without_a_warning(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("2 2\n")
    with pytest.raises(ValueError, match="header promises 2 rows, found 0"):
        read_features(path)


def test_trailing_blank_lines_are_accepted(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("2 2\n1 2\n3 4\n\n  \n\t\n\n")
    assert np.array_equal(read_features(path), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("sep, end", [(" ", "\r\n"), ("\t", "\n"), ("\x0b", "\n"), (" \t ", "\r\n")])
def test_any_whitespace_separates_values(tmp_path, sep, end):
    path = tmp_path / "f.txt"
    rows = [["1.5", "-2", "3e-3"], ["0", ".5", "1e300"]]
    path.write_text(f"2 3{end}" + "".join(sep.join(r) + end for r in rows), newline="")
    assert read_features(path).tobytes() == np.array(rows, dtype=float).tobytes()


def test_tokens_only_float_accepts_read_like_float(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("1 3\n1_0 ١ ２.5\n", encoding="utf-8")
    assert np.array_equal(read_features(path), [[10.0, 1.0, 2.5]])


# Tokens both parsers read the same way, and tokens where they differ or fail.
NUMBERS = st.one_of(
    FINITE_DOUBLES.map(lambda x: "%.17g" % x),
    FINITE_DOUBLES.map(repr),
    st.sampled_from([".5", "1.", "+.5e-3", "-0", "5e-325", "1E5"]),
)
ODD_TOKENS = st.one_of(
    st.sampled_from(["1_0", "١", "１", "inf", "-inf", "nan", "1e400", "1e", "x", "0x10", "1,5", "--1", "1.0j"]),
    st.text(alphabet="0123456789.e+-_x", min_size=1, max_size=5),
)
BLANKS = st.sampled_from(["", " ", "\t"])


@st.composite
def token_files(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [draw(st.lists(NUMBERS, min_size=d, max_size=d)) for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, d - 1))] = draw(ODD_TOKENS)
    lines = []
    for toks in rows:
        seps = draw(st.lists(st.sampled_from([" ", "  ", "\t"]), min_size=d - 1, max_size=d - 1))
        lines.append("".join(t + s for t, s in zip(toks, seps + [""])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANKS))
    lines += draw(st.lists(BLANKS, max_size=2))
    hn = n + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    hd = d + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    return f"{hn} {hd}{end}" + "".join(line + end for line in lines)


def read_or_message(reader, path):
    try:
        return reader(path).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=token_files())
def test_streamed_read_equals_the_line_loop(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert read_or_message(read_features, path) == read_or_message(featio._read_by_lines, path)


@settings(max_examples=80, deadline=None)
@given(feats=hnp.arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                        elements=st.one_of(FINITE_DOUBLES, st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))))
def test_written_bytes_equal_the_per_value_format(feats):
    expected = f"{feats.shape[0]} {feats.shape[1]}\n" + "".join(
        " ".join(f"{x:.17g}" for x in row) + "\n" for row in feats)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        write_features(path, feats)
        assert path.read_bytes() == expected.encode()
