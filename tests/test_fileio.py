import os
import stat

import pytest
from hypothesis import given, strategies as st

from ddsi.errors import MalformedLine
from ddsi.fileio import atomic_open, float_cell, int_cell, read_lines


def test_atomic_open_replaces_the_file_on_a_clean_exit(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_text("old\n")
    with atomic_open(path) as f:
        f.write("new\n")
        assert path.read_text() == "old\n"
    assert path.read_text() == "new\n"
    with atomic_open(path, "wb") as f:
        f.write(b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


@pytest.mark.parametrize("existing", [True, False])
def test_atomic_open_that_raises_midway_leaves_no_trace(tmp_path, existing):
    path = tmp_path / "out.tsv"
    if existing:
        path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as f:
            f.write("half a file")
            f.flush()
            raise RuntimeError("failed midway")
    assert [p.name for p in tmp_path.iterdir()] == (["out.tsv"] if existing else [])
    if existing:
        assert path.read_text() == "old\n"


def test_atomic_open_creates_files_with_the_umask_mode(tmp_path):
    umask = os.umask(0o022)
    try:
        with atomic_open(tmp_path / "a") as f:
            f.write("x")
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "a").stat().st_mode) == 0o644


@given(st.lists(st.sampled_from(["a", "\n", "\r", "\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\ufeff", "é"])).map("".join))
def test_read_lines_splits_as_a_text_mode_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("lines") / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as f:
        assert read_lines(path) == list(f)


@pytest.mark.parametrize("blob, lineno", [
    (b"\xff", 1),
    (b"a\nb\xe2\x82\n", 2),
    (b"a\r\nb\rc\n\n\xc0\x80", 5),
])
def test_read_lines_names_the_line_of_the_first_bad_byte(tmp_path, blob, lineno):
    path = tmp_path / "f.txt"
    path.write_bytes(blob)
    with pytest.raises(MalformedLine) as exc:
        read_lines(path)
    assert exc.value.lineno == lineno


@given(st.integers(min_value=0))
def test_int_cell_reads_digits_and_nothing_signed(n):
    assert int_cell(str(n)) == n
    for signed in (f"+{n}", f"-{n}"):
        with pytest.raises(ValueError, match="plain ASCII integer"):
            int_cell(signed)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_cell_reads_every_finite_float_as_written(x):
    # the writers' .17g, -0.0 and exponents like 1e+300 included
    assert float_cell(format(x, ".17g")).hex() == x.hex()
