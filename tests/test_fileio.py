import os
import stat

import pytest

from ddsi.fileio import atomic_open


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
