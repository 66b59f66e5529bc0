"""Byte-mutation fuzzing of the files `ddsi eval` and `ddsi report` read,
and of run files.

Whatever a mutation does to a corpus, a query file, a checkpoint or a
report, the CLI ends with an exit code: 0 when the file still parses, 1
or 2 when it does not. No exception escapes cli.main. A mutated run file
reads, or metrics.read_run raises a DdsiError.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ddsi.cli import main
from ddsi.errors import DdsiError
from ddsi.metrics import read_run

GEN_TINY = [
    "--topics", "2", "--docs-per-topic", "3", "--vocab-per-topic", "12",
    "--shared-vocab", "6", "--doc-len", "12", "--queries-per-doc", "3",
    "--query-len", "4", "--seed", "3",
]
TARGETS = ["corpus.jsonl", "test.tsv", "checkpoint.bin", "report.tsv"]


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Bytes of the four input files and of the eval's run file, from a
    generate, train and eval."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run_cli(["generate", *GEN_TINY, "--out", str(root / "data")]) == 0
    assert run_cli([
        "train", "--corpus", str(root / "data" / "corpus.jsonl"), "--queries", str(root / "data" / "train.tsv"),
        "--alpha", "0.5", "--k", "3", "--epochs", "1", "--out", str(root / "model"),
    ]) == 0
    assert run_cli([
        "eval", "--checkpoint", str(root / "model" / "checkpoint.bin"), "--corpus", str(root / "data" / "corpus.jsonl"),
        "--queries", str(root / "data" / "test.tsv"), "--cutoff", "6", "--alpha", "0.5", "--out", str(root / "eval"),
    ]) == 0
    paths = {
        "corpus.jsonl": root / "data" / "corpus.jsonl",
        "test.tsv": root / "data" / "test.tsv",
        "checkpoint.bin": root / "model" / "checkpoint.bin",
        "report.tsv": root / "eval" / "report.tsv",
        "run.tsv": root / "eval" / "run.tsv",
    }
    return {name: path.read_bytes() for name, path in paths.items()}


# one to four edits, each overwriting, inserting or deleting one byte
EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete"]), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
    min_size=1, max_size=4,
)


@st.composite
def mutations(draw):
    """A target file and a list of edits."""
    return draw(st.sampled_from(TARGETS)), draw(EDITS)


def mutate(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for kind, where, value in edits:
        pos = int(where * (len(out) + (kind == "insert")))
        if kind == "insert":
            out.insert(pos, value)
        elif out:
            if kind == "set":
                out[pos] = value
            else:
                del out[pos]
    return bytes(out)


def is_utf8(blob: bytes) -> bool:
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(mutations())
def test_mutated_inputs_end_in_an_exit_code(originals, mutation):
    target, edits = mutation
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, blob in originals.items():
            (work / name).write_bytes(mutate(blob, edits) if name == target else blob)
        if target == "report.tsv":
            argv = ["report", str(work / "report.tsv"), "--out", str(work / "merged.tsv")]
        else:
            argv = [
                "eval", "--checkpoint", str(work / "checkpoint.bin"), "--corpus", str(work / "corpus.jsonl"),
                "--queries", str(work / "test.tsv"), "--cutoff", "6", "--out", str(work / "eval"),
            ]
        code = run_cli(argv)
        assert code in (0, 1, 2)
        if target != "checkpoint.bin" and not is_utf8((work / target).read_bytes()):
            assert code == 1


@settings(max_examples=60, deadline=None)
@given(EDITS)
def test_mutated_run_files_read_or_raise_a_ddsi_error(originals, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.tsv"
        path.write_bytes(mutate(originals["run.tsv"], edits))
        try:
            read_run(path)
        except DdsiError:
            return
        assert is_utf8(path.read_bytes())
