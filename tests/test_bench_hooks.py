"""The traced benchmark wraps ddsi functions by module attribute name.

Installing and removing its hooks here makes a renamed or moved function
fail the test suite, not only a traced benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402


def test_benchmark_hooks_install_and_unwrap():
    from ddsi import cli, kernels, mmr

    before = (kernels.train_pass, mmr.forward, cli.train)
    rec = spans.Recorder()
    layers.install(rec)
    try:
        assert kernels.train_pass is not before[0]
        assert kernels.train_pass.__wrapped__ is before[0]
    finally:
        rec.unwrap_all()
    assert (kernels.train_pass, mmr.forward, cli.train) == before
