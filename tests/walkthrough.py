"""A short README walkthrough driven through ``ddsi.cli.main``, and the
sha256 of every data file it writes.

generate; train at alpha 1 and 0.5; eval each checkpoint on the test and
the train queries; rerank each on the test queries at pool 50 and at
pool = N; ``report --out`` over the evals. Manifests hold paths, so
they are left out of the digests.
"""

import hashlib
from pathlib import Path

from ddsi.cli import main

ALPHAS = ("1.0", "0.5")


def run_walkthrough(root: Path, generate_flags=(), epochs: int = 3) -> dict[str, str]:
    """Run the walkthrough under root; return {path under root: sha256}."""
    data = root / "data"
    corpus = data / "corpus.jsonl"

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, f"ddsi {' '.join(map(str, argv))} failed"

    run("generate", *generate_flags, "--seed", 7, "--out", data)
    num_docs = corpus.read_bytes().count(b"\n")
    reports = []
    for alpha in ALPHAS:
        model = root / f"a{alpha}"
        ckpt = model / "checkpoint.bin"
        run("train", "--corpus", corpus, "--queries", data / "train.tsv", "--alpha", alpha,
            "--epochs", epochs, "--seed", 7, "--out", model)
        for qset in ("test", "train"):
            out = model / f"eval-{qset}"
            run("eval", "--checkpoint", ckpt, "--corpus", corpus, "--queries", data / f"{qset}.tsv",
                "--alpha", alpha, "--dataset", qset, "--out", out)
            reports.append(out / "report.tsv")
        for pool in (50, num_docs):
            run("rerank", "--checkpoint", ckpt, "--corpus", corpus, "--queries", data / "test.tsv",
                "--pool", pool, "--out", model / f"rerank-{pool}")
    run("report", *reports, "--out", root / "report.tsv")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }
