"""Command-line surface: generate, train, eval, rerank, report.

Every command materializes its full configuration, hashes its inputs,
and writes a manifest.json next to its outputs, so any run can be
audited and replayed. All state flows through flags; identical flags
over identical inputs produce bitwise-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, metrics
from .corpus import SyntheticConfig, generate_synthetic, load_corpus, load_queries, save_corpus, save_queries
from .errors import ConfigError, DdsiError, InvalidConfig, ShapeMismatch
from .fileio import atomic_open
from .mmr import MmrConfig, retrieve_then_rerank
from .model import load_checkpoint, save_checkpoint
from .train import TrainConfig, train, write_history


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    with atomic_open(path) as f:
        f.write(text)


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int | None, inputs: list[Path], outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    _atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _out_dir(arg: str) -> Path:
    path = Path(arg)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_params(path: str, corpus):
    params = load_checkpoint(path)
    if (params.vocab_size, params.num_docs) != (corpus.vocab.size, corpus.num_docs):
        raise ShapeMismatch(f"{path}: checkpoint dims {params.dims} do not fit V={corpus.vocab.size}, N={corpus.num_docs}")
    return params


def _config(cls, args):
    """The validated config dataclass cls, each field read from the flag whose dest is its name."""
    cfg = cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
    cfg.validate()
    return cfg


def cmd_generate(args) -> int:
    cfg = _config(SyntheticConfig, args)
    corpus, train_q, test_q = generate_synthetic(cfg)
    for name, split in (("train", train_q), ("test", test_q)):
        if not split:
            raise InvalidConfig(f"the {name} query set is empty (about one query in five is a test query); "
                                "raise --queries-per-doc, --docs-per-topic or --topics")
    out = _out_dir(args.out)
    corpus_path, train_path, test_path = out / "corpus.jsonl", out / "train.tsv", out / "test.tsv"
    save_corpus(corpus, corpus_path)
    save_queries(train_q, train_path)
    save_queries(test_q, test_path)
    _write_manifest(out, "generate", asdict(cfg), cfg.seed, [], [corpus_path, train_path, test_path])
    print(f"wrote {corpus.num_docs} docs, {len(train_q)} train / {len(test_q)} test queries to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config(TrainConfig, args)
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries, corpus)
    params, history = train(corpus, queries, cfg)
    out = _out_dir(args.out)
    ckpt_path, hist_path = out / "checkpoint.bin", out / "history.tsv"
    save_checkpoint(params, ckpt_path)
    write_history(history, hist_path)
    _write_manifest(out, "train", asdict(cfg), cfg.seed, [Path(args.corpus), Path(args.queries)], [ckpt_path, hist_path])
    final = history[-1]
    print(f"trained {cfg.epochs} epochs: ce={final.ce:.4f} diversity={final.diversity:.4f} train_hits1={final.train_hits1:.4f}")
    return 0


def cmd_eval(args) -> int:
    if args.alpha is not None and not math.isfinite(args.alpha):
        raise InvalidConfig(f"--alpha {args.alpha} is not finite, which report.tsv cannot hold")
    dataset = args.dataset if args.dataset else Path(args.corpus).stem
    if any(c in dataset for c in "\t\n\r"):
        raise InvalidConfig(f"dataset label {dataset!r} holds a tab or line break, which report.tsv cannot hold")
    corpus = load_corpus(args.corpus)
    # the report's Hits@5, Hits@10 and MRR@10 need a run at least that deep
    if args.cutoff < min(10, corpus.num_docs):
        raise InvalidConfig(f"--cutoff {args.cutoff} is below min(10, N={corpus.num_docs})")
    if args.cutoff > corpus.num_docs:
        raise InvalidConfig(f"--cutoff {args.cutoff} exceeds N={corpus.num_docs}")
    queries = load_queries(args.queries, corpus)
    params = _load_params(args.checkpoint, corpus)
    run = metrics.run_queries(params, queries, args.cutoff)
    report = metrics.report_from_run(run, corpus)
    out = _out_dir(args.out)
    report_path, table_path, run_path = out / "report.tsv", out / "report.txt", out / "run.tsv"
    row = metrics.write_report_tsv(report, report_path, dataset=dataset, alpha=args.alpha)
    table = metrics.format_report_table([row])
    _atomic_write_text(table_path, table)
    metrics.write_run(run.rankings, run_path)
    config = {"cutoff": args.cutoff, "alpha": args.alpha, "dataset": dataset}
    _write_manifest(out, "eval", config, None, [Path(args.checkpoint), Path(args.corpus), Path(args.queries)], [report_path, table_path, run_path])
    print(table, end="")
    return 0


def cmd_rerank(args) -> int:
    cfg = _config(MmrConfig, args)
    corpus = load_corpus(args.corpus)
    if cfg.pool > corpus.num_docs:
        raise InvalidConfig(f"--pool {cfg.pool} exceeds N={corpus.num_docs}")
    queries = load_queries(args.queries, corpus)
    params = _load_params(args.checkpoint, corpus)
    rankings = retrieve_then_rerank(params, queries, cfg)
    out = _out_dir(args.out)
    run_path = out / "run.tsv"
    metrics.write_run(rankings, run_path)
    config = {"lambda": cfg.lambda_, "m": cfg.m, "pool": cfg.pool}
    _write_manifest(out, "rerank", config, None, [Path(args.checkpoint), Path(args.corpus), Path(args.queries)], [run_path])
    print(f"reranked {len(rankings)} queries into {run_path}")
    return 0


def cmd_report(args) -> int:
    rows = []
    for path in args.reports:
        rows.extend(metrics.read_report_tsv(path))
    table = metrics.format_report_table(rows)
    if args.out:
        _atomic_write_text(Path(args.out), metrics.report_tsv(metrics.sort_report_rows(rows)))
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddsi", description="Train and evaluate a diversity-aware docid classifier.")
    parser.add_argument("--version", action="version", version=f"ddsi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a clustered corpus with queries")
    p.add_argument("--topics", dest="num_topics", metavar="TOPICS", type=int)
    p.add_argument("--docs-per-topic", type=int)
    p.add_argument("--vocab-per-topic", type=int)
    p.add_argument("--shared-vocab", type=int)
    p.add_argument("--doc-len", type=int)
    p.add_argument("--queries-per-doc", type=int)
    p.add_argument("--query-len", type=int)
    p.add_argument("--near-dup", dest="near_duplicate_fraction", metavar="NEAR_DUP", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate, **asdict(SyntheticConfig()))

    p = sub.add_parser("train", help="train a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--optimizer", choices=("sgd", "adam"))
    p.add_argument("--dim", type=int, help="embedding and hidden width")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train, **asdict(TrainConfig()))

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--cutoff", type=int, default=10)
    p.add_argument("--alpha", type=float, default=None, help="label recorded in the report")
    p.add_argument("--dataset", default="", help="label recorded in the report (default: corpus stem)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rerank", help="MMR-rerank model retrievals")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--lambda", dest="lambda_", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--pool", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rerank, **asdict(MmrConfig()))

    p = sub.add_parser("report", help="merge eval reports into one table")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", default=None, help="also write the merged rows as TSV")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"ddsi {args.command}: invalid configuration: {e}", file=sys.stderr)
        return 2
    except (DdsiError, OSError) as e:
        print(f"ddsi {args.command}: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
