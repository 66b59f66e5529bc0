"""Where the traced run wraps ddsi, and the per-layer metrics it derives.

Each wrapper sits on the module attribute the caller looks up: ``cli``
imports ``train`` and the corpus/checkpoint helpers by name, ``train``
imports ``init_model``/``batch_logits`` by name and calls
``kernels.train_pass`` and its own ``step``/``backward`` as globals, and
``metrics``/``mmr`` call their helpers as globals. The ``rng`` module
is covered by ``model.init_model`` (its draws) and ``model.shuffle`` (the
epoch permutations train() makes).
"""

from __future__ import annotations

import importlib
from collections import Counter

import spans


def _train_pass_name(args, kwargs) -> str:
    # train._run_pass passes (embed, ..., tok, lengths, golds, k, alpha) positionally
    return "kernels.train_pass_ce" if args[9] == 1.0 else "kernels.train_pass_div"


def _count_train_pass(counts, args, kwargs, result) -> None:
    counts["train.batches"] += 1
    counts["train.examples"] += int(args[5].shape[0])
    counts["train.diversity_pair_evals"] += int(result[2])


def _count_lcs(counts, args, kwargs, result) -> None:
    _, lengths, pa, pb = args
    counts["kernels.lcs_pairs"] += int(len(pa))
    counts["kernels.lcs_cells"] += int((lengths[pa] * lengths[pb]).sum())


def _count_candidates(counts, args, kwargs, result) -> None:
    counts["mmr.candidates"] += len(args[1])


def install(rec: spans.Recorder) -> None:
    from ddsi import cli, kernels, metrics, mmr

    train = importlib.import_module("ddsi.train")  # the package's `train` is the function

    rec.wrap(cli, "generate_synthetic", "corpus.generate")
    rec.wrap(cli, "save_corpus", "corpus.save")
    rec.wrap(cli, "save_queries", "corpus.save")
    rec.wrap(cli, "load_corpus", "corpus.load_corpus")
    rec.wrap(cli, "load_queries", "corpus.load_queries")
    rec.wrap(cli, "train", "train.train")
    rec.wrap(cli, "write_history", "train.write_history")
    for attr in ("save_checkpoint", "load_checkpoint"):
        rec.wrap(cli, attr, "model.checkpoint_io")
    rec.wrap(cli, "retrieve_then_rerank", "mmr.retrieve_then_rerank")

    rec.wrap(train, "init_model", "model.init_model")
    rec.wrap(train, "batch_logits", "model.batch_logits")
    rec.wrap(train, "backward", "train.backward")
    rec.wrap(train, "step", "train.step")
    rec.wrap(kernels, "train_pass", _train_pass_name, _count_train_pass)
    rec.wrap(kernels, "lcs_lengths_pairs", "kernels.lcs", _count_lcs)

    class TracedRng(train.Xoshiro256StarStar):
        def shuffle(self, items):
            with rec.span("model.shuffle"):
                super().shuffle(items)

    rec.patch(train, "Xoshiro256StarStar", TracedRng)

    for attr in ("run_queries", "report_from_run", "homogenization", "ngd", "compression_ratio",
                 "write_report_tsv", "read_report_tsv", "format_report_table", "write_run"):
        rec.wrap(metrics, attr, "metrics." + attr)
    rec.wrap(metrics, "batch_logits", "model.batch_logits")
    rec.wrap(metrics, "top_k", "model.top_k")

    rec.wrap(mmr, "forward", "mmr.forward")
    rec.wrap(mmr, "top_k", "model.top_k")
    rec.wrap(mmr, "encode_query", "model.encode_query")
    rec.wrap(mmr, "mmr_rerank", "mmr.mmr_rerank", _count_candidates)


PER_CALL = {
    "kernels.train_pass_ce_ms": ("kernels.train_pass_ce", "ms/batch"),
    "kernels.train_pass_div_ms": ("kernels.train_pass_div", "ms/batch"),
    "train.step_ms": ("train.step", "ms/batch"),
    "mmr.forward_ms": ("mmr.forward", "ms/query"),
    "mmr.mmr_rerank_ms": ("mmr.mmr_rerank", "ms/query"),
}

TOTALS = {
    "corpus.generate_s": ("corpus.generate",),
    "corpus.load_s": ("corpus.load_corpus", "corpus.load_queries"),
    "model.init_model_s": ("model.init_model",),
    "model.batch_logits_s": ("model.batch_logits",),
    "model.checkpoint_io_s": ("model.checkpoint_io",),
    "kernels.lcs_s": ("kernels.lcs",),
    "metrics.run_queries_s": ("metrics.run_queries",),
    "metrics.homogenization_s": ("metrics.homogenization",),
    "metrics.ngd_s": ("metrics.ngd",),
    "metrics.compression_ratio_s": ("metrics.compression_ratio",),
    "cli.generate_s": ("cli.generate",),
    "cli.train_s": ("cli.train",),
    "cli.eval_s": ("cli.eval",),
    "cli.rerank_s": ("cli.rerank",),
    "cli.report_s": ("cli.report",),
}

COUNTS = ("train.batches", "train.examples", "train.diversity_pair_evals",
          "kernels.lcs_pairs", "kernels.lcs_cells", "mmr.candidates")

LAYERS = ("cli", "corpus", "model", "kernels", "train", "metrics", "mmr")

UNITS: dict[str, str] = {}
for _name, (_, _unit) in PER_CALL.items():
    UNITS[_name] = _unit
    UNITS[_name + ".tail"] = _unit
    UNITS[_name + ".n"] = "count"
UNITS.update({name: "s" for name in TOTALS})
UNITS.update({name: "count" for name in COUNTS})
UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
UNITS["trace.spans"] = "count"
UNITS["trace.wall_s"] = "s"
UNITS["trace.span_cost_us"] = "us"
UNITS["trace.span_overhead_pct"] = "%"


def metrics(rec: spans.Recorder) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics of a traced round, and its per-command breakdown."""
    out: dict[str, float] = {}
    for name, (span, _) in PER_CALL.items():
        stats = spans.per_call(spans.durations(rec, span))
        out[name] = stats["median"]
        out[name + ".tail"] = stats["tail"]
        out[name + ".n"] = stats["n"]
    for name, span_names in TOTALS.items():
        out[name] = spans.total(rec, *span_names)
    for name in COUNTS:
        out[name] = rec.counts[name]
    own = Counter()
    for s, t in zip(rec.spans, rec.self_times()):
        own[spans.layer_of(s[0])] += t
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own[layer]
    out["trace.spans"] = len(rec.spans)
    return out, spans.command_breakdown(rec)
