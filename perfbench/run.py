#!/usr/bin/env python3
"""End-to-end benchmark of the ddsi walkthrough.

    python3 perfbench/run.py --workload sweep-std --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout. Each round is the README
walkthrough driven in-process through ``ddsi.cli.main``: generate, train
the alpha sweep, eval every checkpoint, an MMR rerank sweep, report.
Every output is then checked independently (see checks.py). Rounds
repeat while another one is expected to end within --seconds; there is
always at least one.

--trace 0 prints the end-to-end metrics, their times taken to the host's
reference speed (see hostspeed.py); the unscaled figures go to standard
error. --trace 1 runs one traced round, prints the per-layer metrics
taken from its spans and counts, and writes the spans to perfbench/out/.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# result sets per eval whose ROUGE-L is recomputed with the textbook LCS,
# and queries per rerank run checked against brute-force MMR
DIVERSITY_SAMPLE = 1
MMR_SAMPLE = 3
# alpha=1 trains after the sweep's own, with seeds n+1, n+2, ...
CE_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    generate: tuple[str, ...]  # flags for `ddsi generate` besides --seed/--out
    alphas: tuple[float, ...]  # one `ddsi train` each
    epochs: int
    train_evals: tuple[float, ...]  # alphas also evaluated on the train queries
    rerank_sets: tuple[str, ...]  # query files the MMR sweep reranks
    lambdas: tuple[float, ...]
    pools: tuple[int, ...]
    setups: int  # set-ups per round; setup_s is their median
    paper_property: bool = False  # check alpha=0.5 against alpha=1


WORKLOADS = {
    w.name: w
    for w in (
        # README walkthrough on the standard corpus: training dominates
        Workload(
            "sweep-std", generate=(), alphas=(1.0, 0.75, 0.5, 0.25), epochs=30,
            train_evals=(1.0, 0.5), rerank_sets=("train", "test"), lambdas=(0.3, 0.5, 0.7), pools=(50, 100),
            setups=15, paper_property=True,
        ),
        # 160-token documents (LCS needs three 64-bit words) and large MMR pools
        Workload(
            "longdoc-mmr", generate=("--doc-len", "160", "--vocab-per-topic", "120"), alphas=(1.0, 0.5, 0.25), epochs=20,
            train_evals=(), rerank_sets=("train", "test"), lambdas=(0.3, 0.7), pools=(100, 200),
            setups=10,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_ce_examples_per_s": "examples/s",
    "train_div_examples_per_s": "examples/s",
    "eval_queries_per_s": "queries/s",
    "rerank_queries_per_s": "queries/s",
    "peak_rss_mb": "MB",
    "mrr10": "ratio",
    "rouge_l_hom": "ratio",
}
# metrics taken to the host's reference speed (see hostspeed.py): times
# are multiplied by the run's scale, rates divided by it
TIMES = ("setup_s", "wall_s")
TIMED = (*TIMES, "train_ce_examples_per_s", "train_div_examples_per_s", "eval_queries_per_s", "rerank_queries_per_s")


class Round:
    """One walkthrough in its own directory; collects timings and problems."""

    def __init__(self, bench: "Bench", index: int, spare_setups: int):
        self.b = bench
        self.w = bench.workload
        self.dir = bench.dir / f"round{index}"
        self.data = self.dir / "data"
        self.spare_setups = spare_setups
        self.setup_times: list[float] = []  # the round's own first
        self.cmd_times: dict[str, list[tuple[float, int]]] = {}
        self.problems: list[str] = []

    def ddsi(self, *argv: str, work: int = 0, kind: str = "") -> bool:
        """Run one CLI command in-process, timing it under kind (default: the
        command); work is the number of examples or queries it processes."""
        from ddsi import cli

        self.b.gauge.sample()
        self.b.attempted += 1
        err = io.StringIO()
        t0 = time.perf_counter()
        with self.b.rec.span("cli." + argv[0]), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self.b.failed += 1
            self.problems.append(f"ddsi {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
            return False
        self.cmd_times.setdefault(kind or argv[0], []).append((elapsed, work))
        return True

    def setup(self, data: Path) -> bool:
        """`ddsi generate` plus the first corpus and query load."""
        from ddsi.corpus import load_corpus, load_queries

        gauge_s = self.b.gauge.spent
        t0 = time.perf_counter()
        ok = self.ddsi("generate", *self.w.generate, "--seed", str(self.b.seed), "--out", str(data))
        if ok:
            with self.b.rec.span("corpus.load_setup"):
                corpus = load_corpus(data / "corpus.jsonl")
                self.n_queries = {s: len(load_queries(data / f"{s}.tsv", corpus)) for s in ("train", "test")}
        self.setup_times.append(time.perf_counter() - t0 - (self.b.gauge.spent - gauge_s))
        return ok

    def walkthrough(self) -> float:
        """generate, then per alpha train -> eval -> rerank sweep, then report.

        Evals and reranks follow their checkpoint rather than all trains,
        so that each rate's samples spread over the round and a slow spell
        of the host does not land on one rate alone. The spare set-ups are
        spread the same way, before each alpha's block and before the
        report, into a directory of their own. Returns wall seconds without
        the spare set-ups and the host speed gauge's reference tasks.
        """
        ddsi_train = importlib.import_module("ddsi.train")  # the package's `train` is the function

        w, data = self.w, self.data
        corpus = str(data / "corpus.jsonl")
        gauge_s = self.b.gauge.spent
        t0 = time.perf_counter()
        self.evaluated, self.reranked, self.histories = [], [], []
        if not self.setup(data):
            return time.perf_counter() - t0
        n_queries = self.n_queries
        blocks = len(w.alphas) + 1
        spares = [self.spare_setups * (i + 1) // blocks - self.spare_setups * i // blocks for i in range(blocks)]

        def spare_setups(n: int) -> None:
            for _ in range(n):
                self.setup(self.dir / "setup")

        def train(a: float, seed: int, out: str) -> bool:
            ddsi_train.reset_diversity_pair_evals()
            ok = self.ddsi(
                "train", "--corpus", corpus, "--queries", str(data / "train.tsv"), "--alpha", repr(a),
                "--k", "10", "--epochs", str(w.epochs), "--seed", str(seed), "--out", str(self.dir / out),
                work=w.epochs * n_queries["train"], kind="train_ce" if a == 1.0 else "train_div",
            )
            if ok and a == 1.0 and ddsi_train.diversity_pair_evals() != 0:
                self.problems.append(f"alpha=1 train ran {ddsi_train.diversity_pair_evals()} diversity pair evaluations")
            return ok

        def evaluate_and_rerank(a: float) -> None:
            ckpt = str(self.dir / f"a{a}" / "checkpoint.bin")
            for qset in ("test", "train") if a in w.train_evals else ("test",):
                if self.ddsi(
                    "eval", "--checkpoint", ckpt, "--corpus", corpus, "--queries", str(data / f"{qset}.tsv"),
                    "--alpha", repr(a), "--dataset", f"{w.name}-{qset}", "--out", str(self.dir / f"e{a}-{qset}"),
                    work=n_queries[qset],
                ):
                    self.evaluated.append((a, qset))
            for qset in w.rerank_sets:
                for lam in w.lambdas:
                    for pool in w.pools:
                        out = self.dir / f"r{a}-{qset}-l{lam}-p{pool}"
                        if self.ddsi(
                            "rerank", "--checkpoint", ckpt, "--corpus", corpus, "--queries", str(data / f"{qset}.tsv"),
                            "--lambda", repr(lam), "--m", "10", "--pool", str(pool), "--out", str(out),
                            work=n_queries[qset],
                        ):
                            self.reranked.append((a, qset, lam, pool, out))

        # alpha=1 again after the sweep's blocks, seeds n+1, n+2, ... spaced
        # evenly, so that the train_ce rate spans the round instead of one
        # block of a few seconds
        repeat_after = {-(-len(w.alphas) * j // CE_REPEATS) - 1: j for j in range(1, CE_REPEATS + 1)}
        for block, (a, n_spare) in enumerate(zip(w.alphas, spares)):
            spare_setups(n_spare)
            if train(a, self.b.seed, f"a{a}"):
                self.histories.append(self.dir / f"a{a}" / "history.tsv")
                evaluate_and_rerank(a)
            if block in repeat_after:
                j = repeat_after[block]
                if train(1.0, self.b.seed + j, f"a1.0-rep{j}"):
                    self.histories.append(self.dir / f"a1.0-rep{j}" / "history.tsv")
        spare_setups(spares[-1])
        reports = [str(self.dir / f"e{a}-test" / "report.tsv") for a, qset in self.evaluated if qset == "test"]
        self.ddsi("report", *reports, "--out", str(self.dir / "report.tsv"))
        wall = time.perf_counter() - t0 - sum(self.setup_times[1:]) - (self.b.gauge.spent - gauge_s)
        self.b.gauge.sample(force=True)  # the host's speed at the round's end
        return wall

    def check(self) -> dict[str, float]:
        """Independent checks of every output; returns the quality metrics."""
        import checks
        from ddsi.model import load_checkpoint

        data = self.data
        corpus = checks.Corpus(checks.read_corpus(data / "corpus.jsonl"))
        queries = {s: checks.read_queries(data / f"{s}.tsv") for s in ("train", "test")}
        rng = random.Random(self.b.seed)
        dims = (corpus.vocab_size, 64, len(corpus.texts))
        encoders = {}
        for history in self.histories:
            ckpt = history.parent / "checkpoint.bin"
            own_dims, arrays = checks.read_checkpoint(ckpt)
            reloaded = load_checkpoint(ckpt).dims
            if own_dims != dims or reloaded != dims:
                self.problems.append(f"{ckpt}: dims {own_dims} / reloaded {reloaded}, expected {dims}")
            encoders[history.parent.name] = checks.Encoder(arrays, corpus)
            self.problems += checks.history_problems(history, self.w.epochs)
        reports = {}
        for a, qset in self.evaluated:
            golds = [g for _, g in queries[qset]]
            sample = rng.sample(range(len(golds)), DIVERSITY_SAMPLE)
            self.problems += checks.eval_problems(self.dir / f"e{a}-{qset}", corpus, golds, sample)
            if qset == "test":
                (reports[a],) = checks.read_report(self.dir / f"e{a}-test" / "report.tsv")
        for a, qset, lam, pool, out in self.reranked:
            run = checks.read_run(out / "run.tsv")
            if sorted(run) != list(range(len(queries[qset]))):
                self.problems.append(f"{out.name}: run covers {len(run)} of {len(queries[qset])} queries")
                continue
            sample = rng.sample(range(len(queries[qset])), MMR_SAMPLE)
            self.problems += checks.mmr_problems(run, encoders[f"a{a}"], queries[qset], sample, lam, 10, pool)
        self.problems += checks.merged_report_problems(self.dir / "report.tsv", reports)
        base, div = reports.get(1.0), reports.get(0.5)
        if base is None or div is None:
            self.problems.append("alpha=1 or alpha=0.5 did not complete")
            return {}
        if self.w.paper_property:
            if not div["rouge_l"] < base["rouge_l"]:
                self.problems.append(f"homogenization at alpha=0.5 ({div['rouge_l']:.4f}) not below alpha=1 ({base['rouge_l']:.4f})")
            if base["hits10"] - div["hits10"] > 0.05:
                self.problems.append(f"Hits@10 at alpha=0.5 ({div['hits10']:.4f}) more than 0.05 below alpha=1 ({base['hits10']:.4f})")
        return {"mrr10": div["mrr10"], "rouge_l_hom": div["rouge_l"]}

    def rates(self, wall: float) -> dict[str, float]:
        def rate(kind):
            rows = self.cmd_times.get(kind, [])
            secs = sum(t for t, _ in rows)
            return sum(n for _, n in rows) / secs if secs > 0 else 0.0

        return {
            "wall_s": wall,
            "train_ce_examples_per_s": rate("train_ce"),
            "train_div_examples_per_s": rate("train_div"),
            "eval_queries_per_s": rate("eval"),
            "rerank_queries_per_s": rate("rerank"),
        }


class Bench:
    def __init__(self, workload: Workload, seed: int):
        import hostspeed
        import spans

        self.workload = workload
        self.seed = seed
        self.dir = OUT / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rec = spans.Recorder()
        self.gauge = hostspeed.Gauge()

    def round(self, index: int, spare_setups: int, traced: bool = False) -> tuple[Round, float, dict[str, float]]:
        r = Round(self, index, spare_setups)
        self.rec.on = traced
        try:
            wall = r.walkthrough()
        finally:
            self.rec.on = False
        t0 = time.perf_counter()
        try:
            quality = r.check()
        except (OSError, ValueError, KeyError) as e:
            r.problems.append(f"outputs could not be checked: {e!r}")
            quality = {}
        self.problems += r.problems
        secs = "  ".join(f"{k} {sum(t for t, _ in v):.2f}" for k, v in r.cmd_times.items())
        print(f"perfbench: round {index}: wall {wall:.2f} s = setup {r.setup_times[0]:.2f}  {secs}; "
              f"checks {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        return r, wall, quality

    def end_to_end(self, seconds: float) -> dict[str, float]:
        """Rounds for about `seconds`; medians over rounds, at the reference
        speed of the host (see hostspeed.py)."""
        start = time.perf_counter()
        samples: dict[str, list[float]] = {}
        setups: list[float] = []
        index = 0
        while True:
            round_start = time.perf_counter()
            r, wall, quality = self.round(index, self.workload.setups - 1)
            setups += r.setup_times
            for key, value in {**r.rates(wall), **quality}.items():
                samples.setdefault(key, []).append(value)
            index += 1
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        metrics["setup_s"] = statistics.median(setups)
        scale = self.gauge.scale()
        print("perfbench: unscaled: " + "  ".join(f"{k} {metrics[k]:.5g}" for k in TIMED)
              + f"; host {self.gauge.mean() * 1e3:.2f} ms per reference task ({len(self.gauge.times)} tasks),"
              f" scale {scale:.4f}", file=sys.stderr)
        for key in TIMED:
            metrics[key] = metrics[key] * scale if key in TIMES else metrics[key] / scale
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics

    def traced(self) -> dict[str, float]:
        """One traced round; per-layer metrics from its spans and counts."""
        import layers
        import spans

        layers.install(self.rec)
        try:
            _, wall, _ = self.round(0, 0, traced=True)
        finally:
            self.rec.unwrap_all()
        metrics, breakdown = layers.metrics(self.rec)
        cost = spans.span_cost()
        # at the reference speed, like the untraced wall_s it is set against
        metrics["trace.wall_s"] = wall * self.gauge.scale()
        metrics["trace.span_cost_us"] = cost * 1e6
        metrics["trace.span_overhead_pct"] = 100.0 * cost * len(self.rec.spans) / wall
        self.problems += spans.uncovered_problems(breakdown)
        self.rec.dump(
            OUT / f"trace-{self.workload.name}-s{self.seed}.json",
            {"workload": self.workload.name, "seed": self.seed, "commands": breakdown, "metrics": metrics},
        )
        return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy is not imported yet. Multi-threaded OpenBLAS on a small shared
    # machine sometimes stalls every small matmul for a scheduler slice
    # (16 ms instead of 0.3 ms) for a whole process; one thread is also the
    # faster choice at this program's matrix sizes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "ddsi" / "cli.py").is_file():
        print(f"perfbench: no ddsi sources at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ddsi

    if Path(ddsi.__file__).resolve().parent != (SRC / "ddsi").resolve():
        print(f"perfbench: imported ddsi from {ddsi.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        metrics = bench.traced() if args.trace else bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    import layers

    units = layers.UNITS if args.trace else END_TO_END_UNITS
    for problem in bench.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
