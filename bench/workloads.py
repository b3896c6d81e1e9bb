"""The four benchmark workloads and the measured run around them.

Every workload is a closed loop with one client: the next operation
starts when the previous one returns. Each drives the library's public
API the way the command line does and checks what it gets back.

* ``corpus``: raw articles -> ``build_corpus`` -> written corpus ->
  ``read_corpus`` -> both vocabularies, once in URI mode and once in
  surface-form-tuple mode. No model code runs.
* ``train-desk``: ``training.train`` on the 480-article demo corpus,
  |X| = 64, GRU, m = 64, batch 10. Batches are small, so time goes to
  Python and the replay tape rather than to GEMMs.
* ``train-wide``: the same articles with ``target_vocab_min_count`` 1
  (every work URI becomes a token, |X| about 541), LSTM, m = 256,
  batch 32. The output projection, the softmax-NLL and RMSProp over the
  wide ``out_w`` dominate.
* ``generate``: the ``evaluate`` path on the |X| ~ 541 corpus with a
  GRU trained during set-up: perplexity, beam 10 over 100 held-out
  inputs one at a time, ``score_pairs``, then the Kneser-Ney baseline.
  Only the forward decoder runs, on live-beam batches.

A run sets the workload up ``setup_repeats`` times, then measures rounds
until ``seconds`` have passed: a round is
one corpus build in both modes, one training epoch, or one evaluate pass
over a fifth of the held-out inputs (a run always covers all of them).
Throughput is the run's items over its measured seconds; latency
percentiles are Harrell-Davis estimates over the operations of every
round. Warm-up (one untimed epoch for the training workloads, one
untimed build for ``corpus``) stays out of the timings. Where set-up is
cheap next to a round, a further set-up is timed before every round, so
that ``setup_s``, the median of all set-up times, spans the run as the
other figures do.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from triples2text import evaluation, generation, pipeline, training, vocab
from triples2text.decoder import GRU, LSTM
from triples2text.model import Seq2Seq
from triples2text.pipeline import MODE_TUPLES, MODE_URI, PipelineConfig

import inputs
from tracing import Tracer

_now = time.perf_counter

VALID_FRACTION = 0.15  # as in the README's train example
MAX_TIMESTEP = 40

# unit of every end-to-end metric; items are article builds, target
# tokens or held-out inputs, and an operation is a corpus build, a
# training epoch or one generate call, depending on the workload
E2E_UNITS = {"items_per_s": "items/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class Profile:
    """Input sizes; FULL is the benchmark, SMOKE a seconds-long check."""
    corpus_shards: int = 5           # 2,400 articles
    articles: int = 480              # train-* and generate: one demo shard
    held_out: int = 100              # generate inputs, evaluated in chunks
    chunk: int = 20                  # held-out inputs per evaluate round
    gen_epochs: int = 4
    beam: int = 10
    t_max: int = 60
    bleu4_floor: float = 30.0
    wide_m: int = 256


FULL = Profile()
SMOKE = Profile(corpus_shards=2, articles=64, held_out=10, chunk=5, gen_epochs=1, t_max=8,
                bleu4_floor=0.0, wide_m=32)


@dataclass
class Round:
    seconds: float
    items: int
    samples_ms: list[float]  # one latency per operation
    attempted: int
    failed: int


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def pipeline_config(cfg: dict[str, str], mode: str, genders: dict[str, str],
                    min_count: int | None = None) -> PipelineConfig:
    """The demo.cfg settings, read as ``build-corpus`` reads them."""
    return PipelineConfig(
        mode=mode,
        target_vocab_size=int(cfg["target_vocab_size"]),
        target_vocab_min_count=(int(cfg["target_vocab_min_count"])
                                if min_count is None else min_count),
        year_min=int(cfg["year_min"]),
        year_max=int(cfg["year_max"]),
        gender_lexicon=genders)


class Workload:
    name = ""
    unit_kind = ""  # trace kind of one operation, for the per-layer figures
    setup_repeats = 1
    setup_each_round = True  # time a set-up before every measured round
    rounds_per_pass = 1  # a run covers all of its inputs at least once

    def __init__(self, profile: Profile, seed: int, workdir: str):
        self.profile = profile
        self.seed = seed
        self.workdir = workdir
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.quality: dict[str, float] = {}
        self.stop = False

    def path(self, *parts: str) -> str:
        p = os.path.join(self.workdir, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def same(self, key: str, digest: str) -> None:
        """Record a digest that must repeat wherever it is taken again."""
        first = self.digests.setdefault(key, digest)
        self.expect(first == digest, f"{key} changed: {first[:12]} then {digest[:12]}")

    def write_inputs(self, n_shards: int, shard_size: int = inputs.SHARD_SIZE) -> None:
        info = inputs.write_inputs(self.seed, n_shards, self.path("input", ""), shard_size)
        self.paths, self.articles, self.cfg = info["paths"], info["articles"], info["config"]

    def build(self, min_count: int | None = None):
        """Lexicons, corpus and vocabularies, as build-corpus + build-vocab."""
        types = pipeline.read_tsv_map(self.paths["instance_types"])
        genders = pipeline.read_tsv_map(self.paths["genders"])
        pcfg = pipeline_config(self.cfg, MODE_URI, genders, min_count)
        articles = pipeline.read_articles(self.paths["triples"], self.paths["summaries"])
        examples, stats, lexicon = pipeline.build_corpus(articles, types, pcfg)
        self.expect(len(examples) == self.articles and not stats.exclusions,
                    f"set-up corpus: {len(examples)} of {self.articles} examples, "
                    f"exclusions {stats.exclusions}")
        target = vocab.build_target_vocab(examples, pcfg.target_vocab_size,
                                          pcfg.target_vocab_min_count)
        source = vocab.build_source_vocab(examples, int(self.cfg["source_min_count"]))
        return examples, stats, lexicon, source, target

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def round(self) -> Round:
        raise NotImplementedError

    def finish(self) -> None:
        """Quality figures and checks that need every round."""

    def timed_setup(self) -> float:
        t0 = _now()
        self.setup()
        return _now() - t0

    def measure(self, seconds: float | None = None, rounds: int | None = None,
                setup_times: list[float] | None = None) -> list[Round]:
        """Warm up, then run rounds until ``seconds`` have passed and every
        input was used (one pass), or, when given, exactly ``rounds``.

        With ``setup_times``, each round is preceded by a set-up of a
        shallow copy, timed into that list; the copy takes the new state,
        so the measured rounds carry on with their own."""
        self.warmup()
        done: list[Round] = []
        start = _now()
        while not self.stop:
            if setup_times is not None:
                setup_times.append(copy.copy(self).timed_setup())
            done.append(self.round())
            if rounds is not None:
                if len(done) >= rounds:
                    break
            elif _now() - start >= seconds and len(done) >= self.rounds_per_pass:
                break
        return done

    def named(self, e2e: dict[str, float]) -> dict[str, tuple[float, str]]:
        """The end-to-end figures under this workload's own names."""
        return {}


class Corpus(Workload):
    name = "corpus"
    unit_kind = "build"
    modes = (MODE_URI, MODE_TUPLES)

    def make_inputs(self):
        self.write_inputs(self.profile.corpus_shards)

    def setup(self):
        self.types = pipeline.read_tsv_map(self.paths["instance_types"])
        genders = pipeline.read_tsv_map(self.paths["genders"])
        self.configs = {mode: pipeline_config(self.cfg, mode, genders) for mode in self.modes}

    def warmup(self):
        # the first build of a process pays for new allocator arenas and
        # cold file caches
        self.round()

    def round(self):
        built = {}
        t0 = _now()
        for mode, pcfg in self.configs.items():
            out = self.path("build", mode, "")
            articles = pipeline.read_articles(self.paths["triples"], self.paths["summaries"])
            examples, stats, lexicon = pipeline.build_corpus(articles, self.types, pcfg)
            pipeline.write_corpus(out + "corpus.jsonl", examples)
            pipeline.write_stats(out + "stats.json", stats)
            pipeline.write_lexicon(out + "lexicon.tsv", lexicon)
            rebuilt = pipeline.read_corpus(out + "corpus.jsonl")
            target = vocab.build_target_vocab(rebuilt, pcfg.target_vocab_size,
                                              pcfg.target_vocab_min_count)
            source = vocab.build_source_vocab(rebuilt, int(self.cfg["source_min_count"]))
            target.save(out + "target.vocab")
            source.save(out + "source.vocab")
            built[mode] = (len(examples), len(rebuilt), stats.exclusions, len(target), len(source))
        seconds = _now() - t0
        failed = 0
        for mode, (n, n_read, exclusions, n_target, n_source) in built.items():
            out = self.path("build", mode, "")
            self.expect(n == self.articles and n_read == n and not exclusions,
                        f"{mode}: {n} examples built, {n_read} read back, "
                        f"{self.articles} articles, exclusions {exclusions}")
            failed += self.articles - n
            self.same(f"corpus.{mode}", _sha256_file(out + "corpus.jsonl"))
            self.same(f"vocab.{mode}", f"{n_target}:{n_source}:"
                      + _sha256_file(out + "target.vocab") + _sha256_file(out + "source.vocab"))
        items = self.articles * len(self.modes)
        return Round(seconds, items, [1e3 * seconds], items, failed)

    def named(self, e2e):
        return {"articles_per_s": (e2e["items_per_s"], "articles/s")}


class Train(Workload):
    unit_kind = "batch"
    cell = GRU
    m = 64
    batch_size = 10
    min_count: int | None = None  # the demo.cfg value

    def make_inputs(self):
        self.write_inputs(1, self.profile.articles)

    def setup(self):
        examples, stats, _, source, target = self.build(self.min_count)
        n_valid = max(1, int(len(examples) * VALID_FRACTION))
        self.train_set, self.valid_set = examples[:-n_valid], examples[-n_valid:]
        if len(self.train_set) % self.batch_size == 1:
            raise ValueError("a leftover batch of one would be dropped; change the split")
        self.tcfg = training.TrainConfig(
            batch_size=self.batch_size, max_timestep=MAX_TIMESTEP, epochs=1, seed=0,
            cell_kind=self.cell, m=self.m, e_max=stats.e_max, mode=MODE_URI,
            bound_lower=stats.lower_bound(), bound_upper=stats.upper_bound())
        self.model = Seq2Seq(self.tcfg.model_config(), source, target)
        self.model.init_parameters(self.tcfg.seed)
        # predicted tokens per epoch: <start> is input only, padding is weighted out
        self.tokens = sum(min(len(ex.summary_tokens) - 1, MAX_TIMESTEP)
                          for ex in self.train_set)
        self.epoch_costs: list[list[float]] = []
        self.epoch_ppx: list[float] = []

    def _epoch(self) -> Round:
        """One ``training.train`` call of one epoch on the running model."""
        out_dir = self.path("run", "")
        diverged = 0
        t0 = _now()
        try:
            training.train(self.train_set, self.valid_set, self.tcfg, self.model.source_vocab,
                           self.model.target_vocab, out_dir=out_dir, model=self.model)
        except training.TrainingDivergedError as exc:
            self.expect(False, str(exc))
            diverged = 1
            self.stop = True
        seconds = _now() - t0
        costs, ppx = [], math.nan
        with open(os.path.join(out_dir, "train_log.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["type"] == "batch":
                    costs.append(rec["cost"])
                elif rec["type"] == "epoch":
                    ppx = rec.get("validation_perplexity", math.nan)
        self.epoch_costs.append(costs)
        self.epoch_ppx.append(ppx)
        return Round(seconds, self.tokens, [1e3 * seconds], len(costs) + diverged, diverged)

    def warmup(self):
        self._epoch()

    def round(self):
        return self._epoch()

    def finish(self):
        costs = [c for epoch in self.epoch_costs for c in epoch]
        self.expect(all(math.isfinite(c) for c in costs), "a batch cost is not finite")
        if len(self.epoch_costs) < 2:
            self.expect(False, "fewer than two epochs ran")
            return
        first = statistics.fmean(self.epoch_costs[0])
        last = statistics.fmean(self.epoch_costs[-1])
        self.expect(last < first, f"mean batch cost did not fall: {first:.4f} -> {last:.4f}")
        # warm-up epoch and first timed epoch: the same in every run of a seed
        trajectory = json.dumps(self.epoch_costs[0] + self.epoch_costs[1])
        self.same("loss_trajectory", hashlib.sha256(trajectory.encode()).hexdigest())
        ppx = self.epoch_ppx[1]
        self.expect(math.isfinite(ppx) and ppx < len(self.model.target_vocab),
                    f"validation perplexity {ppx} is no better than uniform")
        self.quality["training.valid_perplexity"] = ppx

    def named(self, e2e):
        return {"train_tokens_per_s": (e2e["items_per_s"], "tokens/s"),
                "valid_perplexity": (self.quality.get("training.valid_perplexity", math.nan),
                                     "perplexity")}


class TrainDesk(Train):
    name = "train-desk"


class TrainWide(Train):
    name = "train-wide"
    cell = LSTM
    batch_size = 32
    min_count = 1

    @property
    def m(self):
        return self.profile.wide_m


class Generate(Workload):
    name = "generate"
    unit_kind = "input"
    setup_repeats = 3  # each trains a model for about 3 s, too long for every round
    setup_each_round = False

    def make_inputs(self):
        self.write_inputs(1, self.profile.articles)

    def setup(self):
        examples, stats, lexicon, source, target = self.build(min_count=1)
        held, chunk = self.profile.held_out, self.profile.chunk
        self.train_set, self.lexicon = examples[:-held], lexicon
        self.held_out = examples[-held:]
        self.chunks = [self.held_out[i:i + chunk] for i in range(0, held, chunk)]
        self.rounds_per_pass = len(self.chunks)
        self.rounds_done = 0
        self.first_pass: list[tuple[list[str], list[str]]] = []
        tcfg = training.TrainConfig(
            batch_size=10, learning_rate=0.01, max_timestep=MAX_TIMESTEP,
            epochs=self.profile.gen_epochs, seed=0, cell_kind=GRU, m=64, e_max=stats.e_max,
            mode=MODE_URI, bound_lower=stats.lower_bound(), bound_upper=stats.upper_bound())
        model, _ = training.train(self.train_set, [], tcfg, source, target)
        checkpoint = self.path("model", "checkpoint.bin")
        model.save(checkpoint)
        self.model = Seq2Seq.load(checkpoint, source, target, expect_cell=GRU)
        self.same("checkpoint", _sha256_file(checkpoint))

    def round(self):
        """One evaluate pass over the next chunk of held-out inputs:
        perplexity, beam search per input, scores."""
        p = self.profile
        k = self.rounds_done % len(self.chunks)
        self.rounds_done += 1
        examples = self.chunks[k]
        outputs, samples, cands, refs, counts = [], [], [], [], []
        failed = 0
        t0 = _now()
        ppx = evaluation.perplexity(self.model, examples)
        for j, ex in enumerate(examples):
            i = k * p.chunk + j
            item_surface = evaluation.item_surface_for(ex, self.lexicon)
            ti = _now()
            try:
                results = generation.generate(self.model, ex.triples, self.lexicon,
                                              item_surface, p.beam, p.t_max, input_id=str(i))
            except generation.GenerationInputError as exc:
                self.expect(False, f"input {i}: {exc}")
                failed += 1
                results = []
            else:
                samples.append(1e3 * (_now() - ti))
            outputs.append(results)
            cands.append(results[0].final_tokens if results else [])
            refs.append(evaluation.reference_final(ex))
            counts.append(len(ex.triples))
        report = evaluation.score_pairs(cands, refs, perplexity_value=ppx)
        report.bleu4_by_triple_count = evaluation.bleu_by_triple_count(
            list(zip(cands, refs)), counts)
        seconds = _now() - t0

        digest = hashlib.sha256()
        for j, results in enumerate(outputs):
            logps = [r.log_prob for r in results]
            self.expect(bool(results) and [r.rank for r in results] == list(range(len(results)))
                        and all(a >= b for a, b in zip(logps, logps[1:])),
                        f"input {k * p.chunk + j}: no complete hypothesis ranked by log probability")
            for r in results:
                digest.update(json.dumps([r.input_id, r.rank, repr(r.log_prob), r.tokens,
                                          r.final_text]).encode())
        self.same(f"generate_outputs.{k}", digest.hexdigest())
        if self.rounds_done <= len(self.chunks):
            self.first_pass.extend(zip(cands, refs))
        return Round(seconds, len(examples), samples, len(examples), failed)

    def finish(self):
        """BLEU-4 over the first pass, then the Kneser-Ney baseline."""
        cands, refs = zip(*self.first_pass)
        bleu4 = evaluation.bleu_n(list(cands), list(refs), 4)
        self.quality["evaluation.bleu4"] = bleu4
        t0 = _now()
        kn = evaluation.kn_baseline(self.train_set, self.held_out, self.lexicon)
        self.quality["evaluation.kn_baseline_s"] = _now() - t0
        self.quality["evaluation.kn_bleu4"] = kn.bleu[4]
        self.expect(bleu4 >= self.profile.bleu4_floor,
                    f"BLEU-4 {bleu4:.2f} is under the floor {self.profile.bleu4_floor}")

    def named(self, e2e):
        return {"inputs_per_s": (e2e["items_per_s"], "inputs/s"),
                "input_ms_p50": (e2e["op_ms_p50"], "ms"),
                "input_ms_p90": (e2e["op_ms_p90"], "ms"),
                "bleu4": (self.quality["evaluation.bleu4"], "BLEU"),
                "kn_baseline_s": (self.quality["evaluation.kn_baseline_s"], "s")}


WORKLOADS = {w.name: w for w in (Corpus, TrainDesk, TrainWide, Generate)}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # older numpy: no dict form
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):  # the fraction converges fast only below this
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-30 else 1e-30)
        c = 1.0 + num / c
        c = c if abs(c) > 1e-30 else 1e-30
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def hd_quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics. Unlike a sample percentile it moves smoothly
    when a few operations of a run shift, e.g. while the host is slow."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    weights = np.diff([_betainc(a, b, i / n) for i in range(n + 1)])
    return float(weights @ x)


def _e2e(rounds: list[Round], setup_times: list[float]) -> dict[str, float]:
    samples = [s for r in rounds for s in r.samples_ms]
    return {
        "items_per_s": sum(r.items for r in rounds) / sum(r.seconds for r in rounds),
        "op_ms_p50": hd_quantile(samples, 0.5),
        "op_ms_p90": hd_quantile(samples, 0.9),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(name: str, seed: int, seconds: float, trace: bool, profile: Profile,
        workdir: str, trace_path: str | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result, report).

    The result holds ``correct``, ``attempted``, ``failed`` and the
    metrics: end-to-end ones untraced, per-layer ones traced. A traced
    run measures half of ``seconds`` untraced, then sets up again and
    repeats the same rounds, cut to whole passes so that every count
    repeats exactly, with the tracer installed; the ratio of the two
    times is the tracing overhead.
    """
    w = WORKLOADS[name](profile, seed, workdir)
    w.make_inputs()
    report: dict = {"workload": name, "seed": seed, "trace": int(trace),
                    "environment": environment()}
    if not trace:
        setup_times = [w.timed_setup() for _ in range(w.setup_repeats)]
        rounds = w.measure(seconds=seconds,
                           setup_times=setup_times if w.setup_each_round else None)
        w.finish()
        values = _e2e(rounds, setup_times)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        report["named"] = {k: {"value": v, "unit": u}
                           for k, (v, u) in w.named(values).items()}
        report["setup_s_each"] = setup_times
    else:
        w.setup()
        base = w.measure(seconds=seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            w.setup()
            tracer.phase = "measure"
            n = len(base) // w.rounds_per_pass * w.rounds_per_pass
            rounds = w.measure(rounds=n)
            w.finish()
        finally:
            tracer.uninstall()
        if trace_path is not None:
            tracer.write(trace_path)
        values = tracer.metrics(w.unit_kind)
        for key in QUALITY:
            values[key] = w.quality.get(key, 0.0)
        values["trace.overhead_share"] = (sum(r.seconds for r in rounds)
                                          / sum(r.seconds for r in base[:n]) - 1.0)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    report["rounds"] = len(rounds)
    report["samples"] = sum(len(r.samples_ms) for r in rounds)
    report["quality"] = w.quality
    report["digests"] = w.digests
    report["failures"] = w.failures
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": not w.failures and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


QUALITY = ("training.valid_perplexity", "evaluation.bleu4", "evaluation.kn_baseline_s")


_COUNT_UNITS = {
    "pipeline.articles_in": "count", "pipeline.examples_out": "count",
    "vocab.target_size": "count", "vocab.source_size": "count",
    "model.checkpoint_bytes": "bytes", "nn.tape_ops": "count", "nn.matmul_gflop": "GFLOP",
    "decoder.step_calls": "count", "training.padding_share": "share",
    "training.batch_ms_p50": "ms", "training.batch_ms_p90": "ms",
    "generation.steps": "count", "generation.live_width_mean": "count",
    "generation.candidates": "count", "generation.kept_share": "share",
    "generation.forced_share": "share", "evaluation.kn_cache_entries": "count",
    "trace.spans": "count", "trace.overhead_share": "share",
    "training.valid_perplexity": "perplexity", "evaluation.bleu4": "BLEU",
}


def per_layer_unit(name: str) -> str:
    if name in _COUNT_UNITS:
        return _COUNT_UNITS[name]
    return "ms" if name.endswith("_ms") else "s"
