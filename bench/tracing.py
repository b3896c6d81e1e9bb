"""Traced runs: spans recorded around the program's public functions.

``Tracer.install`` replaces the functions listed in ``_targets`` with
wrappers that record a span (name, start, end, parent span, trace id)
and, for some of them, a counter taken at the same boundary. It also
replaces ``nn.Tape.record`` so that every backward closure is timed under
its op's name (``matmul.<locals>.bwd`` counts as ``matmul``); closures
are summed per trace and op rather than kept as single spans, because a
training batch records about 400 of them. ``uninstall`` puts every
original back. Nothing is patched while the tracer is not installed, so
an untraced run executes the program's own functions.

A trace is one unit of work: a ``build`` (one ``read_articles`` pass and
what follows it), a training ``batch`` (``batch_loss`` with a tape, then
backward, clipping and the RMSProp step), an ``input`` (one
``generation.generate`` call), an ``epoch`` (``make_batches``) or an
``eval`` (``corpus_nll``, ``perplexity`` or ``kn_baseline``). Spans stay
in memory and ``write`` stores them as JSON Lines once the run ends.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict
from typing import Callable

import numpy as np

from triples2text import evaluation, generation, nn, pipeline, training, vocab
from triples2text.decoder import Decoder
from triples2text.encoder import TripleEncoder
from triples2text.model import Seq2Seq

_now = time.perf_counter

# backward closure op -> nn.backward.<bucket>_ms
_BACKWARD_BUCKETS = {"matmul": "matmul", "masked_softmax_nll": "masked_softmax_nll",
                     "rows_lookup": "rows_lookup", "batch_norm": "batch_norm"}
BACKWARD_BUCKETS = ("matmul", "masked_softmax_nll", "rows_lookup", "batch_norm", "elementwise")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trace id]
        self.kinds: dict[int, tuple[str, str]] = {0: ("setup", "setup")}
        self.phase = "setup"  # the workload sets "measure" once its set-up is done
        self.counters: dict[tuple[str, int], float] = defaultdict(float)
        self.closures: dict[tuple[str, int], float] = defaultdict(float)
        self.checkpoint_bytes = 0
        self.kn_model = None
        self._stack: list[int] = []
        self._trace = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin_trace(self, kind: str) -> None:
        self._trace = len(self.kinds)
        self.kinds[self._trace] = (kind, self.phase)

    def count(self, name: str, value: float) -> None:
        self.counters[(name, self._trace)] += value

    def _span(self, name: str, fn: Callable, starts: Callable | None,
              before: Callable | None, after: Callable | None, consume: bool) -> Callable:
        def wrapper(*args, **kwargs):
            kind = starts(args, kwargs) if starts is not None else None
            if kind is not None:
                self.begin_trace(kind)
            if before is not None:
                before(args, kwargs)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                               self._trace])
            self._stack.append(idx)
            self.spans[idx][1] = _now()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                self.spans[idx][2] = _now()
                self._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn: Callable, before: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, original: Callable) -> Callable:
        tracer = self

        def record(tape, fn):
            key = (fn.__qualname__.split(".", 1)[0], tracer._trace)
            tracer.counters[("nn.tape_ops", tracer._trace)] += 1

            def timed():
                t0 = _now()
                fn()
                tracer.closures[key] += _now() - t0
            original(tape, timed)
        record.__wrapped__ = original
        return record

    # -- installation -----------------------------------------------------

    def _replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, opts in _targets(self):
            if name is None:
                self._replace(owner, attr, lambda fn, o=opts: self._counter(fn, o["before"]))
            else:
                self._replace(owner, attr, lambda fn, n=name, o=opts: self._span(
                    n, fn, o.get("starts"), o.get("before"), o.get("after"),
                    o.get("consume", False)))
        self._replace(nn.Tape, "record", self._record)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"trace_kinds": self.kinds}) + "\n")
            for name, start, end, parent, trace in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trace": trace}) + "\n")

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, unit_kind: str) -> dict[str, float]:
        """Per-layer figures; per-unit ones average over traces of unit_kind
        (``batch``, ``input`` or ``build``)."""
        def traces(kind: str, phases: tuple[str, ...] = ("measure",)) -> set[int]:
            return {t for t, (k, p) in self.kinds.items() if k == kind and p in phases}

        units = traces(unit_kind)
        batches = traces("batch")
        inputs = traces("input")
        builds = traces("build", ("setup", "measure"))  # train/generate build in set-up
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        by_name: dict[str, list[float]] = defaultdict(list)  # every span, any trace
        in_trace: dict[tuple[str, int], float] = defaultdict(float)
        self_in_trace: dict[tuple[str, int], float] = defaultdict(float)
        extent: dict[int, list[float]] = {}
        for idx, (name, start, end, _, trace) in enumerate(self.spans):
            by_name[name].append(end - start)
            in_trace[(name, trace)] += end - start
            self_in_trace[(name, trace)] += end - start - children[idx]
            ext = extent.setdefault(trace, [start, end])
            ext[0], ext[1] = min(ext[0], start), max(ext[1], end)

        def per(name: str, traces: set[int], scale: float = 1.0, table=in_trace) -> float:
            if not traces:
                return 0.0
            return scale * sum(table.get((name, t), 0.0) for t in traces) / len(traces)

        def per_call(name: str, scale: float = 1.0) -> float:
            calls = by_name.get(name)
            return scale * sum(calls) / len(calls) if calls else 0.0

        def total(name: str, traces: set[int]) -> float:
            return sum(self.counters.get((name, t), 0) for t in traces)

        def counted(name: str, traces: set[int]) -> float:
            return total(name, traces) / len(traces) if traces else 0.0

        out: dict[str, float] = {}
        # pipeline, per build (one mode pass, or the corpus build of a setup)
        for name in ("read_articles", "build_corpus", "assign_placeholders",
                     "normalize_triples", "write_corpus", "read_corpus"):
            out[f"pipeline.{name}_s"] = per(f"pipeline.{name}", builds)
        out["pipeline.articles_in"] = counted("pipeline.articles_in", builds)
        out["pipeline.examples_out"] = counted("pipeline.examples_out", builds)
        out["vocab.build_target_s"] = per_call("vocab.build_target")
        out["vocab.build_source_s"] = per_call("vocab.build_source")
        out["vocab.target_size"] = self._last("vocab.target_size")
        out["vocab.source_size"] = self._last("vocab.source_size")
        # model layers, per batch (training) or per input (generation)
        out["encoder.encode_batch_ms"] = per("encoder.encode_batch", units, 1e3)
        out["decoder.step_ms"] = per("decoder.step", units, 1e3)
        out["decoder.step_calls"] = (sum(1 for s in self.spans
                                         if s[0] == "decoder.step" and s[4] in units)
                                     / len(units)) if units else 0.0
        out["decoder.logits_ms"] = per("decoder.logits", units, 1e3)
        out["model.batch_loss_ms"] = per("model.batch_loss", batches, 1e3)
        out["model.corpus_nll_s"] = per_call("model.corpus_nll")
        out["model.save_ms"] = per_call("model.save", 1e3)
        out["model.load_ms"] = per_call("model.load", 1e3)
        out["model.checkpoint_bytes"] = float(self.checkpoint_bytes)
        # nn, per training batch
        out["nn.tape_ops"] = counted("nn.tape_ops", batches)
        out["nn.backward_ms"] = per("nn.backward", batches, 1e3)
        bucket_ms: dict[str, float] = defaultdict(float)
        for (op, trace), seconds in self.closures.items():
            if trace in batches:
                bucket_ms[_BACKWARD_BUCKETS.get(op, "elementwise")] += seconds
        for bucket in BACKWARD_BUCKETS:
            out[f"nn.backward.{bucket}_ms"] = (1e3 * bucket_ms[bucket] / len(batches)
                                               if batches else 0.0)
        out["nn.rmsprop_ms"] = per("nn.rmsprop", batches, 1e3)
        out["nn.clip_ms"] = per("nn.clip", batches, 1e3)
        out["nn.masked_softmax_nll_ms"] = per("nn.masked_softmax_nll", batches, 1e3)
        out["nn.matmul_gflop"] = counted("nn.matmul_flop", batches) / 1e9
        # training
        batch_ms = [1e3 * (extent[t][1] - extent[t][0]) for t in batches if t in extent]
        out["training.batch_ms_p50"] = float(np.percentile(batch_ms, 50)) if batch_ms else 0.0
        out["training.batch_ms_p90"] = float(np.percentile(batch_ms, 90)) if batch_ms else 0.0
        out["training.make_batches_ms"] = per_call("training.make_batches", 1e3)
        slots = total("training.slots", batches)
        out["training.padding_share"] = (total("training.padding", batches) / slots
                                         if slots else 0.0)
        # generation, per input
        out["generation.score_ms"] = per("generation.score", inputs, 1e3)
        out["generation.bookkeeping_ms"] = per("generation.beam_search", inputs, 1e3,
                                               self_in_trace)
        out["generation.postprocess_ms"] = per("generation.postprocess", inputs, 1e3)
        out["generation.steps"] = counted("generation.steps", inputs)
        steps = total("generation.steps", inputs)
        out["generation.live_width_mean"] = (total("generation.live", inputs) / steps
                                             if steps else 0.0)
        candidates = total("generation.candidates", inputs)
        out["generation.candidates"] = counted("generation.candidates", inputs)
        out["generation.kept_share"] = (total("generation.kept", inputs) / candidates
                                        if candidates else 0.0)
        hyps = total("generation.hypotheses", inputs)
        out["generation.forced_share"] = (total("generation.forced", inputs) / hyps
                                          if hyps else 0.0)
        # evaluation
        out["evaluation.perplexity_s"] = per_call("evaluation.perplexity")
        out["evaluation.score_pairs_ms"] = per_call("evaluation.score_pairs", 1e3)
        out["evaluation.kn_train_ms"] = per_call("evaluation.kn_train", 1e3)
        out["evaluation.kn_beam_ms"] = per_call("evaluation.kn_beam", 1e3)
        out["evaluation.kn_cache_entries"] = (float(len(self.kn_model._cache))
                                              if self.kn_model is not None else 0.0)
        out["trace.spans"] = float(len(self.spans))
        return out

    def _last(self, name: str) -> float:
        values = [v for (n, _), v in self.counters.items() if n == name]
        return float(values[-1]) if values else 0.0



def _targets(tr: Tracer) -> list[tuple[object, str, str | None, dict]]:
    """(owner, attribute, span name or None for a pure counter, options)."""

    def arg(args, kwargs, i, key):
        return args[i] if len(args) > i else kwargs.get(key)

    def batch_loss_starts(args, kwargs):
        return "batch" if arg(args, kwargs, 1, "tape") is not None else None

    def batch_loss_before(args, kwargs):
        if arg(args, kwargs, 1, "tape") is None:
            return
        batch = arg(args, kwargs, 2, "batch")
        max_t = arg(args, kwargs, 4, "max_timestep")
        steps = max(len(ex.target) for ex in batch) - 1
        if max_t is not None:
            steps = min(steps, max_t)
        used = sum(min(len(ex.target) - 1, steps) for ex in batch)
        tr.count("training.slots", len(batch) * steps)
        tr.count("training.padding", len(batch) * steps - used)

    def matmul_flops(args, kwargs):
        a, b = args[1].value, args[2].value
        flops = 2 * a.shape[0] * a.shape[1] * b.shape[1]
        tr.count("nn.matmul_flop", flops * 3 if args[0] is not None else flops)

    def after_read_articles(result, args, kwargs):
        tr.count("pipeline.articles_in", len(result))

    def after_build_corpus(result, args, kwargs):
        tr.count("pipeline.examples_out", len(result[0]))

    def after_vocab(name):
        return lambda result, args, kwargs: tr.count(name, len(result))

    def after_save(result, args, kwargs):
        tr.checkpoint_bytes = os.path.getsize(arg(args, kwargs, 1, "path"))

    def after_score(result, args, kwargs):
        states = args[1] if len(args) > 1 else None
        tr.count("generation.candidates", int(_finite(result[1])))
        if states is not None:  # step(), not start()
            tr.count("generation.steps", 1)
            tr.count("generation.live", len(states))
            tr.count("generation.kept", len(args[2]))

    def after_beam(result, args, kwargs):
        tr.count("generation.kept", len(result))
        tr.count("generation.hypotheses", len(result))
        tr.count("generation.forced", sum(1 for h in result if h.forced))

    def after_kn_train(result, args, kwargs):
        tr.kn_model = result

    eval_trace = {"starts": lambda a, k: "eval"}
    return [
        (pipeline, "read_articles", "pipeline.read_articles",
         {"starts": lambda a, k: "build", "consume": True, "after": after_read_articles}),
        (pipeline, "build_corpus", "pipeline.build_corpus", {"after": after_build_corpus}),
        (pipeline, "assign_placeholders", "pipeline.assign_placeholders", {}),
        (pipeline, "normalize_triples", "pipeline.normalize_triples", {}),
        (pipeline, "write_corpus", "pipeline.write_corpus", {}),
        (pipeline, "read_corpus", "pipeline.read_corpus", {}),
        (vocab, "build_target_vocab", "vocab.build_target",
         {"after": after_vocab("vocab.target_size")}),
        (vocab, "build_source_vocab", "vocab.build_source",
         {"after": after_vocab("vocab.source_size")}),
        (TripleEncoder, "encode_batch", "encoder.encode_batch", {}),
        (Decoder, "step", "decoder.step", {}),
        (Decoder, "logits", "decoder.logits", {}),
        (Seq2Seq, "batch_loss", "model.batch_loss",
         {"starts": batch_loss_starts, "before": batch_loss_before}),
        (Seq2Seq, "corpus_nll", "model.corpus_nll", eval_trace),
        (Seq2Seq, "save", "model.save", {"after": after_save}),
        (Seq2Seq, "load", "model.load", {}),
        (nn.Tape, "backward", "nn.backward", {}),
        (nn, "clip_gradients", "nn.clip", {}),
        (nn, "rmsprop_step", "nn.rmsprop", {}),
        (nn, "masked_softmax_nll", "nn.masked_softmax_nll", {}),
        (nn, "matmul", None, {"before": matmul_flops}),
        (training, "make_batches", "training.make_batches",
         {"starts": lambda a, k: "epoch"}),
        (generation, "generate", "generation.generate", {"starts": lambda a, k: "input"}),
        (generation, "beam_search", "generation.beam_search", {"after": after_beam}),
        (generation.ModelScorer, "start", "generation.score", {"after": after_score}),
        (generation.ModelScorer, "step", "generation.score", {"after": after_score}),
        (generation, "postprocess", "generation.postprocess", {}),
        (evaluation, "perplexity", "evaluation.perplexity", eval_trace),
        (evaluation, "score_pairs", "evaluation.score_pairs", {}),
        (evaluation, "kn_baseline", "evaluation.kn_baseline", eval_trace),
        (evaluation, "kn_train", "evaluation.kn_train", {"after": after_kn_train}),
        (evaluation, "kn_generate", "evaluation.kn_beam", {}),
    ]


def _finite(logp) -> int:
    return int(np.isfinite(logp).sum())
