"""RMSProp training loop: batching, learning-rate schedule, validation
perplexity, checkpointing, and the JSON Lines training log.

Epochs are numbered from 0. The learning rate decays by ``decay_factor``
every ``DECAY_PERIOD`` (half an epoch) once the position in epochs reaches
``decay_start_epoch``; a decay instant falling exactly on an epoch
boundary applies after that epoch's boundary record is written, so the
logged boundary value at epoch e >= 3 under the defaults is exactly
0.002 * 0.8^(2*(e-3)), built by repeated multiplication.
"""

from __future__ import annotations

import json
import logging
import math
import os
import resource
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import nn
from .fileio import writing
from .model import EncodedExample, ModelConfig, Seq2Seq
from .pipeline import AlignedExample
from .settings import FRACTION, POSITIVE, at_least, number, or_none, setting
from .vocab import Vocabulary

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    pass


DECAY_PERIOD = Fraction(1, 2)  # of an epoch, between learning-rate decays


_CLIP_NORM = or_none(number(lambda v: v > 0, ""))._replace(
    expected="a positive number or None (no clipping; 0 or below as a flag or config value)",
    parse=lambda text: None if float(text) <= 0 else float(text))


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    """The model's settings (:class:`ModelConfig`) and the optimiser's."""
    batch_size: int = setting(85, at_least(2))  # batch normalisation needs two rows
    max_timestep: int = setting(66, at_least(1))
    learning_rate: float = setting(0.002, POSITIVE)
    decay_factor: float = setting(0.8, FRACTION)
    decay_start_epoch: int = setting(3, at_least(0))
    epochs: int = setting(12, at_least(1))
    seed: int = setting(0, at_least(0))
    l2: float = setting(1e-5, number(lambda v: 0 <= v < math.inf, "a finite number >= 0"))
    clip_norm: float | None = setting(5.0, _CLIP_NORM)
    patience: int | None = setting(3, or_none(at_least(0)))  # epochs without improvement

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})


@dataclass
class TrainResult:
    """What a run did. Without a validation set no epoch is best: both
    ``best_*`` fields are None, and ``checkpoint_path`` holds the last epoch."""
    best_epoch: int | None
    best_validation_perplexity: float | None
    epochs_run: int
    checkpoint_path: str | None


def make_batches(examples: Sequence[EncodedExample], batch_size: int,
                 rng: np.random.Generator) -> list[list[EncodedExample]]:
    """Cut the examples, shuffled by ``rng``, into batches; single leftover
    examples are dropped because batch normalisation needs two rows.

    Batches are not bucketed by length: that would make batch statistics
    length-conditional and skew the normalisation running averages on
    small homogeneous corpora.
    """
    order = list(range(len(examples)))
    rng.shuffle(order)
    batches = []
    for i in range(0, len(order), batch_size):
        chunk = [examples[j] for j in order[i:i + batch_size]]
        if len(chunk) >= 2:
            batches.append(chunk)
        else:
            logger.warning("dropping a leftover batch of 1 example")
    return batches


def validation_perplexity(model: Seq2Seq, valid: Sequence[EncodedExample],
                          max_timestep: int | None = None) -> float:
    """exp of the mean token NLL; inf where that overflows a float."""
    nll, count = model.corpus_nll(valid, max_timestep=max_timestep)
    if count == 0:
        raise ValueError("corpus has no scoreable tokens")
    try:
        return math.exp(nll / count)
    except OverflowError:
        return math.inf


def train(corpus: Sequence[AlignedExample], valid: Sequence[AlignedExample],
          cfg: TrainConfig, source_vocab: Vocabulary, target_vocab: Vocabulary,
          out_dir: str | None = None,
          model: Seq2Seq | None = None) -> tuple[Seq2Seq, TrainResult]:
    """Train a model (a fresh one unless given) on the aligned corpus.

    Writes ``train_log.jsonl``, ``checkpoint_best.bin`` and
    ``checkpoint_last.bin`` under out_dir when given. Raises
    TrainingDivergedError (naming epoch and batch) on a non-finite cost.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    if model is None:
        model = Seq2Seq(cfg.model_config(), source_vocab, target_vocab)
        model.init_parameters(cfg.seed)
    params = model.parameters()
    encoded = [model.encode_example(ex) for ex in corpus]
    encoded_valid = [model.encode_example(ex) for ex in valid]

    log_fh = None
    best_path = last_path = None
    if out_dir is not None:
        log_path = os.path.join(out_dir, "train_log.jsonl")
        best_path = os.path.join(out_dir, "checkpoint_best.bin")
        last_path = os.path.join(out_dir, "checkpoint_last.bin")
        with writing(out_dir):
            os.makedirs(out_dir, exist_ok=True)
            # Streamed, not written atomically: a run that diverges keeps the
            # records up to the failing batch, which is how it is diagnosed.
            log_fh = open(log_path, "w", encoding="utf-8")

    def log(record: dict) -> None:
        if log_fh is not None:
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")

    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    next_decay = Fraction(cfg.decay_start_epoch)
    best_ppx = math.inf
    best_epoch = -1
    final_cost = math.nan
    epochs_run = 0

    try:
        for epoch in range(cfg.epochs):
            batches = make_batches(encoded, cfg.batch_size, rng)
            rng.shuffle(batches)
            n_batches = len(batches)
            log({"type": "epoch_start", "epoch": epoch, "lr_boundary": lr,
                 "n_batches": n_batches})
            ws = nn.Workspace()  # the batches' large arrays, reused within this epoch
            for b, batch in enumerate(batches):
                # apply every decay instant at or before this batch's start
                while next_decay <= Fraction(epoch) + Fraction(b, max(n_batches, 1)):
                    lr *= cfg.decay_factor
                    next_decay += DECAY_PERIOD
                start = time.perf_counter()
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                tape = nn.Tape()
                nn.zero_grads(params)
                cost, _, tokens = model.batch_loss(tape, batch, training=True,
                                                   max_timestep=cfg.max_timestep, ws=ws)
                value = float(cost.value[0, 0])
                if not math.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite training cost at epoch {epoch}, batch {b}")
                tape.backward(cost)
                grad_norm, clip_scale = nn.clip_gradients(params, cfg.clip_norm)
                nn.rmsprop_step(params, lr, l2_coefficient=cfg.l2)
                final_cost = value
                log({"type": "batch", "epoch": epoch, "batch": b, "lr": lr, "cost": value,
                     "grad_norm": grad_norm, "clip_scale": clip_scale, "tokens": tokens,
                     "wall_s": time.perf_counter() - start,
                     "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults})
            del ws  # validation and checkpoint arrays would stack on it at peak memory
            # instants strictly inside the epoch but after the last batch
            # started; one landing exactly on the boundary applies after the
            # next epoch's boundary record instead
            while next_decay < Fraction(epoch + 1):
                lr *= cfg.decay_factor
                next_decay += DECAY_PERIOD
            epochs_run = epoch + 1
            record = {"type": "epoch", "epoch": epoch, "final_cost": final_cost}
            if encoded_valid:
                ppx = validation_perplexity(model, encoded_valid, cfg.max_timestep)
                record["validation_perplexity"] = ppx
                if ppx < best_ppx:
                    best_ppx = ppx
                    best_epoch = epoch
                    if best_path is not None:
                        model.save(best_path)
                log(record)
                if cfg.patience is not None and epoch - best_epoch > cfg.patience:
                    log({"type": "early_stop", "epoch": epoch, "best_epoch": best_epoch})
                    logger.info("early stop at epoch %d (best %d)", epoch, best_epoch)
                    break
            else:
                log(record)
        if last_path is not None:
            model.save(last_path)
            if best_path is not None and not os.path.exists(best_path):
                model.save(best_path)
    finally:
        if log_fh is not None:
            log_fh.close()

    return model, TrainResult(
        best_epoch=best_epoch if encoded_valid else None,
        best_validation_perplexity=best_ppx if encoded_valid else None,
        epochs_run=epochs_run,
        checkpoint_path=best_path,
    )
