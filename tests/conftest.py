import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from triples2text import nn
from triples2text.model import ModelConfig, Seq2Seq
from triples2text.tokens import START
from triples2text.training import DECAY_PERIOD
from triples2text.vocab import Vocabulary


def make_vocab(kind: str, extra: int, prefix: str) -> Vocabulary:
    v = Vocabulary._with_specials(kind)
    for i in range(extra):
        v._append(f"{prefix}{i}", extra - i)
    return v


def read_jsonl(path) -> list:
    """The records of a JSON Lines file."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def make_model(seed: int = 0, cell: str = "gru", m: int = 4, e_max: int = 2,
               source_extra: int = 4, target_extra: int = 5,
               init_scale: float = 0.5) -> Seq2Seq:
    source = make_vocab("source", source_extra, "s")
    target = make_vocab("target", target_extra, "t")
    cfg = ModelConfig(cell_kind=cell, m=m, e_max=e_max)
    model = Seq2Seq(cfg, source, target)
    nn.init_uniform(model.parameters(), -init_scale, init_scale, seed=seed)
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def boundary_lr_schedule(cfg, epochs: int) -> list[float]:
    """The learning rate each epoch of ``training.train`` under ``cfg``
    starts with, by repeated multiplication: the oracle of criterion 7."""
    out = []
    lr = cfg.learning_rate
    next_decay = Fraction(cfg.decay_start_epoch)
    for epoch in range(epochs):
        out.append(lr)
        while next_decay < Fraction(epoch + 1):
            lr *= cfg.decay_factor
            next_decay += DECAY_PERIOD
        # an instant exactly on the boundary decays after the next record
    return out


def unigram_perplexity(train_examples, eval_examples) -> float:
    """Perplexity proxy for the retrieval baseline: the training-set
    unigram distribution (add-one smoothed) scored on the evaluation
    summaries. Retrieval assigns no sequence likelihood of its own, so
    this is the weakest language model its training data implies; the
    trained model's perplexity must beat it (criterion 6)."""
    counts: Counter[str] = Counter()
    for ex in train_examples:
        counts.update(t.text for t in ex.summary_tokens if t.text != START)
    total = sum(counts.values())
    vocab = len(counts) + 1
    nll = 0.0
    n = 0
    for ex in eval_examples:
        for t in ex.summary_tokens:
            if t.text == START:
                continue
            p = (counts.get(t.text, 0) + 1) / (total + vocab)
            nll -= math.log(p)
            n += 1
    return math.exp(nll / n)
