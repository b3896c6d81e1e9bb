import json

import numpy as np
import pytest

from triples2text import nn
from triples2text.model import ModelConfig, Seq2Seq
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
               init_scale: float = 0.5, use_batch_norm: bool = True) -> Seq2Seq:
    source = make_vocab("source", source_extra, "s")
    target = make_vocab("target", target_extra, "t")
    cfg = ModelConfig(cell_kind=cell, m=m, e_max=e_max, use_batch_norm=use_batch_norm)
    model = Seq2Seq(cfg, source, target)
    nn.init_uniform(model.parameters(), -init_scale, init_scale, seed=seed)
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
