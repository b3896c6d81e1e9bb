"""Full encoder-decoder assembly, example encoding, and checkpoints.

A Seq2Seq owns the triple encoder, the recurrent decoder and the two
dictionaries. It computes in float32 (``nn.DTYPE``), or in float64 after
:meth:`Seq2Seq.to_float64`. Checkpoints use the versioned binary block
container from :mod:`triples2text.nn`, float64 on disk; the header
records the hyperparameters plus the content hashes of both dictionaries,
and loading refuses a checkpoint whose hashes or cell kind disagree with
what the caller supplies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import nn
from .decoder import CELL_KINDS, Decoder, LSTM
from .encoder import TripleEncoder
from .pipeline import MODE_URI, MODES, AlignedExample, Triple
from .settings import INTEGER, Settings, at_least, one_of, or_none, setting
from .tokens import END, PAD, START
from .vocab import Vocabulary

Array = np.ndarray

INIT_BOUND = 0.001  # weights and biases start uniform in [-INIT_BOUND, INIT_BOUND)
NLL_BATCH_SIZE = 32  # examples per batch of corpus_nll


class CheckpointMismatchError(ValueError):
    """Checkpoint disagrees with the supplied vocabularies or configuration."""


@dataclass(frozen=True)
class ModelConfig(Settings):
    cell_kind: str = setting(LSTM, one_of(CELL_KINDS))
    m: int = setting(650, at_least(1))
    e_max: int = setting(22, at_least(1))
    mode: str = setting(MODE_URI, one_of(MODES))
    bound_lower: int = setting(0, INTEGER)
    bound_upper: int | None = setting(None, or_none(INTEGER))

    def __post_init__(self):
        super().__post_init__()
        if self.bound_upper is not None and self.bound_lower > self.bound_upper:
            raise ValueError(f"bound_lower must be at most bound_upper ({self.bound_upper}), "
                             f"got {self.bound_lower}")


# Header keys of configurations that are no longer built, with the one
# value a checkpoint may hold for them: any other value, or one of another
# type (1 for True), means blocks or numerics this model does not have, so
# such a checkpoint is refused.
_RETIRED_HEADER = {"layers": 1, "paper_literal_lstm": False, "use_batch_norm": True,
                   "bn_momentum": nn.BatchNorm.momentum, "bn_eps": nn.BatchNorm.eps}


def _header_config(path: str, header: dict) -> ModelConfig:
    """The configuration a header describes; BadCheckpointError unless it
    is one this code builds exactly. A missing field is not defaulted."""
    for key, value in _RETIRED_HEADER.items():
        if key in header and (type(header[key]) is not type(value) or header[key] != value):
            raise nn.BadCheckpointError(
                f"{path}: header value {key}={header[key]!r} is not {value!r}")
    try:
        return ModelConfig(**{k: header.get(k) for k in ModelConfig.__dataclass_fields__})
    except ValueError as exc:
        raise nn.BadCheckpointError(f"{path}: bad header: {exc}") from None


@dataclass
class EncodedExample:
    triples: list[tuple[int, int, int]]
    target: list[int]  # <start> ... <end>, in target indices


class Seq2Seq:

    def __init__(self, config: ModelConfig, source_vocab: Vocabulary, target_vocab: Vocabulary):
        self.config = config
        self.source_vocab = source_vocab
        self.target_vocab = target_vocab
        self.encoder = TripleEncoder(len(source_vocab), config.m, config.e_max)
        self.decoder = Decoder(len(target_vocab), config.m, config.cell_kind,
                               target_vocab.index[PAD])
        self.pad_index = target_vocab.index[PAD]
        self.start_index = target_vocab.index[START]
        self.end_index = target_vocab.index[END]

    def parameters(self) -> list[nn.Parameter]:
        return self.encoder.parameters() + self.decoder.parameters()

    def batch_norms(self) -> list[nn.BatchNorm]:
        return self.encoder.batch_norms()

    def to_float64(self) -> "Seq2Seq":
        """This model, recast to compute in float64 (exactly: see
        :func:`nn.to_float64`). Central differences need it; training and
        generation run in float32."""
        nn.to_float64(self.parameters(), self.batch_norms())
        return self

    def init_parameters(self, seed: int) -> None:
        """Uniform initialisation of weights and biases in
        [-INIT_BOUND, INIT_BOUND); batch-norm scale/shift keep their 1/0
        identity initialisation so early activations stay at unit scale."""
        bn_params = {id(p) for bn in self.batch_norms() for p in bn.parameters()}
        nn.init_uniform([p for p in self.parameters() if id(p) not in bn_params],
                        -INIT_BOUND, INIT_BOUND, seed)

    # -- example encoding ---------------------------------------------

    def encode_example(self, example: AlignedExample) -> EncodedExample:
        """Map a pipeline example onto vocabulary indices.

        Triples whose predicate is out of the source dictionary are
        discarded here; subjects and objects resolve through the source
        fallback chain.
        """
        triples = self.encode_triple_set(example.triples)
        target = [self.target_vocab.encode(tok.text) for tok in example.summary_tokens]
        return EncodedExample(triples=triples, target=target)

    def encode_triple_set(self, triples: Sequence[Triple]) -> list[tuple[int, int, int]]:
        """Source indices of the first ``e_max`` triples of known predicate."""
        sv = self.source_vocab
        out = []
        for t in triples:
            if t.predicate not in sv.index:
                continue  # rare predicate: triple marked for discard
            out.append((sv.encode(t.subject), sv.index[t.predicate], sv.encode(t.object)))
        return out[:self.config.e_max]

    # -- forward passes -----------------------------------------------

    def batch_loss(self, tape: nn.Tape | None,
                   batch: Sequence[EncodedExample], training: bool,
                   max_timestep: int | None = None,
                   ws: nn.Workspace | None = None) -> tuple[nn.Node, float, int]:
        """Teacher-forced sequence cost over one padded batch.

        Returns (cost node, total negative log-likelihood, predicted token
        count). The cost is the per-example sum of token losses averaged
        over the batch; <start> is input only, <end> is predicted, padding
        is weighted out. A taped pass records 3 closures (encoder,
        recurrence, output head), on arrays from ``ws`` when given.
        """
        if not batch:
            raise ValueError("empty batch")
        h0 = self.encoder.encode_batch(tape, [ex.triples for ex in batch], training)
        steps = max(len(ex.target) for ex in batch) - 1
        if max_timestep is not None:
            steps = min(steps, max_timestep)
        b = len(batch)
        # time-major: row t*b + i of the flattened arrays is example i at step t
        inputs = np.full((steps, b), self.pad_index, dtype=int)
        targets = np.full((steps, b), self.pad_index, dtype=int)
        weights = np.zeros((steps, b), self.decoder.out_w.value.dtype)
        for i, ex in enumerate(batch):
            seq = ex.target
            n = min(len(seq) - 1, steps)
            inputs[:n, i] = seq[:n]
            targets[:n, i] = seq[1:n + 1]
            weights[:n, i] = 1.0
        weights[targets == self.pad_index] = 0.0  # appended padding is never predicted
        hidden = self.decoder.sequence(tape, inputs, h0, ws)
        cost, total = self.decoder.output_loss(tape, hidden, targets.reshape(-1),
                                               weights.reshape(-1), 1.0 / b, ws)
        return cost, total, int(weights.sum())

    def corpus_nll(self, examples: Sequence[EncodedExample],
                   max_timestep: int | None) -> tuple[float, int]:
        """Inference-mode total NLL and token count, in batches of ``NLL_BATCH_SIZE``."""
        total, count = 0.0, 0
        for i in range(0, len(examples), NLL_BATCH_SIZE):
            chunk = examples[i:i + NLL_BATCH_SIZE]
            _, nll, n = self.batch_loss(None, chunk, training=False,
                                        max_timestep=max_timestep)
            total += nll
            count += n
        return total, count

    def init_generation(self, triples: Sequence[tuple[int, int, int]]
                        ) -> tuple[Array, Array | None]:
        """Decoder (h, c) from one triple set (inference batch-norm path)."""
        h0 = self.encoder.encode_batch(None, [list(triples)], training=False)
        return self.decoder.initial_state(h0.value)

    # -- persistence ----------------------------------------------------

    def _header(self) -> dict:
        head = asdict(self.config)
        head["source_vocab_sha256"] = self.source_vocab.content_hash()
        head["target_vocab_sha256"] = self.target_vocab.content_hash()
        head["source_vocab_size"] = len(self.source_vocab)
        head["target_vocab_size"] = len(self.target_vocab)
        return head

    def state_blocks(self) -> list[tuple[str, Array]]:
        """Every array a checkpoint holds, by block name: the parameters,
        then the batch-norm running statistics."""
        blocks = [(p.name, p.value) for p in self.parameters()]
        for bn in self.batch_norms():
            blocks.extend(bn.state_blocks())
        return blocks

    def save(self, path: str) -> None:
        nn.write_blocks(path, self._header(), self.state_blocks())

    @classmethod
    def load(cls, path: str, source_vocab: Vocabulary, target_vocab: Vocabulary,
             expect_cell: str | None = None) -> "Seq2Seq":
        header, blocks = nn.read_blocks(path)
        config = _header_config(path, header)
        if header.get("source_vocab_sha256") != source_vocab.content_hash():
            raise CheckpointMismatchError(f"{path}: source vocabulary hash mismatch")
        if header.get("target_vocab_sha256") != target_vocab.content_hash():
            raise CheckpointMismatchError(f"{path}: target vocabulary hash mismatch")
        if expect_cell is not None and config.cell_kind != expect_cell:
            raise CheckpointMismatchError(
                f"{path}: checkpoint holds a {config.cell_kind} decoder, not {expect_cell}")
        # The blocks read are bounded by the file's size; matching them
        # against m and e_max first keeps a corrupt header from sizing the
        # model (e_max·m·m values in aggregate_w) beyond what the file holds.
        m, e_max = config.m, config.e_max
        for name, shape in (("decoder.embed", (len(target_vocab), m)),
                            ("encoder.aggregate_w", (e_max * m, m))):
            if name not in blocks or blocks[name].shape != shape:
                raise nn.BadCheckpointError(
                    f"{path}: block {name} is missing or not of shape {shape}, "
                    f"as the header's m={m}, e_max={e_max} require")
        model = cls(config, source_vocab, target_vocab)
        for name, arr in model.state_blocks():
            if name not in blocks:
                raise nn.BadCheckpointError(f"{path}: missing block {name}")
            if blocks[name].shape != arr.shape:
                raise nn.BadCheckpointError(
                    f"{path}: block {name} has shape {blocks[name].shape}, expected {arr.shape}")
            arr[...] = blocks[name]  # rounded once, to the model's dtype
        return model
