import hashlib
import math
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import boundary_lr_schedule, make_model, make_vocab, read_jsonl
from triples2text import nn, pipeline, training
from triples2text.demo import demo_corpus
from triples2text.model import EncodedExample, ModelConfig, Seq2Seq
from triples2text.pipeline import AlignedExample, PipelineConfig, SummaryToken, Triple
from triples2text.training import TrainConfig
from triples2text.vocab import build_source_vocab, build_target_vocab


def small_config(**kw):
    defaults = dict(batch_size=2, max_timestep=20, epochs=2, seed=0,
                    cell_kind="gru", m=4, e_max=2, patience=None)
    defaults.update(kw)
    return TrainConfig(**defaults)


def toy_examples(n, main_prefix="dbr:P"):
    out = []
    for i in range(n):
        toks = ([SummaryToken("special", "<start>"), SummaryToken("special", "<item>"),
                 SummaryToken("word", f"w{i % 3}"), SummaryToken("special", "<end>")])
        out.append(AlignedExample(f"{main_prefix}{i}",
                                  [Triple("<item>", "dbo:p", f"dbr:O{i % 3}")],
                                  toks, ["x", f"w{i % 3}"], "uri"))
    return out


def build_vocabs(examples):
    from triples2text.vocab import build_source_vocab, build_target_vocab
    return (build_source_vocab(examples, min_count=1),
            build_target_vocab(examples, max_size=100, min_count=1))


# -- sequence loss -----------------------------------------------------------


def test_perfect_model_zero_cost():
    model = make_model(seed=1, target_extra=3)
    # force probability ~1 on one token by a huge output bias
    model.decoder.out_w.value[...] = 0.0
    model.decoder.out_b.value[...] = 0.0
    tok = model.target_vocab.index["t0"]
    model.decoder.out_b.value[0, tok] = 500.0
    batch = [EncodedExample([(1, 2, 3)], [model.start_index, tok, tok]),
             EncodedExample([(1, 2, 3)], [model.start_index, tok, tok])]
    cost, _, _ = model.batch_loss(None, batch, training=False)
    assert cost.value[0, 0] < 1e-10


def test_loss_masking_padding_never_changes_cost():
    model = make_model(seed=2)
    pad = model.pad_index
    base = [EncodedExample([(1, 2, 3)], [model.start_index, 10, 11, model.end_index]),
            EncodedExample([(0, 1, 2)], [model.start_index, 9, model.end_index])]
    padded = [EncodedExample(ex.triples, ex.target + [pad] * 3) for ex in base]
    c1, n1, k1 = model.batch_loss(None, base, training=False)
    c2, n2, k2 = model.batch_loss(None, padded, training=False)
    assert abs(c1.value[0, 0] - c2.value[0, 0]) < 1e-12
    assert n1 == n2 and k1 == k2


def test_batch_loss_empty_batch_raises():
    model = make_model()
    with pytest.raises(ValueError, match="empty"):
        model.batch_loss(None, [], training=False)


# -- schedule ------------------------------------------------------------------


def test_boundary_lr_schedule_matches_stated_rule():
    cfg = small_config(learning_rate=0.002, decay_factor=0.8, decay_start_epoch=3)
    lrs = boundary_lr_schedule(cfg, 7)
    expected = [0.002, 0.002, 0.002, 0.002]
    lr = 0.002
    for _ in range(2):
        lr *= 0.8
    expected.append(lr)      # epoch 4: decays at 3.0 and 3.5 applied
    for _ in range(2):
        lr *= 0.8
    expected.append(lr)      # epoch 5: 0.002 * 0.8^4
    for _ in range(2):
        lr *= 0.8
    expected.append(lr)
    assert lrs == expected
    assert lrs[5] == 0.002 * 0.8 * 0.8 * 0.8 * 0.8


def test_training_log_boundary_lrs_match_schedule(tmp_path):
    examples = toy_examples(8)
    sv, tv = build_vocabs(examples)
    cfg = small_config(epochs=6, batch_size=2, learning_rate=0.002,
                       decay_factor=0.8, decay_start_epoch=3)
    training.train(examples, examples[:2], cfg, sv, tv, out_dir=str(tmp_path / "run"))
    expected = boundary_lr_schedule(cfg, 6)
    records = read_jsonl(tmp_path / "run" / "train_log.jsonl")
    logged = [r["lr_boundary"] for r in records if r["type"] == "epoch_start"]
    assert logged == expected


def test_exact_update_count():
    # 1 epoch on 170 examples with batch 85 performs exactly 2 updates
    examples = toy_examples(170)
    sv, tv = build_vocabs(examples)
    cfg = small_config(epochs=1, batch_size=85)
    _, result = training.train(examples, [], cfg, sv, tv, out_dir=None)
    assert result.epochs_run == 1
    batches = training.make_batches([None] * 170, 85, np.random.default_rng(0))
    assert len(batches) == 2


def test_reproducibility_same_seed_same_curve(tmp_path):
    examples = toy_examples(12)
    sv, tv = build_vocabs(examples)
    curves = []
    for run in range(2):
        cfg = small_config(epochs=3, seed=7)
        training.train(examples, examples[:3], cfg, sv, tv, out_dir=str(tmp_path / f"r{run}"))
        records = read_jsonl(tmp_path / f"r{run}" / "train_log.jsonl")
        curves.append([r["cost"] for r in records if r["type"] == "batch"])
    assert curves[0] == curves[1]


def test_divergence_aborts_with_location():
    examples = toy_examples(4)
    sv, tv = build_vocabs(examples)
    cfg = small_config(epochs=1, learning_rate=1e9, clip_norm=None, seed=1)
    model = Seq2Seq(cfg.model_config(), sv, tv)
    model.init_parameters(0)
    model.decoder.out_b.value[...] = np.inf  # guarantees a non-finite cost
    with pytest.raises(training.TrainingDivergedError, match="epoch 0"):
        training.train(examples, [], cfg, sv, tv, model=model)


def test_overfit_small_corpus():
    # training cost falls below a tenth of its initial value
    rng = np.random.default_rng(0)
    examples = []
    for i in range(50):
        toks = [SummaryToken("special", "<start>"), SummaryToken("special", "<item>")]
        for j in range(int(rng.integers(2, 5))):
            toks.append(SummaryToken("word", f"w{(i + j) % 7}"))
        toks.append(SummaryToken("special", "<end>"))
        examples.append(AlignedExample(
            f"dbr:P{i}", [Triple("<item>", "dbo:p", f"dbr:O{i % 7}")],
            toks, ["r"], "uri"))
    sv, tv = build_vocabs(examples)
    cfg = small_config(epochs=200, batch_size=10, m=32, seed=3, l2=0.0,
                       decay_start_epoch=10**9)
    model = Seq2Seq(cfg.model_config(), sv, tv)
    model.init_parameters(cfg.seed)
    encoded = [model.encode_example(ex) for ex in examples]

    def cost():  # inference mode, batch-averaged and time-summed
        return float(model.batch_loss(None, encoded, training=False)[0].value[0, 0])
    initial = cost()
    model, _ = training.train(examples, [], cfg, sv, tv, model=model)
    final = cost()
    assert final < 0.1 * initial, (initial, final)


def test_early_stopping_respects_patience(tmp_path, monkeypatch):
    examples = toy_examples(8)
    sv, tv = build_vocabs(examples)
    # frozen running statistics (the old ones keep all their weight), and a
    # learning rate whose steps are below the weights' rounding (a rate of 0
    # is out of range): validation perplexity is frozen, so nothing
    # improves after epoch 0 and training stops at epoch 3
    monkeypatch.setattr(nn.BatchNorm, "momentum", 1.0)
    cfg = small_config(epochs=50, patience=2, seed=0, learning_rate=1e-300)
    _, result = training.train(examples, examples[:2], cfg, sv, tv,
                               out_dir=str(tmp_path / "run"))
    assert result.epochs_run == 4
    assert result.best_epoch == 0


# -- the run's workspace -----------------------------------------------------------


def ragged_examples(n, lengths, seed, prefix="dbr:P"):
    """Examples whose summaries have a number of words drawn from ``lengths``."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        words = [SummaryToken("word", f"w{int(v)}")
                 for v in rng.integers(0, 9, int(rng.integers(*lengths)))]
        toks = [SummaryToken("special", "<start>"), SummaryToken("special", "<item>"),
                *words, SummaryToken("special", "<end>")]
        out.append(AlignedExample(f"{prefix}{i}", [Triple("<item>", "dbo:p", f"dbr:O{i % 4}")],
                                  toks, ["x"], "uri"))
    return out


def _workspace_run(cell, tmp_path, name):
    # batches of 10, 10 and 3 rows whose lengths go up and down, and
    # validation at batch 32 (a batch of 32 and one of 8) with longer
    # summaries after each epoch
    train_set = ragged_examples(23, (1, 9), seed=1)
    valid_set = ragged_examples(40, (6, 14), seed=2, prefix="dbr:V")
    sv, tv = build_vocabs(train_set + valid_set)
    cfg = small_config(epochs=3, batch_size=10, cell_kind=cell, m=6, seed=5)
    out = tmp_path / name
    model, _ = training.train(train_set, valid_set, cfg, sv, tv, out_dir=str(out))
    return read_jsonl(out / "train_log.jsonl"), model


def _without_timing(records):
    return [{k: v for k, v in r.items() if k not in ("wall_s", "minor_faults")}
            for r in records]


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_workspace_reuse_matches_fresh_arrays(cell, tmp_path, monkeypatch):
    # every loan fresh and full of NaN: a read of a stale value would show
    monkeypatch.setattr(nn.Workspace, "take",
                        lambda self, key, shape, dtype: np.full(shape, np.nan, dtype))
    fresh_records, fresh_model = _workspace_run(cell, tmp_path, "fresh")
    monkeypatch.undo()
    made = []

    class Recorded(nn.Workspace):
        def __init__(self):
            super().__init__()
            self.rows = []
            made.append(self)

        def take(self, key, shape, dtype):
            if key == "logits":
                self.rows.append(shape[0])
            return super().take(key, shape, dtype)

    monkeypatch.setattr(nn, "Workspace", Recorded)
    records, model = _workspace_run(cell, tmp_path, "reused")
    assert [len(ws.rows) for ws in made] == [3, 3, 3]  # one workspace per epoch's batches
    steps = [b - a for ws in made for a, b in zip(ws.rows, ws.rows[1:])]
    assert min(steps) < 0 < max(steps)  # buffers lent smaller, then larger again
    # costs, gradient norms and validation perplexities
    assert _without_timing(records) == _without_timing(fresh_records)
    for (name, a), (_, b) in zip(model.state_blocks(), fresh_model.state_blocks()):
        assert np.array_equal(a, b), name


def test_workspace_does_not_outlive_train(tmp_path, monkeypatch):
    alive = []

    class Recorded(nn.Workspace):
        def __init__(self):
            super().__init__()
            alive.append(weakref.ref(self))

        def take(self, key, shape, dtype):
            out = super().take(key, shape, dtype)
            alive.append(weakref.ref(out.base))
            return out

    monkeypatch.setattr(nn, "Workspace", Recorded)
    _workspace_run("lstm", tmp_path, "run")
    assert len(alive) > 3
    assert all(ref() is None for ref in alive)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_training_step_and_generation_stay_in_float32(cell, monkeypatch):
    # a model built as train() builds it; a float64 temporary that leaked
    # into any of these arrays would widen it
    examples = ragged_examples(6, (2, 7), seed=3)
    sv, tv = build_vocabs(examples)
    cfg = small_config(cell_kind=cell, m=6, batch_size=6)
    model = Seq2Seq(cfg.model_config(), sv, tv)
    model.init_parameters(cfg.seed)
    loans, nodes = [], []

    def kept(op):
        def run(*args, **kwargs):
            nodes.append(op(*args, **kwargs))
            return nodes[-1]
        return run

    # the encoder's and the recurrence's output nodes, whose gradients
    # pass between the three recorded ops
    monkeypatch.setattr(model.encoder, "encode_batch", kept(model.encoder.encode_batch))
    monkeypatch.setattr(model.decoder, "sequence", kept(model.decoder.sequence))

    class Recorded(nn.Workspace):
        def take(self, key, shape, dtype):
            loans.append((key, super().take(key, shape, dtype)))
            return loans[-1][1]

    params = model.parameters()
    tape = nn.Tape()
    cost, _, _ = model.batch_loss(tape, [model.encode_example(ex) for ex in examples],
                                  training=True, ws=Recorded())
    tape.backward(cost)
    nn.clip_gradients(params, 1e-3)  # small enough to scale every gradient
    nn.rmsprop_step(params, 0.01, l2_coefficient=1e-5)
    h, c = model.init_generation(model.encode_example(examples[0]).triples)
    h2, c2 = model.decoder.step(np.array([model.start_index]), h, c)
    arrays = ([(f"{p.name}.{part}", getattr(p, part))
               for p in params for part in ("value", "grad", "rms_acc")]
              + [(name, a) for bn in model.batch_norms() for name, a in bn.state_blocks()]
              + [(f"loan {key}", a) for key, a in loans]
              + [(f"node {i} {part}", getattr(node, part))
                 for i, node in enumerate(nodes[:2]) for part in ("value", "grad")]
              + [("init_generation h", h), ("step h", h2),
                 ("log_distribution", model.decoder.log_distribution(h2))]
              + ([("init_generation c", c), ("step c", c2)] if cell == "lstm" else []))
    assert {"logits", "hs", "acts"} <= {key for key, _ in loans}
    assert [name for name, a in arrays if a.dtype != np.float32] == []


def test_batch_records_count_minor_faults(tmp_path):
    records, _ = _workspace_run("gru", tmp_path, "run")
    batches = [r for r in records if r["type"] == "batch"]
    assert len(batches) == 9
    assert all(type(r["minor_faults"]) is int and r["minor_faults"] >= 0 for r in batches)


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    # float32 values widen to the container's float64 exactly and round
    # back to themselves
    model = make_model(seed=4, cell="lstm")
    # move the running statistics off their defaults
    model.encoder.bn_out.running_mean[...] = 0.25
    model.encoder.bn_hidden.running_var[...] = np.random.default_rng(0).uniform(0.5, 2.0, 4)
    path = str(tmp_path / "model.bin")
    model.save(path)
    loaded = Seq2Seq.load(path, model.source_vocab, model.target_vocab)
    blocks = model.state_blocks()
    assert [name for name, _ in loaded.state_blocks()] == [name for name, _ in blocks]
    for (name, a), (_, b) in zip(blocks, loaded.state_blocks()):
        assert a.dtype == b.dtype == np.float32, name
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32)), name
    assert loaded.config == model.config


def test_validation_perplexity_overflows_to_inf():
    class Huge:
        def corpus_nll(self, examples, max_timestep=None):
            return 800.0 * 3, 3  # a mean NLL above log(float max)
    assert training.validation_perplexity(Huge(), []) == math.inf


def test_checkpoint_truncated_rejected(tmp_path):
    model = make_model(seed=4)
    path = str(tmp_path / "model.bin")
    model.save(path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(nn.BadCheckpointError):
        Seq2Seq.load(path, model.source_vocab, model.target_vocab)


def test_checkpoint_cell_kind_mismatch(tmp_path):
    from triples2text.model import CheckpointMismatchError
    model = make_model(seed=4, cell="gru")
    path = str(tmp_path / "model.bin")
    model.save(path)
    with pytest.raises(CheckpointMismatchError, match="gru"):
        Seq2Seq.load(path, model.source_vocab, model.target_vocab,
                     expect_cell="lstm")


def test_checkpoint_vocab_hash_mismatch(tmp_path):
    model = make_model(seed=4)
    path = str(tmp_path / "model.bin")
    model.save(path)
    other_target = make_vocab("target", 9, "q")
    from triples2text.model import CheckpointMismatchError
    with pytest.raises(CheckpointMismatchError, match="hash"):
        Seq2Seq.load(path, model.source_vocab, other_target)


def test_rare_predicate_triples_discarded_at_encode():
    examples = toy_examples(4)
    sv, tv = build_vocabs(examples)
    model = Seq2Seq(ModelConfig(cell_kind="gru", m=4, e_max=3), sv, tv)
    ex = AlignedExample("dbr:P", [Triple("<item>", "dbo:p", "dbr:O0"),
                                  Triple("<item>", "dbo:never_seen", "dbr:O0")],
                        examples[0].summary_tokens, ["r"], "uri")
    enc = model.encode_example(ex)
    assert len(enc.triples) == 1


# -- numerics regression -------------------------------------------------------

# Per-batch costs and final parameter norms of two fixed-seed demo runs
# in float64, recorded before the decoder was cut to one layer. Any
# rewrite of the decoder or the training step must reproduce them within
# 1e-9 relative (1e-12 absolute, for norms that are rounding noise around
# zero) on a float64 model.
PINNED_RUNS = {
    "gru": (
        [
            74.28132653213946, 70.1079332024962, 71.30007034340723,
            73.45984216549202, 67.43220458614306, 67.96802194057902,
            63.83011312490862, 61.001789042010785, 59.15903270175158,
            58.67233348369546, 56.20319305488815, 57.528023312008685,
            61.967013066004874, 57.19306738464776, 57.37155958376176,
        ],
        {
            "encoder.embed": 1.3536597985249073,
            "encoder.embed_bias": 0.0015229617033203854,
            "encoder.hidden": 1.0633035737182996,
            "encoder.aggregate_w": 1.301059492914997,
            "encoder.aggregate_b": 0.0012554515871319668,
            "encoder.bn_embed.scale": 2.8265921708113866,
            "encoder.bn_embed.shift": 1.1160363351079248e-15,
            "encoder.bn_hidden.scale": 2.7213157469763405,
            "encoder.bn_hidden.shift": 0.1932407347945924,
            "encoder.bn_out.scale": 3.3383381776099075,
            "encoder.bn_out.shift": 0.713111441299288,
            "decoder.embed": 2.454458091348896,
            "decoder.l0.gates_w": 2.3064793576828815,
            "decoder.l0.gates_b": 0.6268742516041649,
            "decoder.l0.cand_in_w": 1.611837995285952,
            "decoder.l0.cand_in_b": 0.5680221021261871,
            "decoder.l0.cand_hh_w": 1.560818258590683,
            "decoder.out_w": 4.446022279795861,
            "decoder.out_b": 1.334820668308187,
        },
    ),
    "lstm": (
        [
            74.2806180798389, 70.10396645273777, 71.42162002757186,
            73.97443506552023, 68.53221801189844, 70.84731384342929,
            68.34336149238585, 65.75602402551435, 62.03420253145964,
            61.5929539620601, 58.421066261735156, 59.21070009743153,
            63.34665446662231, 58.502975199690745, 58.565982504222326,
        ],
        {
            "encoder.embed": 1.2131370563612198,
            "encoder.embed_bias": 0.001522961703294006,
            "encoder.hidden": 1.0530907671762402,
            "encoder.aggregate_w": 1.1132602375052043,
            "encoder.aggregate_b": 0.001255451587165178,
            "encoder.bn_embed.scale": 2.870794145392811,
            "encoder.bn_embed.shift": 8.343478388002971e-16,
            "encoder.bn_hidden.scale": 2.848553929765266,
            "encoder.bn_hidden.shift": 0.25740097632091524,
            "encoder.bn_out.scale": 2.90389256007986,
            "encoder.bn_out.shift": 0.5819382574917491,
            "decoder.embed": 2.663533645589409,
            "decoder.l0.gates_w": 3.9859823099117127,
            "decoder.l0.gates_b": 0.995034484495442,
            "decoder.out_w": 4.526021486504592,
            "decoder.out_b": 1.5423458341597562,
        },
    ),
}


def _pinned_run(cell, tmp_path, float64):
    """The training log records and the trained model of a small
    fixed-seed demo run: in float32, or with ``float64`` on a model recast
    before its initialisation and passed to ``training.train``."""
    paths = demo_corpus(7, 30, str(tmp_path))
    articles = pipeline.read_articles(paths["triples"], paths["summaries"])
    examples, stats, _ = pipeline.build_corpus(
        articles, pipeline.read_tsv_map(paths["instance_types"]),
        PipelineConfig(gender_lexicon=pipeline.read_tsv_map(paths["genders"])))
    source, target = build_source_vocab(examples, 2), build_target_vocab(examples, 1000, 1)
    cfg = TrainConfig(batch_size=5, max_timestep=30, epochs=3, seed=4, cell_kind=cell,
                      m=8, e_max=stats.e_max, learning_rate=0.01, decay_start_epoch=1,
                      patience=None)
    model = Seq2Seq(cfg.model_config(), source, target)
    if float64:
        model.to_float64()
    model.init_parameters(cfg.seed)
    out = str(tmp_path / "run")
    model, _ = training.train(examples[:25], examples[25:], cfg, source, target, out_dir=out,
                              model=model)
    return read_jsonl(os.path.join(out, "train_log.jsonl")), model


def logged(records, kind, key):
    return [r[key] for r in records if r["type"] == kind]


@pytest.mark.parametrize("cell", sorted(PINNED_RUNS))
def test_fixed_seed_run_matches_pinned_numerics(cell, tmp_path):
    records, model = _pinned_run(cell, tmp_path, float64=True)
    costs = logged(records, "batch", "cost")
    norms = {p.name: float(np.linalg.norm(p.value)) for p in model.parameters()}
    want_costs, want_norms = PINNED_RUNS[cell]
    assert costs == pytest.approx(want_costs, rel=1e-9)
    assert norms == pytest.approx(want_norms, rel=1e-9, abs=1e-12)


# SHA-256 of the same runs' per-batch costs (float64 bytes) followed by
# every checkpoint block (name, then float64 bytes), recorded in float64
# before the encoder became one fused op. Unlike PINNED_RUNS this allows
# no drift at all.
PINNED_DIGESTS = {
    "gru": "7ffafc12c50170253e44aa1217b79207792a69237882fda29993a382cabd90c7",
    "lstm": "474aaab0b90d0d9cfc4dfdede2f2d20e04b128a7ee1859baba04b15b98c4946f",
}

# The same digests of the same runs in float32, recorded when training
# moved to float32.
PINNED_DIGESTS_FLOAT32 = {
    "gru": "4505b71fbb7527ac6c887c38dc5252c8ce0dc9024b7e402faff9d65f72eed1c9",
    "lstm": "1336325f50ad48d2fadf4460d113876baa86c59a4a756cb8d76979916a099c8d",
}


def run_digest(costs, model) -> str:
    h = hashlib.sha256(np.asarray(costs, dtype="<f8").tobytes())
    for name, arr in model.state_blocks():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def run_of(cell, tmp_path, float64):
    records, model = _pinned_run(cell, tmp_path, float64)
    return logged(records, "batch", "cost"), model


@pytest.mark.parametrize("cell", sorted(PINNED_DIGESTS))
def test_fixed_seed_run_is_bit_identical(cell, tmp_path):
    assert run_digest(*run_of(cell, tmp_path, float64=True)) == PINNED_DIGESTS[cell]


@pytest.mark.parametrize("cell", sorted(PINNED_DIGESTS_FLOAT32))
def test_fixed_seed_float32_run_is_bit_identical(cell, tmp_path):
    assert run_digest(*run_of(cell, tmp_path, float64=False)) == PINNED_DIGESTS_FLOAT32[cell]


def drift_tolerances() -> dict[str, float]:
    """The relative drift README.md allows between float32 and float64 runs."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| (per-[a-z -]+) \| ([0-9.e-]+) \|$",
                      readme.read_text(encoding="utf-8"), re.M)
    return {name: float(tol) for name, tol in rows}


@pytest.mark.parametrize("cell", sorted(PINNED_RUNS))
def test_float32_run_drifts_from_float64_within_the_stated_tolerances(cell, tmp_path):
    tol = drift_tolerances()
    assert sorted(tol) == ["per-batch training cost", "per-epoch validation perplexity"]
    narrow, _ = _pinned_run(cell, tmp_path / "float32", float64=False)
    wide, _ = _pinned_run(cell, tmp_path / "float64", float64=True)
    for kind, key, name in (("batch", "cost", "per-batch training cost"),
                            ("epoch", "validation_perplexity", "per-epoch validation perplexity")):
        got, want = logged(narrow, kind, key), logged(wide, kind, key)
        assert len(got) == len(want) and got != want  # the two runs took different bits
        assert got == pytest.approx(want, rel=tol[name]), name
