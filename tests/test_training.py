import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import make_model, make_vocab, read_jsonl
from triples2text import nn, pipeline, training
from triples2text.demo import demo_corpus
from triples2text.model import EncodedExample, ModelConfig, Seq2Seq
from triples2text.pipeline import AlignedExample, PipelineConfig, SummaryToken, Triple
from triples2text.training import TrainConfig, boundary_lr_schedule
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
                                  toks, ["x", f"w{i % 3}"]))
    return out


def build_vocabs(examples):
    from triples2text.vocab import build_source_vocab, build_target_vocab
    return (build_source_vocab(examples, min_count=1),
            build_target_vocab(examples, max_size=100))


# -- sequence loss -----------------------------------------------------------


class UniformStub:
    """Model stub whose per-step distribution is uniform over |X| tokens."""

    def __init__(self, x_size):
        self.x = x_size

    def batch_loss(self, tape, batch, training, max_timestep=None, update_running=True):
        total = 0.0
        count = 0
        for ex in batch:
            steps = len(ex.target) - 1
            total += steps * math.log(self.x)
            count += steps
        cost = nn.leaf(np.array([[total / len(batch)]]))
        return cost, total, count


def test_sequence_loss_uniform_stub():
    stub = UniformStub(50)
    batch = [EncodedExample([], [1, 7, 7, 7, 2])]
    cost = training.sequence_loss(batch, stub)
    assert abs(cost - 4 * math.log(50)) < 1e-12


def test_sequence_loss_hand_probabilities():
    # two predicted tokens with probabilities 0.5 and 0.25: ln2 + ln4
    class TwoStep:
        def batch_loss(self, tape, batch, training, max_timestep=None,
                       update_running=True):
            nll = -(math.log(0.5) + math.log(0.25))
            return nn.leaf(np.array([[nll]])), nll, 2
    assert abs(training.sequence_loss([EncodedExample([], [1, 5, 2])], TwoStep())
               - (math.log(2) + math.log(4))) < 1e-12


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
    _, result = training.train(examples, examples[:2], cfg, sv, tv,
                               out_dir=str(tmp_path / "run"))
    expected = boundary_lr_schedule(cfg, 6)
    assert result.boundary_lrs == expected
    records = read_jsonl(result.log_path)
    logged = [r["lr_boundary"] for r in records if r["type"] == "epoch_start"]
    assert logged == expected


def test_exact_update_count():
    # 1 epoch on 170 examples with batch 85 performs exactly 2 updates
    examples = toy_examples(170)
    sv, tv = build_vocabs(examples)
    cfg = small_config(epochs=1, batch_size=85)
    _, result = training.train(examples, [], cfg, sv, tv, out_dir=None)
    assert result.epochs_run == 1
    batches = training.make_batches([None] * 170, 85)
    assert len(batches) == 2


def test_reproducibility_same_seed_same_curve(tmp_path):
    examples = toy_examples(12)
    sv, tv = build_vocabs(examples)
    curves = []
    for run in range(2):
        cfg = small_config(epochs=3, seed=7)
        _, result = training.train(examples, examples[:3], cfg, sv, tv,
                                   out_dir=str(tmp_path / f"r{run}"))
        records = read_jsonl(result.log_path)
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
            toks, ["r"]))
    sv, tv = build_vocabs(examples)
    cfg = small_config(epochs=200, batch_size=10, m=32, seed=3, l2=0.0,
                       decay_start_epoch=10**9)
    model = Seq2Seq(cfg.model_config(), sv, tv)
    model.init_parameters(cfg.seed)
    encoded = [model.encode_example(ex) for ex in examples]
    initial = training.sequence_loss(encoded, model)
    model, _ = training.train(examples, [], cfg, sv, tv, model=model)
    final = training.sequence_loss([model.encode_example(ex) for ex in examples], model)
    assert final < 0.1 * initial, (initial, final)


def test_early_stopping_respects_patience(tmp_path):
    examples = toy_examples(8)
    sv, tv = build_vocabs(examples)
    cfg = small_config(epochs=50, patience=2, seed=0, learning_rate=0.0)
    # no batch norm and zero learning rate: validation perplexity is frozen,
    # so nothing improves after epoch 0 and training stops at epoch 3
    mcfg = cfg.model_config()
    mcfg.use_batch_norm = False
    model = Seq2Seq(mcfg, sv, tv)
    model.init_parameters(cfg.seed)
    _, result = training.train(examples, examples[:2], cfg, sv, tv,
                               out_dir=str(tmp_path / "run"), model=model)
    assert result.epochs_run == 4
    assert result.best_epoch == 0


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = make_model(seed=4, cell="lstm")
    # move the running statistics off their defaults
    model.encoder.bn_out.running_mean[...] = 0.25
    path = str(tmp_path / "model.bin")
    model.save(path)
    loaded = Seq2Seq.load(path, model.source_vocab, model.target_vocab)
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.value, b.value)
    assert np.array_equal(loaded.encoder.bn_out.running_mean,
                          model.encoder.bn_out.running_mean)
    assert loaded.config == model.config


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
                        examples[0].summary_tokens, ["r"])
    enc = model.encode_example(ex)
    assert len(enc.triples) == 1


# -- numerics regression -------------------------------------------------------

# Per-batch costs and final parameter norms of two fixed-seed demo runs,
# recorded before the decoder was cut to one layer. Any rewrite of the
# decoder or the training step must reproduce them within 1e-9 relative
# (1e-12 absolute, for norms that are rounding noise around zero).
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


@pytest.mark.parametrize("cell", sorted(PINNED_RUNS))
def test_fixed_seed_run_matches_pinned_numerics(cell, tmp_path):
    paths = demo_corpus(7, 30, str(tmp_path))
    articles = pipeline.read_articles(paths["triples"], paths["summaries"])
    examples, stats, _ = pipeline.build_corpus(
        articles, pipeline.read_tsv_map(paths["instance_types"]),
        PipelineConfig(gender_lexicon=pipeline.read_tsv_map(paths["genders"])))
    source, target = build_source_vocab(examples, 2), build_target_vocab(examples, 1000)
    cfg = TrainConfig(batch_size=5, max_timestep=30, epochs=3, seed=4, cell_kind=cell,
                      m=8, e_max=stats.e_max, learning_rate=0.01, decay_start_epoch=1,
                      patience=None)
    out = str(tmp_path / "run")
    model, _ = training.train(examples[:25], examples[25:], cfg, source, target, out_dir=out)
    costs = [r["cost"] for r in read_jsonl(os.path.join(out, "train_log.jsonl"))
             if r["type"] == "batch"]
    norms = {p.name: float(np.linalg.norm(p.value)) for p in model.parameters()}
    want_costs, want_norms = PINNED_RUNS[cell]
    assert costs == pytest.approx(want_costs, rel=1e-9)
    assert norms == pytest.approx(want_norms, rel=1e-9, abs=1e-12)
