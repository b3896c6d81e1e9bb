import dataclasses
import hashlib
import json
import os
import struct
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import read_jsonl
from triples2text import cli, evaluation, generation, nn, training
from triples2text.model import Seq2Seq
from triples2text.tokens import END
from triples2text.training import TrainConfig, TrainResult

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run(argv):
    return cli.main(argv)


def file_hashes(paths):
    out = {}
    for p in paths:
        with open(p, "rb") as fh:
            out[p] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("demo")
    assert run(["demo-corpus", "--out-dir", str(d), "--size", "30", "--seed", "5"]) == 0
    return str(d)


def test_demo_corpus_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["demo-corpus", "--out-dir", a, "--size", "12", "--seed", "3"]) == 0
    assert run(["demo-corpus", "--out-dir", b, "--size", "12", "--seed", "3"]) == 0
    for name in ("triples.nt", "summaries.jsonl", "instance_types.tsv", "genders.tsv"):
        assert Path(a, name).read_bytes() == Path(b, name).read_bytes()


def test_demo_corpus_size_floor(tmp_path):
    assert run(["demo-corpus", "--out-dir", str(tmp_path / "x"), "--size", "5"]) == 2


def test_build_corpus_happy_path_and_idempotence(demo_dir, tmp_path):
    cfg = os.path.join(demo_dir, "demo.cfg")
    out = str(tmp_path / "corpus.jsonl")
    inputs = [os.path.join(demo_dir, n) for n in
              ("triples.nt", "summaries.jsonl", "instance_types.tsv", "genders.tsv")]
    before = file_hashes(inputs)
    code = run(["--config", cfg, "build-corpus", "--out", out,
                "--stats-out", str(tmp_path / "stats.json"),
                "--lexicon-out", str(tmp_path / "lexicon.tsv")])
    assert code == 0
    assert os.path.exists(out)
    assert file_hashes(inputs) == before  # inputs never mutated
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["n_articles"] == 30


def test_build_vocab_and_train_and_generate(demo_dir, tmp_path):
    cfg = os.path.join(demo_dir, "demo.cfg")
    corpus = str(tmp_path / "corpus.jsonl")
    stats = str(tmp_path / "stats.json")
    lexicon = str(tmp_path / "lexicon.tsv")
    assert run(["--config", cfg, "build-corpus", "--out", corpus,
                "--stats-out", stats, "--lexicon-out", lexicon]) == 0
    tvocab = str(tmp_path / "target.vocab")
    svocab = str(tmp_path / "source.vocab")
    assert run(["--config", cfg, "build-vocab", "--corpus", corpus,
                "--target-out", tvocab, "--source-out", svocab]) == 0
    run_dir = str(tmp_path / "run")
    assert run(["train", "--corpus", corpus, "--valid-fraction", "0.2",
                "--source-vocab", svocab, "--target-vocab", tvocab,
                "--stats", stats, "--out-dir", run_dir,
                "--cell", "gru", "--m", "8", "--batch-size", "5",
                "--epochs", "2", "--max-timestep", "30", "--seed", "1"]) == 0
    ckpt = os.path.join(run_dir, "checkpoint_best.bin")
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(run_dir, "train_log.jsonl"))
    out = str(tmp_path / "gen.jsonl")
    assert run(["generate", "--checkpoint", ckpt, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--lexicon", lexicon,
                "--from-corpus", corpus, "--limit", "2", "--beam", "3",
                "--t-max", "25", "--out", out]) == 0
    rows = read_jsonl(out)
    assert rows and all("final_text" in r for r in rows)
    # evaluate and baseline commands produce reports
    report = str(tmp_path / "report.json")
    assert run(["evaluate", "--checkpoint", ckpt, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--corpus", corpus, "--lexicon", lexicon,
                "--beam", "2", "--t-max", "25", "--out", report,
                "--curve-csv", str(tmp_path / "curve.csv")]) == 0
    rep = json.loads(Path(report).read_text())
    assert "bleu" in rep and "perplexity" in rep
    n_inputs = len(read_jsonl(corpus))
    timing, beam = rep["timing"], rep["beam"]
    assert set(timing) == {"perplexity_s", "generate_s", "inputs_per_s"}
    assert timing["perplexity_s"] > 0 and timing["generate_s"] > 0
    assert timing["inputs_per_s"] == pytest.approx(n_inputs / timing["generate_s"])
    assert beam["inputs"] == rep["n_evaluated"] == n_inputs
    assert set(beam) == {"inputs", "forced_top1"}
    # with t_max 1 a top hypothesis is forced unless it is the bare <end>
    short = ["--beam", "2", "--t-max", "1", "--out"]
    assert run(["evaluate", "--checkpoint", ckpt, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--corpus", corpus, "--lexicon", lexicon,
                *short, report]) == 0
    assert run(["generate", "--checkpoint", ckpt, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--lexicon", lexicon, "--from-corpus", corpus,
                *short, out]) == 0
    tops = [r for r in read_jsonl(out) if r["rank"] == 0]
    assert len(tops) == n_inputs
    assert json.loads(Path(report).read_text())["beam"]["forced_top1"] == sum(
        r["tokens"] != [END] for r in tops)
    assert (tmp_path / "curve.csv").read_text().splitlines()[0] == "triple_count,bleu4"
    assert run(["baseline", "--kind", "random", "--train-corpus", corpus,
                "--eval-corpus", corpus, "--lexicon", lexicon,
                "--samples", "2", "--out", str(tmp_path / "rb.json")]) == 0
    assert run(["neighbors", "--checkpoint", ckpt, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--token", "dbr:Veldoria", "--k", "3"]) == 0


def test_usage_errors_exit_one(tmp_path):
    assert run(["train", "--config", "missing.cfg"]) == 1  # config not found
    assert run(["no-such-command"]) == 1
    assert run(["generate", "--checkpoint", "x", "--source-vocab", "y"]) == 1
    # removed options are rejected like any unknown flag; without them
    # both commands would fail later on the missing files, with exit 2
    missing = str(tmp_path / "missing")
    assert run(["build-corpus", "--triples", missing, "--summaries", missing,
                "--out", str(tmp_path / "c.jsonl"), "--threads", "2"]) == 1
    assert run(["generate", "--checkpoint", missing, "--source-vocab", missing,
                "--target-vocab", missing, "--types", "x"]) == 1
    train = ["train", "--corpus", missing, "--source-vocab", missing,
             "--target-vocab", missing, "--out-dir", str(tmp_path / "run")]
    assert run(train + ["--layers", "2"]) == 1
    assert run(train + ["--literal-lstm"]) == 1


@pytest.mark.parametrize("value", ["0", "-1"])
def test_train_max_timestep_below_one_is_usage_error(tmp_path, value, capsys):
    # rejected before any file is read: the missing corpus would exit 2
    missing = str(tmp_path / "missing")
    assert run(["train", "--corpus", missing, "--source-vocab", missing,
                "--target-vocab", missing, "--out-dir", str(tmp_path / "run"),
                f"--max-timestep={value}"]) == 1
    assert "--max-timestep" in capsys.readouterr().err
    with pytest.raises(ValueError, match="max_timestep"):
        TrainConfig(max_timestep=int(value))


def test_data_errors_exit_two(tmp_path):
    missing = str(tmp_path / "nope.jsonl")
    assert run(["build-vocab", "--corpus", missing,
                "--target-out", str(tmp_path / "t"),
                "--source-out", str(tmp_path / "s")]) == 2


def test_bad_stats_exit_two(demo_dir, tmp_path, capsys):
    cfg = os.path.join(demo_dir, "demo.cfg")
    corpus = str(tmp_path / "corpus.jsonl")
    stats = str(tmp_path / "stats.json")
    assert run(["--config", cfg, "build-corpus", "--out", corpus, "--stats-out", stats]) == 0
    tvocab, svocab = str(tmp_path / "t.vocab"), str(tmp_path / "s.vocab")
    assert run(["--config", cfg, "build-vocab", "--corpus", corpus,
                "--target-out", tvocab, "--source-out", svocab]) == 0
    good = json.loads(Path(stats).read_text())
    bad = str(tmp_path / "bad.json")
    for record in ({}, [], {**good, "e_std": None}, {**good, "e_max": "8"}):
        with open(bad, "w") as fh:
            json.dump(record, fh)
        assert run(["train", "--corpus", corpus, "--source-vocab", svocab,
                    "--target-vocab", tvocab, "--stats", bad,
                    "--out-dir", str(tmp_path / "run")]) == 2, record
        assert "bad stats record" in capsys.readouterr().err


def test_train_defaults_come_from_train_config(demo_dir, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    cfg = os.path.join(demo_dir, "demo.cfg")
    corpus = str(tmp_path / "corpus.jsonl")
    assert run(["--config", cfg, "build-corpus", "--out", corpus]) == 0
    tvocab, svocab = str(tmp_path / "t.vocab"), str(tmp_path / "s.vocab")
    assert run(["--config", cfg, "build-vocab", "--corpus", corpus,
                "--target-out", tvocab, "--source-out", svocab]) == 0
    seen = []

    def fake_train(corpus, valid, tcfg, *args, **kwargs):
        seen.append(tcfg)
        return None, TrainResult(0, 1.0, 0, 0.0, None, None)

    monkeypatch.setattr(training, "train", fake_train)
    assert run(["train", "--corpus", corpus, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--out-dir", str(tmp_path / "run")]) == 0
    got, = seen
    from_data = ("e_max", "mode", "bound_lower", "bound_upper")
    assert got == dataclasses.replace(TrainConfig(), **{k: getattr(got, k) for k in from_data})


def test_corrupt_checkpoint_exit_three(demo_dir, tmp_path, monkeypatch):
    cfg = os.path.join(demo_dir, "demo.cfg")
    corpus = str(tmp_path / "corpus.jsonl")
    assert run(["--config", cfg, "build-corpus", "--out", corpus]) == 0
    tvocab, svocab = str(tmp_path / "t.vocab"), str(tmp_path / "s.vocab")
    assert run(["--config", cfg, "build-vocab", "--corpus", corpus,
                "--target-out", tvocab, "--source-out", svocab]) == 0
    bad = str(tmp_path / "bad.bin")
    Path(bad).write_bytes(b"junkjunkjunk")
    assert run(["generate", "--checkpoint", bad, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--from-corpus", corpus]) == 3
    Path(bad).write_bytes(b"T2TB" + struct.pack("<II", 1, 2) + b"\xff\xfe")  # non-UTF-8 header
    assert run(["generate", "--checkpoint", bad, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--from-corpus", corpus]) == 3
    # Checkpoints of decoders this code no longer builds, written by the
    # release that still had ``train --layers`` and ``--literal-lstm`` (m=2,
    # trained on this module's demo corpus, so the vocabulary hashes match).
    # Loading them as a one-layer tanh model would silently drop the l1
    # blocks or change the cell, so they are refused.
    for name in ("checkpoint_v1_gru_layers2.bin", "checkpoint_v1_lstm_sigmoid_candidate.bin"):
        assert run(["generate", "--checkpoint", os.path.join(DATA, name),
                    "--source-vocab", svocab, "--target-vocab", tvocab,
                    "--from-corpus", corpus, "--limit", "1"]) == 3, name
    header, blocks = nn.read_blocks(os.path.join(DATA, "checkpoint_v1_gru_layers2.bin"))
    blocks = [(k, v) for k, v in blocks.items() if not k.startswith("decoder.l1.")]
    served = {**header, "layers": 1}

    def generate_with(header_values, replaced_blocks=()):
        replaced = dict(replaced_blocks)
        nn.write_blocks(bad, {**served, **header_values},
                        [(k, replaced.get(k, v)) for k, v in blocks])
        return run(["generate", "--checkpoint", bad, "--source-vocab", svocab,
                    "--target-vocab", tvocab, "--from-corpus", corpus, "--limit", "1",
                    "--beam", "2", "--t-max", "5"])

    assert generate_with({}) == 0  # the one-layer part of that checkpoint loads
    # running statistics are shape-checked like parameters: a (1, 1) block
    # would otherwise broadcast across the row
    for shape in ((1, 1), (2, header["m"])):
        assert generate_with({}, {"encoder.bn_out.running_mean": np.zeros(shape)}) == 3, shape
    for values in ({"m": "16"}, {"m": 0}, {"m": True}, {"e_max": -1}, {"e_max": 8.0},
                   {"cell_kind": "gsu"}, {"mode": "words"}, {"use_batch_norm": 1},
                   {"bound_lower": None}, {"bound_upper": "7"}, {"layers": 0},
                   {"paper_literal_lstm": True}, {"bn_momentum": 0.5}, {"bn_eps": 1e-3}):
        assert generate_with(values) == 3, values
    # A header whose m or e_max disagrees with the blocks is refused before
    # the model is built, so a huge m or e_max allocates nothing.
    built = []
    monkeypatch.setattr(Seq2Seq, "__init__", lambda *a, **k: built.append(a))
    for values in ({"m": 10**9}, {"e_max": 10**9}, {"m": 3}, {"e_max": 1}):
        assert generate_with(values) == 3, values
    assert not built
    monkeypatch.undo()
    del served["m"]
    assert generate_with({}) == 3  # a missing field is not defaulted


def test_failed_report_writes_keep_previous_files(demo_dir, tmp_path, monkeypatch):
    cfg = os.path.join(demo_dir, "demo.cfg")
    corpus = str(tmp_path / "corpus.jsonl")
    lexicon = str(tmp_path / "lexicon.tsv")
    assert run(["--config", cfg, "build-corpus", "--out", corpus, "--lexicon-out", lexicon]) == 0
    tvocab, svocab = str(tmp_path / "t.vocab"), str(tmp_path / "s.vocab")
    assert run(["--config", cfg, "build-vocab", "--corpus", corpus,
                "--target-out", tvocab, "--source-out", svocab]) == 0
    run_dir = str(tmp_path / "run")
    assert run(["train", "--corpus", corpus, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--out-dir", run_dir, "--cell", "gru",
                "--m", "4", "--batch-size", "5", "--epochs", "1", "--seed", "0"]) == 0
    model = ["--checkpoint", os.path.join(run_dir, "checkpoint_best.bin"),
             "--source-vocab", svocab, "--target-vocab", tvocab, "--lexicon", lexicon,
             "--beam", "2", "--t-max", "5"]
    gen, report, curve, base = (str(tmp_path / n) for n in
                                ("gen.jsonl", "report.json", "curve.csv", "base.json"))
    generate = ["generate", *model, "--from-corpus", corpus, "--limit", "2", "--out", gen]
    evaluate = ["evaluate", *model, "--corpus", corpus, "--out", report, "--curve-csv", curve]
    baseline = ["baseline", "--kind", "random", "--train-corpus", corpus,
                "--eval-corpus", corpus, "--samples", "2", "--out", base]
    rows_written = []

    def dumps_once(obj, **kwargs):  # the first row is written, the second raises
        if rows_written:
            raise RuntimeError("write failed part-way")
        rows_written.append(obj)
        return json.dumps(obj, **kwargs)

    def fail(*args, **kwargs):
        raise RuntimeError("write failed part-way")

    cases = [(generate, gen, generation, "json", types.SimpleNamespace(dumps=dumps_once)),
             (evaluate, report, evaluation.MetricReport, "to_json", fail),
             (evaluate, curve, evaluation.MetricReport, "curve_csv", fail),
             (baseline, base, evaluation.MetricReport, "to_json", fail)]
    for argv, path, owner, attr, broken in cases:
        assert run(argv) == 0
        before = Path(path).read_bytes()
        with monkeypatch.context() as patched:
            patched.setattr(owner, attr, broken)
            assert run(argv) == 3, path
        assert Path(path).read_bytes() == before, path
    assert rows_written  # the generate case did fail part-way
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


def test_gradcheck_exit_codes():
    assert run(["gradcheck", "--cell", "gru", "--m", "4", "--source-size", "11",
                "--target-size", "12", "--e-max", "2", "--batch", "3"]) == 0


def test_generate_single_triple_set(demo_dir, tmp_path):
    cfg = os.path.join(demo_dir, "demo.cfg")
    corpus = str(tmp_path / "corpus.jsonl")
    stats = str(tmp_path / "stats.json")
    lexicon = str(tmp_path / "lexicon.tsv")
    assert run(["build-corpus", "--config", cfg, "--out", corpus,
                "--stats-out", stats, "--lexicon-out", lexicon]) == 0
    tvocab, svocab = str(tmp_path / "t.vocab"), str(tmp_path / "s.vocab")
    assert run(["build-vocab", "--config", cfg, "--corpus", corpus,
                "--target-out", tvocab, "--source-out", svocab]) == 0
    run_dir = str(tmp_path / "run")
    assert run(["train", "--corpus", corpus, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--out-dir", run_dir,
                "--cell", "gru", "--m", "8", "--batch-size", "5", "--epochs", "1",
                "--max-timestep", "30", "--seed", "0"]) == 0
    ckpt = os.path.join(run_dir, "checkpoint_best.bin")
    # one raw triple set from the demo dump, selected by its main entity
    main = read_jsonl(os.path.join(demo_dir, "summaries.jsonl"))[0]["main_entity"]
    out = str(tmp_path / "single.jsonl")
    assert run(["generate", "--checkpoint", ckpt, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--lexicon", lexicon,
                "--genders", os.path.join(demo_dir, "genders.tsv"),
                "--triples", os.path.join(demo_dir, "triples.nt"),
                "--main", main, "--beam", "2", "--t-max", "25",
                "--out", out]) == 0
    rows = read_jsonl(out)
    assert rows and rows[0]["input_id"] == main


def test_generate_triples_reads_pipeline_settings_from_config(tmp_path, monkeypatch):
    # the raw triple set must be rewritten as build-corpus rewrote the
    # corpus: with --config alone, its genders lexicon and year range
    demo = str(tmp_path / "demo")
    assert run(["demo-corpus", "--out-dir", demo, "--size", "200", "--seed", "11"]) == 0
    cfg = os.path.join(demo, "demo.cfg")
    corpus, stats = str(tmp_path / "corpus.jsonl"), str(tmp_path / "stats.json")
    assert run(["build-corpus", "--config", cfg, "--out", corpus, "--stats-out", stats]) == 0
    tvocab, svocab = str(tmp_path / "t.vocab"), str(tmp_path / "s.vocab")
    assert run(["build-vocab", "--config", cfg, "--corpus", corpus,
                "--target-out", tvocab, "--source-out", svocab]) == 0
    run_dir = str(tmp_path / "run")
    assert run(["train", "--corpus", corpus, "--stats", stats, "--source-vocab", svocab,
                "--target-vocab", tvocab, "--out-dir", run_dir, "--cell", "gru",
                "--m", "8", "--batch-size", "10", "--epochs", "1", "--seed", "0"]) == 0
    generate = ["generate", "--config", cfg, "--checkpoint",
                os.path.join(run_dir, "checkpoint_best.bin"), "--source-vocab", svocab,
                "--target-vocab", tvocab, "--triples", os.path.join(demo, "triples.nt"),
                "--main", "dbr:Henrik_Bakker", "--beam", "2", "--t-max", "10",
                "--out", str(tmp_path / "single.jsonl")]
    assert run(generate) == 0  # without the gender triple the set is below the bounds

    seen = []
    prepare = generation.prepare_raw_triples
    monkeypatch.setattr(generation, "prepare_raw_triples",
                        lambda raw, main, pcfg: seen.append(pcfg) or prepare(raw, main, pcfg))
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("year_min = 1500\nyear_max = 1990\n")
    assert run(generate) == 0
    assert (seen[0].year_min, seen[0].year_max) == (1500, 1990)
    assert seen[0].gender_lexicon["dbr:Henrik_Bakker"]


def test_config_env_variable(monkeypatch, demo_dir, tmp_path):
    monkeypatch.setenv(cli.CONFIG_ENV, os.path.join(demo_dir, "demo.cfg"))
    out = str(tmp_path / "corpus.jsonl")
    assert run(["build-corpus", "--out", out]) == 0
    assert os.path.exists(out)
