import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import shutil
import struct
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import read_jsonl
from triples2text import cli, evaluation, generation, nn, training
from triples2text.model import Seq2Seq
from triples2text.pipeline import read_corpus
from triples2text.tokens import END
from triples2text.training import TrainConfig, TrainResult
from triples2text.vocab import Vocabulary

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
    assert run(["demo-corpus", "--out-dir", str(tmp_path / "x"), "--size", "5"]) == 1
    assert not (tmp_path / "x").exists()


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


@pytest.mark.parametrize("value", ["0", "1"])
def test_train_batch_size_below_two_is_usage_error(tmp_path, value, capsys):
    missing = str(tmp_path / "missing")
    assert run(["train", "--corpus", missing, "--source-vocab", missing,
                "--target-vocab", missing, "--out-dir", str(tmp_path / "run"),
                f"--batch-size={value}"]) == 1
    assert "--batch-size" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_train_m_below_one_is_usage_error(tmp_path, value, capsys):
    missing = str(tmp_path / "missing")
    assert run(["train", "--corpus", missing, "--source-vocab", missing,
                "--target-vocab", missing, "--out-dir", str(tmp_path / "run"),
                f"--m={value}"]) == 1
    assert "--m must" in capsys.readouterr().err
    with pytest.raises(ValueError, match="m must"):
        TrainConfig(m=int(value))


def search_command(command, missing):
    """The arguments of a beam-search command whose files do not exist."""
    if command == "baseline":
        return ["baseline", "--kind", "kn", "--train-corpus", missing, "--eval-corpus", missing]
    files = ["--checkpoint", missing, "--source-vocab", missing, "--target-vocab", missing]
    if command == "generate":
        return ["generate", *files, "--from-corpus", missing]
    return ["evaluate", *files, "--corpus", missing]


@pytest.mark.parametrize("command", ["generate", "evaluate", "baseline"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_beam_below_one_is_usage_error(tmp_path, command, value, capsys):
    assert run([*search_command(command, str(tmp_path / "missing")), f"--beam={value}"]) == 1
    assert "--beam" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "evaluate", "baseline"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_t_max_below_one_is_usage_error(tmp_path, command, value, capsys):
    assert run([*search_command(command, str(tmp_path / "missing")), f"--t-max={value}"]) == 1
    assert "--t-max" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_generate_limit_below_one_is_usage_error(tmp_path, value, capsys):
    assert run([*search_command("generate", str(tmp_path / "missing")),
                f"--limit={value}"]) == 1
    assert "--limit" in capsys.readouterr().err


def numeric_flag_command(command, missing):
    """The arguments of a command whose input files do not exist."""
    files = ["--checkpoint", missing, "--source-vocab", missing, "--target-vocab", missing]
    return {
        "baseline": ["baseline", "--kind", "random", "--train-corpus", missing,
                     "--eval-corpus", missing],
        "neighbors": ["neighbors", *files, "--token", "dbr:X"],
        "train": ["train", "--corpus", missing, "--source-vocab", missing,
                  "--target-vocab", missing, "--out-dir", missing],
        "demo-corpus": ["demo-corpus", "--out-dir", missing],
        "gradcheck": ["gradcheck"],
        "build-corpus": ["build-corpus", "--triples", missing, "--summaries", missing,
                         "--out", missing],
        "build-vocab": ["build-vocab", "--corpus", missing, "--target-out", missing,
                        "--source-out", missing],
        "generate": ["generate", *files, "--triples", missing, "--main", "dbr:X",
                     "--out", missing],
    }[command]


def parser_actions():
    """(command, action) for every argument of every subcommand."""
    parser = cli.build_parser()
    commands, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, action) for name, sub in commands.choices.items() for action in sub._actions]


def test_no_numeric_flag_has_a_bare_int_or_float_type():
    bare = [f"{name} {action.option_strings[0]}" for name, action in parser_actions()
            if action.type in (int, float)]
    assert not bare, f"unchecked numeric flags: {bare}"


@pytest.mark.parametrize("command, flag, value", [
    ("baseline", "--samples", "0"),
    ("baseline", "--order", "0"),
    ("neighbors", "--k", "-1"),
    ("neighbors", "--k", "0"),
    ("train", "--valid-fraction", "-0.5"),
    ("train", "--valid-fraction", "0"),
    ("train", "--valid-fraction", "1"),
    ("train", "--valid-fraction", "nan"),
    ("train", "--e-max", "0"),
    ("train", "--epochs", "0"),
    ("train", "--epochs", "-1"),
    ("train", "--lr", "0"),
    ("train", "--lr", "-1"),
    ("train", "--lr", "nan"),
    ("train", "--patience", "-1"),
    ("train", "--decay-factor", "0"),
    ("train", "--decay-factor", "1"),
    ("train", "--decay-factor", "nan"),
    ("train", "--l2", "-1"),
    ("train", "--l2", "inf"),
    ("train", "--lr", "inf"),
    ("train", "--decay-start", "-5"),
    ("train", "--clip-norm", "nan"),
    ("train", "--seed", "-1"),
    ("train", "--epochs", "abc"),
    ("demo-corpus", "--size", "3"),
    ("demo-corpus", "--seed", "-1"),
    ("baseline", "--seed", "-1"),
    ("gradcheck", "--m", "0"),
    ("gradcheck", "--batch", "1"),
    ("gradcheck", "--e-max", "0"),
    ("gradcheck", "--source-size", "2"),
    ("gradcheck", "--target-size", "8"),  # one below the nine special tokens
    ("gradcheck", "--seed", "-1"),
    ("gradcheck", "--tolerance", "0"),
    ("gradcheck", "--tolerance", "nan"),
    ("gradcheck", "--tolerance", "inf"),
    ("build-corpus", "--target-vocab-size", "-3"),
    ("build-corpus", "--target-vocab-size", "0"),
    ("build-corpus", "--target-vocab-min-count", "-5"),
    ("build-corpus", "--year-min", "3000"),  # above the default --year-max 2100
    ("build-corpus", "--year-max", "999"),  # below the default --year-min 1000
    ("build-corpus", "--year-min", "abc"),
    ("build-vocab", "--target-max-size", "0"),
    ("build-vocab", "--target-min-count", "-5"),
    ("build-vocab", "--source-min-count", "0"),
])
def test_numeric_flag_out_of_range_is_usage_error(tmp_path, command, flag, value, capsys):
    # refused before any file is read: the missing inputs would exit 2
    missing = str(tmp_path / "missing")
    assert run([*numeric_flag_command(command, missing), f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not os.path.exists(missing)


# (command, config key, value, flag): every numeric config key of every
# command, with a value out of range or not parsing, and the two choices
CONFIG_CASES = [
    ("train", "epochs", "0", "--epochs"),
    ("train", "learning_rate", "-1", "--lr"),
    ("train", "patience", "-1", "--patience"),
    ("train", "decay_factor", "1.5", "--decay-factor"),
    ("train", "m", "0", "--m"),
    ("train", "batch_size", "1", "--batch-size"),
    ("train", "decay_start_epoch", "-5", "--decay-start"),
    ("train", "l2", "-1", "--l2"),
    ("train", "clip_norm", "nan", "--clip-norm"),
    ("train", "max_timestep", "0", "--max-timestep"),
    ("train", "seed", "-1", "--seed"),
    ("train", "cell", "xyz", "--cell"),
    ("train", "epochs", "abc", "--epochs"),
    ("build-corpus", "target_vocab_size", "-3", "--target-vocab-size"),
    ("build-corpus", "target_vocab_min_count", "-5", "--target-vocab-min-count"),
    ("build-corpus", "year_min", "3000", "--year-min"),
    ("build-corpus", "year_max", "1.5", "--year-max"),
    ("build-corpus", "mode", "words", "--mode"),
    ("build-vocab", "target_vocab_size", "0", "--target-max-size"),
    ("build-vocab", "target_vocab_min_count", "-5", "--target-min-count"),
    ("build-vocab", "source_min_count", "0", "--source-min-count"),
    ("generate", "year_min", "abc", "--year-min"),
    ("generate", "year_max", "999", "--year-max"),
]


# the ids of the train cases leave out the command, which keeps them stable
@pytest.mark.parametrize("command, key, value, flag", CONFIG_CASES, ids=[
    "-".join(case[1:] if case[0] == "train" else case) for case in CONFIG_CASES])
def test_train_config_value_out_of_range_is_usage_error(tmp_path, command, key, value, flag,
                                                        capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    missing = str(tmp_path / "missing")
    assert run([*numeric_flag_command(command, missing), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not os.path.exists(missing)


def test_every_config_key_is_a_case():
    """Each flag with a config key, and each config-only setting, has a
    case in CONFIG_CASES."""
    keyed = {(name, action.default.key) for name, action in parser_actions()
             if isinstance(action.default, cli._FromConfig)}
    keyed |= {("generate", key) for _, key in cli._YEAR_RANGE}
    assert keyed == {(command, key) for command, key, _, _ in CONFIG_CASES}


def test_config_file_not_utf8_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfeepochs = 1\n")
    missing = str(tmp_path / "missing")
    assert run([*numeric_flag_command("build-corpus", missing), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err and "Traceback" not in err


@pytest.fixture(scope="module")
def trained(demo_dir, tmp_path_factory):
    """The paths of a corpus, its vocabularies and a model trained on them."""
    d = tmp_path_factory.mktemp("trained")
    cfg = os.path.join(demo_dir, "demo.cfg")
    paths = {"corpus": str(d / "corpus.jsonl"), "target": str(d / "t.vocab"),
             "source": str(d / "s.vocab"), "checkpoint": str(d / "run" / "checkpoint_best.bin")}
    assert run(["--config", cfg, "build-corpus", "--out", paths["corpus"]]) == 0
    assert run(["--config", cfg, "build-vocab", "--corpus", paths["corpus"],
                "--target-out", paths["target"], "--source-out", paths["source"]]) == 0
    assert run(["train", "--corpus", paths["corpus"], "--source-vocab", paths["source"],
                "--target-vocab", paths["target"], "--out-dir", str(d / "run"),
                "--cell", "gru", "--m", "4", "--batch-size", "5", "--epochs", "1"]) == 0
    return paths


# (flag, exit code, the arguments with ``bad`` in the flag's place): an
# input that is a directory is a data error, a config file that cannot be
# read a usage error, and an output that is a directory (or an output
# directory that is a file) a runtime failure
PATH_FAULTS = [
    ("build-vocab --corpus", 2, lambda p, bad, out: [
        "build-vocab", "--corpus", bad, "--target-out", out, "--source-out", out + "s"]),
    ("train --corpus", 2, lambda p, bad, out: [
        "train", "--corpus", bad, "--source-vocab", p["source"], "--target-vocab", p["target"],
        "--out-dir", out]),
    ("generate --checkpoint", 2, lambda p, bad, out: [
        "generate", "--checkpoint", bad, "--source-vocab", p["source"],
        "--target-vocab", p["target"], "--from-corpus", p["corpus"], "--out", out]),
    ("generate --source-vocab", 2, lambda p, bad, out: [
        "generate", "--checkpoint", p["checkpoint"], "--source-vocab", bad,
        "--target-vocab", p["target"], "--from-corpus", p["corpus"], "--out", out]),
    ("build-corpus --triples", 2, lambda p, bad, out: [
        "build-corpus", "--config", p["config"], "--triples", bad, "--out", out]),
    ("build-corpus --config", 1, lambda p, bad, out: [
        "build-corpus", "--config", bad, "--out", out]),
    ("build-vocab --target-out", 3, lambda p, bad, out: [
        "build-vocab", "--corpus", p["corpus"], "--target-out", bad, "--source-out", out]),
    ("evaluate --out", 3, lambda p, bad, out: [
        "evaluate", "--checkpoint", p["checkpoint"], "--source-vocab", p["source"],
        "--target-vocab", p["target"], "--corpus", p["corpus"], "--beam", "2",
        "--t-max", "5", "--out", bad]),
    ("train --out-dir", 3, lambda p, bad, out: [
        "train", "--corpus", p["corpus"], "--source-vocab", p["source"],
        "--target-vocab", p["target"], "--out-dir", bad, "--cell", "gru", "--m", "4",
        "--batch-size", "5", "--epochs", "1"]),
]


@pytest.mark.parametrize("flag, code, argv", PATH_FAULTS, ids=[f[0] for f in PATH_FAULTS])
def test_path_fault_maps_to_exit_code(demo_dir, trained, tmp_path, flag, code, argv, capsys):
    bad = tmp_path / "bad"
    if flag == "train --out-dir":
        bad.write_text("")
    else:
        bad.mkdir()
    paths = {**trained, "config": os.path.join(demo_dir, "demo.cfg")}
    out = str(tmp_path / "out")
    assert run(argv(paths, str(bad), out)) == code
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))
    if code != 3:
        assert not os.path.exists(out)


SUMMARY = {"main_entity": "dbr:A", "sentences": [["Ann", "met", "Bo", "."]],
           "annotations": [{"sentence_idx": 0, "start": 0, "end": 1, "uri": "dbr:A",
                            "surface": "Ann"},
                           {"sentence_idx": 0, "start": 2, "end": 3, "uri": "dbr:B",
                            "surface": "Bo"}]}


def with_annotation(**fields):
    return {**SUMMARY, "annotations": [SUMMARY["annotations"][0],
                                       {**SUMMARY["annotations"][1], **fields}]}


@pytest.mark.parametrize("record", [
    with_annotation(sentence_idx="0"),
    with_annotation(surface=None),  # ties with the string surface of dbr:B on line 1
    {**SUMMARY, "sentences": ["Ann met Bo ."]},
    with_annotation(start=True),
    with_annotation(end=3.0),
    with_annotation(uri=7),
    [0, 0, 1, "dbr:A", "Ann"],
    {**SUMMARY, "main_entity": ["dbr:A"]},
    {**SUMMARY, "sentences": [["Ann", "met", 7, "."]]},
    {**SUMMARY, "sentences": "Ann met Bo ."},
    {**SUMMARY, "annotations": [[0, 0, 1, "dbr:A", None]]},
], ids=["string-sentence-idx", "null-surface", "sentence-as-string", "bool-start",
        "float-end", "int-uri", "record-not-object", "list-main-entity", "int-word",
        "sentences-as-string", "list-annotation-null-surface"])
def test_summary_field_of_wrong_type_is_data_error(tmp_path, record, capsys):
    triples = tmp_path / "triples.nt"
    triples.write_text("dbr:A dbo:knows dbr:B .\ndbr:A dbo:age 30 .\n")
    summaries = tmp_path / "summaries.jsonl"
    good = {**SUMMARY, "main_entity": "dbr:B", "annotations": [
        {"sentence_idx": 0, "start": 2, "end": 3, "uri": "dbr:B", "surface": "Bo"}]}
    summaries.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    out = tmp_path / "corpus.jsonl"
    assert run(["build-corpus", "--triples", str(triples), "--summaries", str(summaries),
                "--out", str(out), "--lexicon-out", str(tmp_path / "lexicon.tsv")]) == 2
    err = capsys.readouterr().err
    assert f"{summaries}:2: bad summary record" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "lexicon.tsv").exists()


def with_first_record(corpus, edit):
    """The lines of a corpus file with ``edit`` applied to its first record."""
    lines = Path(corpus).read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(lines[0])
    edit(rec)
    return json.dumps(rec) + "\n" + "".join(lines[1:])


@pytest.mark.parametrize("edit", [
    lambda r: r["summary_tokens"][1].update(text=5),
    lambda r: r["triples"][0].update(p=None),
    lambda r: r["triples"][0].update(s_type=["dbo:Person"]),
    lambda r: r["summary_tokens"][1].update(uri=7),
    lambda r: r["reference_tokens"].append(None),
    lambda r: r.update(reference_tokens="a b"),
    lambda r: r.update(main_entity=None),
    lambda r: r.update(mode="words"),
], ids=["int-token-text", "null-predicate", "list-subject-type", "int-token-uri",
        "null-reference-token", "reference-tokens-as-string", "null-main-entity",
        "unknown-mode"])
def test_corpus_field_of_wrong_type_is_data_error(demo_dir, tmp_path, edit, capsys):
    corpus = str(tmp_path / "corpus.jsonl")
    assert run(["--config", os.path.join(demo_dir, "demo.cfg"), "build-corpus",
                "--out", corpus]) == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text(with_first_record(corpus, edit), encoding="utf-8")
    tvocab, svocab = tmp_path / "t.vocab", tmp_path / "s.vocab"
    assert run(["build-vocab", "--corpus", str(bad), "--target-out", str(tvocab),
                "--source-out", str(svocab)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:1: bad corpus record" in err and "Traceback" not in err
    assert not tvocab.exists() and not svocab.exists()


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


@pytest.mark.parametrize("field, value", [
    ("e_std", math.inf), ("e_std", math.nan), ("e_std", -3.0), ("e_mean", math.inf)])
def test_stats_spread_not_finite_or_negative_is_data_error(trained, tmp_path, field, value,
                                                           capsys):
    # an infinite spread would overflow the bounds' floor, NaN has no
    # integer, and a negative one gives a lower bound above the upper
    bad = tmp_path / "stats.json"
    record = {"e_min": 8, "e_mean": 8.0, "e_std": 0.0, "e_max": 8, "n_articles": 30,
              "n_entities": 40, "n_predicates": 9}
    bad.write_text(json.dumps({**record, field: value}), encoding="utf-8")
    run_dir = tmp_path / "run"
    assert run(["train", "--corpus", trained["corpus"], "--source-vocab", trained["source"],
                "--target-vocab", trained["target"], "--stats", str(bad),
                "--out-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: bad stats record" in err and "Traceback" not in err
    assert not run_dir.exists()


@pytest.mark.parametrize("values", [
    {"e_min": 12}, {"e_min": 9, "e_mean": 10.0}, {"e_min": 9, "e_mean": 8.5, "e_max": 10}],
    ids=["above-both", "above-e_max", "above-e_mean"])
def test_stats_with_e_min_above_e_mean_or_e_max_is_data_error(trained, tmp_path, values,
                                                              capsys):
    # build_corpus never writes such a record; trained on, its bounds would
    # come out inverted ([12, 8] for the first) and generate refuse every input
    bad = tmp_path / "stats.json"
    record = {"e_min": 8, "e_mean": 8.0, "e_std": 0.0, "e_max": 8, "n_articles": 30,
              "n_entities": 40, "n_predicates": 9}
    bad.write_text(json.dumps({**record, **values}), encoding="utf-8")
    run_dir = tmp_path / "run"
    assert run(["train", "--corpus", trained["corpus"], "--source-vocab", trained["source"],
                "--target-vocab", trained["target"], "--stats", str(bad),
                "--cell", "gru", "--m", "4", "--batch-size", "5", "--epochs", "1",
                "--out-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: bad stats record: e_min must be at most e_mean and e_max" in err
    assert "Traceback" not in err and not run_dir.exists()


def test_train_without_validation_says_so(trained, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="triples2text")
    run_dir = tmp_path / "run"
    assert run(["train", "--corpus", trained["corpus"], "--source-vocab", trained["source"],
                "--target-vocab", trained["target"], "--out-dir", str(run_dir),
                "--cell", "gru", "--m", "4", "--batch-size", "5", "--epochs", "1"]) == 0
    best, last = run_dir / "checkpoint_best.bin", run_dir / "checkpoint_last.bin"
    assert f"trained 1 epochs without validation; {best} holds the last epoch" in caplog.text
    assert "best validation perplexity" not in caplog.text
    assert best.read_bytes() == last.read_bytes()


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
        return None, TrainResult(0, 1.0, 0, None)

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
                   {"cell_kind": "gsu"}, {"mode": "words"},
                   {"bound_lower": None}, {"bound_upper": "7"},
                   {"bound_lower": 12, "bound_upper": 8}, {"layers": 0},
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


def test_use_batch_norm_header_key_is_retired(trained, tmp_path, capsys):
    # A checkpoint of the release whose header still held
    # "use_batch_norm": true (m=2, trained on this module's demo corpus)
    # loads. Batch norm is the one encoder, so false, or 1 in its place,
    # is refused; current headers omit the key.
    old = os.path.join(DATA, "checkpoint_v1_gru_use_batch_norm.bin")
    header, blocks = nn.read_blocks(old)
    assert header["use_batch_norm"] is True
    assert "use_batch_norm" not in nn.read_blocks(trained["checkpoint"])[0]

    def generate(path):
        return run(["generate", "--checkpoint", path, "--source-vocab", trained["source"],
                    "--target-vocab", trained["target"], "--from-corpus", trained["corpus"],
                    "--limit", "1", "--beam", "2", "--t-max", "5"])

    assert generate(old) == 0
    bad = str(tmp_path / "bad.bin")
    for value in (False, 1):
        nn.write_blocks(bad, {**header, "use_batch_norm": value}, list(blocks.items()))
        capsys.readouterr()
        assert generate(bad) == 3, value
        assert f"header value use_batch_norm={value!r}" in capsys.readouterr().err


def test_float64_checkpoint_loads_rounded_to_float32(trained):
    # a checkpoint of a float64 model: its values are not all float32 numbers
    old = os.path.join(DATA, "checkpoint_v1_gru_use_batch_norm.bin")
    _, blocks = nn.read_blocks(old)
    assert any(np.any(b.astype(np.float32) != b) for b in blocks.values())
    model = Seq2Seq.load(old, Vocabulary.load(trained["source"]),
                         Vocabulary.load(trained["target"]))
    for name, arr in model.state_blocks():
        assert arr.dtype == np.float32, name
        # astype rounds to the nearest float32 (ties to even)
        assert np.array_equal(arr, blocks[name].astype(np.float32)), name
    assert run(["generate", "--checkpoint", old, "--source-vocab", trained["source"],
                "--target-vocab", trained["target"], "--from-corpus", trained["corpus"],
                "--limit", "1", "--beam", "2", "--t-max", "5"]) == 0


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
    # the smallest sizes allowed: the special tokens alone
    assert run(["gradcheck", "--cell", "gru", "--m", "2", "--source-size", "9",
                "--target-size", "9", "--e-max", "1", "--batch", "2"]) == 0


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


def test_generate_reads_only_the_year_range_of_the_pipeline_settings(trained, tmp_path):
    # generation reads the year range and the gender lexicon, never the
    # vocabulary's size or count, so a config value build-corpus refuses
    # for those does not stop it
    config = tmp_path / "run.cfg"
    config.write_text("target_vocab_size = 0\n", encoding="utf-8")
    assert run(["generate", "--config", str(config), "--checkpoint", trained["checkpoint"],
                "--source-vocab", trained["source"], "--target-vocab", trained["target"],
                "--from-corpus", trained["corpus"], "--limit", "1", "--beam", "2",
                "--t-max", "5"]) == 0
    assert run(["build-corpus", "--config", str(config), "--out",
                str(tmp_path / "corpus.jsonl")]) == 1


def test_config_env_variable(monkeypatch, demo_dir, tmp_path):
    monkeypatch.setenv(cli.CONFIG_ENV, os.path.join(demo_dir, "demo.cfg"))
    out = str(tmp_path / "corpus.jsonl")
    assert run(["build-corpus", "--out", out]) == 0
    assert os.path.exists(out)


@pytest.fixture(scope="module")
def over_long(tmp_path_factory):
    """The paths of a corpus of 8 triples per example, its lexicon and
    vocabularies, and a model trained on it with e_max 4."""
    d = tmp_path_factory.mktemp("over_long")
    assert run(["demo-corpus", "--out-dir", str(d / "demo"), "--size", "40", "--seed", "2"]) == 0
    paths = {"corpus": str(d / "corpus.jsonl"), "lexicon": str(d / "lexicon.tsv"),
             "target": str(d / "t.vocab"), "source": str(d / "s.vocab"),
             "checkpoint": str(d / "run" / "checkpoint_best.bin")}
    cfg = str(d / "demo" / "demo.cfg")
    assert run(["--config", cfg, "build-corpus", "--out", paths["corpus"],
                "--lexicon-out", paths["lexicon"]]) == 0
    assert run(["--config", cfg, "build-vocab", "--corpus", paths["corpus"],
                "--target-out", paths["target"], "--source-out", paths["source"]]) == 0
    assert run(["train", "--corpus", paths["corpus"], "--source-vocab", paths["source"],
                "--target-vocab", paths["target"], "--out-dir", str(d / "run"), "--e-max", "4",
                "--cell", "gru", "--m", "4", "--batch-size", "5", "--epochs", "1"]) == 0
    return paths


def test_over_long_triple_sets_are_cut_to_e_max(over_long, capsys):
    p = over_long
    assert run(["evaluate", "--checkpoint", p["checkpoint"], "--source-vocab", p["source"],
                "--target-vocab", p["target"], "--corpus", p["corpus"],
                "--lexicon", p["lexicon"], "--beam", "2", "--t-max", "5"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    model = Seq2Seq.load(p["checkpoint"], *map(Vocabulary.load, (p["source"], p["target"])))
    triples = read_corpus(p["corpus"])[0].triples
    kept = [t for t in triples if t.predicate in model.source_vocab]
    assert model.config.e_max == 4 < len(kept)

    def hypotheses(ts):
        return [(r.tokens, r.log_prob) for r in generation.generate(model, ts, {}, "X", 3, 6)]
    assert hypotheses(triples) == hypotheses(kept[:4])


def replace_bytes(path, edit):
    def apply(tmp_path, p):
        copy = tmp_path / os.path.basename(p[path])
        copy.write_bytes(edit(Path(p[path]).read_bytes()))
        return {**p, path: str(copy)}, str(copy)
    return apply


def with_sidecar(text):
    def apply(tmp_path, p):
        copy = tmp_path / "s.vocab"
        shutil.copy(p["source"], copy)
        (tmp_path / "s.vocab.meta.json").write_text(text)
        return {**p, "source": str(copy)}, str(copy) + ".meta.json"
    return apply


@pytest.mark.parametrize("fault", [
    with_sidecar("[]"),
    with_sidecar('{"fallbacks": 3}'),
    with_sidecar('{"fallbacks": {}, "entity_tokens": "dbr:A"}'),
    with_sidecar("{"),
    with_sidecar('{"fallbacks": {"dbr:A": "dbo:NoSuchType"}, "entity_tokens": []}'),
    replace_bytes("target", lambda b: b + b"no-tab-here\n"),
    replace_bytes("target", lambda b: b + b"\xff\t1\n"),
    replace_bytes("source", lambda b: b.replace(b"\t", b"\t\xff", 2)),
    replace_bytes("corpus", lambda b: b"\xff" + b),
    replace_bytes("corpus", lambda b: b + b"\xff\n"),
    replace_bytes("lexicon", lambda b: b + b"dbr:\xff\tX\n"),
], ids=["sidecar-list", "sidecar-int-fallbacks", "sidecar-string-entities",
        "sidecar-not-json", "sidecar-fallback-to-no-token", "vocab-line-without-tab",
        "vocab-not-utf8", "vocab-head-not-utf8", "corpus-first-byte-not-utf8",
        "corpus-last-byte-not-utf8", "lexicon-not-utf8"])
def test_malformed_data_file_exits_two_naming_it(over_long, tmp_path, fault, capsys):
    p, bad = fault(tmp_path, over_long)
    assert run(["generate", "--checkpoint", p["checkpoint"], "--source-vocab", p["source"],
                "--target-vocab", p["target"], "--lexicon", p["lexicon"],
                "--from-corpus", p["corpus"], "--limit", "1", "--beam", "2",
                "--t-max", "3"]) == 2
    err = capsys.readouterr().err
    assert f"data error: {bad}" in err and "Traceback" not in err, err


@pytest.mark.parametrize("argv", [
    lambda p, d: ["build-vocab", "--corpus", p["corpus"], "--target-out", str(d / "t.vocab"),
                  "--source-out"],
    lambda p, d: ["--config", p["config"], "build-corpus", "--out", str(d / "c.jsonl"),
                  "--stats-out", str(d / "stats.json"), "--lexicon-out"],
    lambda p, d: ["evaluate", "--checkpoint", p["checkpoint"], "--source-vocab", p["source"],
                  "--target-vocab", p["target"], "--corpus", p["corpus"], "--beam", "2",
                  "--t-max", "5", "--out", str(d / "report.json"), "--curve-csv"],
], ids=["build-vocab --source-out", "build-corpus --lexicon-out", "evaluate --curve-csv"])
def test_unwritable_later_output_leaves_no_earlier_one(demo_dir, trained, tmp_path, argv,
                                                       capsys):
    # the last output is a directory: the target vocabulary and the source
    # sidecar, the corpus and its stats, or the report must not be left behind
    (tmp_path / "bad").mkdir()
    p = {**trained, "config": os.path.join(demo_dir, "demo.cfg")}
    assert run([*argv(p, tmp_path), str(tmp_path / "bad")]) == 3
    err = capsys.readouterr().err
    assert f"cannot write {tmp_path / 'bad'}" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["bad"]
