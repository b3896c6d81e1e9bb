"""Command-line entry point.

One executable with subcommands covering the whole workflow:

    demo-corpus   write a synthetic corpus for offline runs
    build-corpus  raw triples + annotated summaries -> aligned corpus
    build-vocab   aligned corpus -> source/target dictionaries
    train         optimise a model, logging to JSON Lines
    generate      beam-search summaries for triple sets
    evaluate      perplexity/BLEU/ROUGE-L report for a model
    baseline      random-retrieval or Kneser-Ney baseline report
    neighbors     nearest entity embeddings of a source token
    gradcheck     finite-difference check of the gradients

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 runtime
failure (non-finite loss, corrupt checkpoint). An input path that cannot be
read (missing, a directory) is a data error, an output path that cannot be
written a runtime failure, and a config file that cannot be read a usage
error; the message names the path. A ``key = value`` config file
(``--config`` or the TRIPLES2TEXT_CONFIG environment variable) supplies
defaults; explicit flags win. Relative paths in the config file resolve
against the config file's directory. A config value goes through its
flag's check, and a flag that sets a field of ModelConfig, TrainConfig or
PipelineConfig takes its parse and range from that field: a value that
does not parse or is out of range is a usage error naming the flag,
whichever source gave it, refused before any input file is read.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from dataclasses import fields
from typing import Any, NamedTuple

import numpy as np

from . import evaluation, generation, nn, pipeline, training, vocab
from .decoder import GRU
from .demo import MIN_SIZE, demo_corpus
from .evaluation import KN_ORDER
from .fileio import OutputError, atomic_open, check_writable
from .generation import BEAM_WIDTH, T_MAX
from .model import CheckpointMismatchError, ModelConfig, Seq2Seq
from .pipeline import PipelineConfig, PipelineError
from .settings import FRACTION, POSITIVE, Range, at_least, range_of
from .tokens import SPECIAL_TOKENS
from .training import TrainConfig
from .vocab import SOURCE_MIN_COUNT, Vocabulary, build_source_vocab, build_target_vocab

logger = logging.getLogger("triples2text")

CONFIG_ENV = "TRIPLES2TEXT_CONFIG"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise UsageError(f"config file {path} cannot be read: {exc}") from None
    out: dict[str, str] = {"_base": os.path.dirname(os.path.abspath(path))}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def cfg_path(cfg: dict[str, str], key: str) -> str | None:
    value = cfg.get(key)
    if value is None:
        return None
    return value if os.path.isabs(value) else os.path.join(cfg.get("_base", "."), value)


def _parse(name: str, rng: Range, text: str):
    """The value ``text`` parses to, or a UsageError naming ``name`` when it
    does not parse or is out of ``rng``. argparse lets a UsageError from a
    ``type`` through."""
    try:
        value = rng.parse(text)
        if rng.ok(value):
            return value
    except ValueError:
        pass
    raise UsageError(f"{name} must be {rng.expected}, got {text!r}")


# (flag, config key and PipelineConfig field) of the year range, which
# build-corpus takes as flags and generate reads from the config file alone,
# so that generate rewrites a raw triple set as the training corpus was.
_YEAR_RANGE = (("--year-min", "year_min"), ("--year-max", "year_max"))


class _FromConfig(NamedTuple):
    """The parsed value of a setting whose flag was not given, until
    ``_resolve`` replaces it by the config value for ``key`` or ``default``."""
    flag: str
    key: str
    rng: Range
    default: Any


def _setting(parser, flag: str, rng: Range, default=None, key: str | None = None) -> None:
    """Declare one setting: ``flag`` in range ``rng`` with its ``default``
    and, if any, the config ``key`` read where the flag is not given, which
    also names the parsed value."""
    parser.add_argument(flag, type=functools.partial(_parse, flag, rng), dest=key,
                        default=default if key is None else _FromConfig(flag, key, rng, default),
                        metavar="{" + ",".join(rng.choices) + "}" if rng.choices else None)


def _field(parser, flag: str, cls, name: str) -> None:
    """Declare the setting of field ``name`` of config class ``cls``, under
    the config key ``name``: the field's range and default are the flag's."""
    _setting(parser, flag, range_of(cls, name), getattr(cls, name), name)


def _config(cls, args, **given):
    """A config of class ``cls`` from the settings named as its fields, and ``given``."""
    return cls(**{**{f.name: getattr(args, f.name) for f in fields(cls) if f.name in args},
                  **given})


def _resolve(args, cfg: dict[str, str]) -> None:
    """Settle each setting whose flag was not given from the config file,
    through the flag's check, or its default; then check the year range
    with PipelineConfig's rule."""
    for dest, value in vars(args).items():
        if isinstance(value, _FromConfig):
            setattr(args, dest, _parse(f"{value.flag} (config {value.key})", value.rng,
                                       cfg[value.key]) if value.key in cfg else value.default)
    if "year_min" in args:
        try:
            PipelineConfig(year_min=args.year_min, year_max=args.year_max)
        except ValueError as exc:
            raise UsageError(f"--year-min, --year-max: {exc}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="triples2text", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    # accepted both before and after the subcommand; SUPPRESS keeps the
    # subparser from overwriting a value parsed by the main parser
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="key = value config file (or $TRIPLES2TEXT_CONFIG)")
    shared.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.add_argument("--verbose", action="store_true", default=False,
                   help=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    seeded = argparse.ArgumentParser(add_help=False)
    _setting(seeded, "--seed", at_least(0), 0)
    search = argparse.ArgumentParser(add_help=False)
    _setting(search, "--beam", at_least(1), BEAM_WIDTH)
    _setting(search, "--t-max", at_least(1), T_MAX)

    def add_parser(name, *parents, **kw):
        return sub.add_parser(name, parents=[shared, *parents], **kw)

    d = add_parser("demo-corpus", seeded, help="write a synthetic corpus")
    d.add_argument("--out-dir", required=True)
    _setting(d, "--size", at_least(MIN_SIZE), 200)

    b = add_parser("build-corpus", help="build the aligned corpus")
    b.add_argument("--triples")
    b.add_argument("--summaries")
    b.add_argument("--types")
    b.add_argument("--genders")
    _field(b, "--mode", PipelineConfig, "mode")
    b.add_argument("--out", required=True)
    b.add_argument("--stats-out")
    b.add_argument("--lexicon-out")
    for flag, key in (("--target-vocab-size", "target_vocab_size"),
                      ("--target-vocab-min-count", "target_vocab_min_count"), *_YEAR_RANGE):
        _field(b, flag, PipelineConfig, key)

    v = add_parser("build-vocab", help="build source/target dictionaries")
    v.add_argument("--corpus", required=True)
    v.add_argument("--target-out", required=True)
    v.add_argument("--source-out", required=True)
    _field(v, "--target-max-size", PipelineConfig, "target_vocab_size")
    _field(v, "--target-min-count", PipelineConfig, "target_vocab_min_count")
    _setting(v, "--source-min-count", at_least(1), SOURCE_MIN_COUNT, "source_min_count")

    t = add_parser("train", help="train a model")
    t.add_argument("--corpus", required=True)
    t.add_argument("--valid")
    _setting(t, "--valid-fraction", FRACTION)
    t.add_argument("--source-vocab", required=True)
    t.add_argument("--target-vocab", required=True)
    t.add_argument("--stats", help="corpus stats JSON (for e_max and bounds)")
    t.add_argument("--out-dir", required=True)
    _setting(t, "--cell", range_of(TrainConfig, "cell_kind"), TrainConfig.cell_kind, "cell")
    for flag, name in (("--m", "m"), ("--batch-size", "batch_size"), ("--epochs", "epochs"),
                       ("--lr", "learning_rate"), ("--decay-factor", "decay_factor"),
                       ("--decay-start", "decay_start_epoch"), ("--patience", "patience"),
                       ("--l2", "l2"), ("--clip-norm", "clip_norm"),
                       ("--max-timestep", "max_timestep"), ("--seed", "seed")):
        _field(t, flag, TrainConfig, name)
    t.add_argument("--no-early-stop", action="store_true")
    _setting(t, "--e-max", range_of(TrainConfig, "e_max"))

    g = add_parser("generate", search, help="generate summaries")
    g.add_argument("--checkpoint", required=True)
    g.add_argument("--source-vocab", required=True)
    g.add_argument("--target-vocab", required=True)
    g.add_argument("--lexicon")
    g.add_argument("--genders", help="gender lexicon applied to raw --triples input "
                   "(default: the config file's genders)")
    g.add_argument("--from-corpus", help="aligned corpus whose triple sets to use")
    _setting(g, "--limit", at_least(1))
    g.add_argument("--triples", help="N-Triples file for a single input")
    g.add_argument("--main", help="main entity URI for --triples input")
    g.add_argument("--item-surface")
    g.add_argument("--out")
    g.set_defaults(**{key: _FromConfig(flag, key, range_of(PipelineConfig, key),
                                       getattr(PipelineConfig, key))
                      for flag, key in _YEAR_RANGE})

    e = add_parser("evaluate", search, help="score a model on an aligned corpus")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--source-vocab", required=True)
    e.add_argument("--target-vocab", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--lexicon")
    e.add_argument("--out", help="JSON report path")
    e.add_argument("--curve-csv", help="BLEU-4 by triple count CSV path")

    s = add_parser("baseline", seeded, search, help="score a baseline on an aligned corpus")
    s.add_argument("--kind", choices=["random", "kn"], required=True)
    s.add_argument("--train-corpus", required=True)
    s.add_argument("--eval-corpus", required=True)
    s.add_argument("--lexicon")
    _setting(s, "--samples", at_least(1), 10)
    _setting(s, "--order", at_least(1), KN_ORDER)
    s.add_argument("--out")

    n = add_parser("neighbors", help="nearest entity embeddings")
    n.add_argument("--checkpoint", required=True)
    n.add_argument("--source-vocab", required=True)
    n.add_argument("--target-vocab", required=True)
    n.add_argument("--token", required=True)
    _setting(n, "--k", at_least(1), 5)

    vocab_size = at_least(len(SPECIAL_TOKENS))
    c = add_parser("gradcheck", seeded, help="finite-difference gradient check")
    _setting(c, "--cell", range_of(ModelConfig, "cell_kind"), GRU)
    _setting(c, "--m", range_of(ModelConfig, "m"), 6)
    _setting(c, "--source-size", vocab_size, 12)
    _setting(c, "--target-size", vocab_size, 14)
    _setting(c, "--e-max", range_of(ModelConfig, "e_max"), 3)
    _setting(c, "--batch", at_least(2), 4)  # batch normalisation needs two rows
    _setting(c, "--tolerance", POSITIVE, 1e-4)
    return p


# ---------------------------------------------------------------------------
# subcommand bodies


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required value: {flag}")
    return value


def cmd_demo_corpus(args, cfg):
    paths = demo_corpus(args.seed, args.size, args.out_dir)
    for key, path in paths.items():
        logger.info("wrote %s: %s", key, path)
    print(paths["config"])
    return 0


def _pipeline_config(args, cfg, mode: str) -> PipelineConfig:
    """The pipeline settings of build-corpus and of generate --triples, so
    that a raw triple set is rewritten as the training corpus was."""
    genders_path = args.genders or cfg_path(cfg, "genders")
    return _config(PipelineConfig, args, mode=mode,
                   gender_lexicon=pipeline.read_tsv_map(genders_path) if genders_path else None)


def cmd_build_corpus(args, cfg):
    triples = _require(args.triples or cfg_path(cfg, "triples"), "--triples")
    summaries = _require(args.summaries or cfg_path(cfg, "summaries"), "--summaries")
    types_path = args.types or cfg_path(cfg, "instance_types")
    pcfg = _pipeline_config(args, cfg, args.mode)
    types = pipeline.read_tsv_map(types_path) if types_path else {}
    articles = pipeline.read_articles(triples, summaries)
    examples, stats, lexicon = pipeline.build_corpus(articles, types, pcfg)
    check_writable(args.out, args.stats_out, args.lexicon_out)
    pipeline.write_corpus(args.out, examples)
    logger.info("corpus: %d examples (%s excluded)", len(examples),
                stats.exclusions or "none")
    if args.stats_out:
        pipeline.write_stats(args.stats_out, stats)
    if args.lexicon_out:
        pipeline.write_lexicon(args.lexicon_out, lexicon)
    return 0


def cmd_build_vocab(args, cfg):
    examples = pipeline.read_corpus(args.corpus)
    target = build_target_vocab(examples, max_size=args.target_vocab_size,
                                min_count=args.target_vocab_min_count)
    source = build_source_vocab(examples, min_count=args.source_min_count)
    check_writable(args.target_out, args.source_out + vocab.META_SUFFIX, args.source_out)
    target.save(args.target_out)
    source.save(args.source_out)
    logger.info("target vocabulary: %d tokens; source: %d tokens",
                len(target), len(source))
    return 0


def _load_vocabs(args) -> tuple[Vocabulary, Vocabulary]:
    return Vocabulary.load(args.source_vocab), Vocabulary.load(args.target_vocab)


def cmd_train(args, cfg):
    examples = pipeline.read_corpus(args.corpus)
    source_vocab, target_vocab = _load_vocabs(args)
    if args.valid:
        valid = pipeline.read_corpus(args.valid)
        corpus = examples
    elif args.valid_fraction is not None:
        n_valid = max(1, int(len(examples) * args.valid_fraction))
        corpus, valid = examples[:-n_valid], examples[-n_valid:]
    else:
        corpus, valid = examples, []
    # e_max from the flag, else the stats, else the corpus
    given = {"cell_kind": args.cell, "patience": None if args.no_early_stop else args.patience,
             "mode": examples[0].mode if examples else TrainConfig.mode,
             "e_max": args.e_max or max((len(ex.triples) for ex in examples), default=1)}
    if args.stats:
        stats = pipeline.read_stats(args.stats)
        given.update(e_max=args.e_max or stats.e_max, bound_lower=stats.lower_bound(),
                     bound_upper=stats.upper_bound())
    tcfg = _config(TrainConfig, args, **given)
    _, result = training.train(corpus, valid, tcfg, source_vocab, target_vocab,
                               out_dir=args.out_dir)
    if result.best_epoch is None:
        logger.info("trained %d epochs without validation; %s holds the last epoch",
                    result.epochs_run, result.checkpoint_path)
    else:
        logger.info("trained %d epochs; best validation perplexity %.4f at epoch %d",
                    result.epochs_run, result.best_validation_perplexity, result.best_epoch)
    print(result.checkpoint_path or "")
    return 0


def _load_model(args) -> Seq2Seq:
    return Seq2Seq.load(args.checkpoint, *_load_vocabs(args))


def _load_lexicon(args) -> dict[str, str]:
    return pipeline.read_tsv_map(args.lexicon) if args.lexicon else {}


def cmd_generate(args, cfg):
    model = _load_model(args)
    lexicon = _load_lexicon(args)
    results = []
    if args.from_corpus:
        examples = pipeline.read_corpus(args.from_corpus)
        for i, ex in enumerate(examples[:args.limit]):
            item_surface = evaluation.item_surface_for(ex, lexicon)
            results.extend(generation.generate(
                model, ex.triples, lexicon, item_surface, args.beam, args.t_max,
                input_id=str(i)))
    elif args.triples:
        main = _require(args.main, "--main")
        raw = pipeline.read_ntriples(args.triples)
        pcfg = _pipeline_config(args, cfg, model.config.mode)
        triples = generation.prepare_raw_triples(raw, main, pcfg)
        item_surface = args.item_surface or generation.surface_for(main, lexicon)
        results.extend(generation.generate(model, triples, lexicon, item_surface,
                                           args.beam, args.t_max, input_id=main))
    else:
        raise UsageError("generate needs --from-corpus or --triples/--main")
    if args.out:
        generation.write_results(args.out, results)
    else:
        for r in results:
            print(json.dumps({"input_id": r.input_id, "rank": r.rank,
                              "log_prob": r.log_prob, "final_text": r.final_text},
                             ensure_ascii=False))
    return 0


def cmd_evaluate(args, cfg):
    model = _load_model(args)
    lexicon = _load_lexicon(args)
    examples = pipeline.read_corpus(args.corpus)
    if not examples:
        raise PipelineError(f"{args.corpus}: no examples to evaluate")
    t0 = time.perf_counter()
    ppx = evaluation.perplexity(model, examples)
    t1 = time.perf_counter()
    cands, refs, counts = [], [], []
    forced_top1 = 0
    for i, ex in enumerate(examples):
        item_surface = evaluation.item_surface_for(ex, lexicon)
        top = generation.generate(model, ex.triples, lexicon, item_surface,
                                  args.beam, args.t_max, input_id=str(i))
        cands.append(top[0].final_tokens if top else [])
        forced_top1 += bool(top) and top[0].forced
        refs.append(evaluation.reference_final(ex))
        counts.append(len(ex.triples))
    generate_s = time.perf_counter() - t1
    report = evaluation.score_pairs(cands, refs, perplexity_value=ppx)
    report.bleu4_by_triple_count = evaluation.bleu_by_triple_count(
        list(zip(cands, refs)), counts)
    print(report.to_table())
    check_writable(args.out, args.curve_csv)
    if args.out:
        timing = {"perplexity_s": t1 - t0, "generate_s": generate_s,
                  "inputs_per_s": len(examples) / generate_s}
        beam = {"inputs": len(examples), "forced_top1": forced_top1}
        with atomic_open(args.out) as fh:
            fh.write(report.to_json(timing=timing, beam=beam) + "\n")
    if args.curve_csv:
        with atomic_open(args.curve_csv) as fh:
            fh.write(report.curve_csv())
    return 0


def cmd_baseline(args, cfg):
    train_examples = pipeline.read_corpus(args.train_corpus)
    eval_examples = pipeline.read_corpus(args.eval_corpus)
    lexicon = _load_lexicon(args)
    if args.kind == "random":
        report = evaluation.random_baseline(train_examples, eval_examples, lexicon,
                                            args.samples, args.seed)
    else:
        report = evaluation.kn_baseline(train_examples, eval_examples, lexicon,
                                        args.order, args.beam, args.t_max)
    print(report.to_table())
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(report.to_json() + "\n")
    return 0


def cmd_neighbors(args, cfg):
    model = _load_model(args)
    for token, similarity in evaluation.nearest_neighbors(model, args.token, args.k):
        print(f"{token}\t{similarity:.6f}")
    return 0


def cmd_gradcheck(args, cfg):
    from .model import EncodedExample
    rng = np.random.default_rng(args.seed)
    config = ModelConfig(cell_kind=args.cell, m=args.m, e_max=args.e_max)
    source = Vocabulary._with_specials("source")
    for i in range(args.source_size - len(source)):
        source._append(f"s{i}", 1)
    target = Vocabulary._with_specials("target")
    for i in range(args.target_size - len(target)):
        target._append(f"t{i}", 1)
    model = Seq2Seq(config, source, target).to_float64()  # central differences need float64
    # larger-than-training weights keep finite differences well conditioned
    nn.init_uniform(model.parameters(), -0.5, 0.5, seed=args.seed)
    batch = []
    for _ in range(args.batch):
        n_triples = int(rng.integers(1, args.e_max + 1))
        triples = [tuple(int(x) for x in rng.integers(0, len(source), 3))
                   for _ in range(n_triples)]
        length = int(rng.integers(2, 6))
        seq = [model.start_index] + [int(rng.integers(1, len(target)))
                                     for _ in range(length)] + [model.end_index]
        batch.append(EncodedExample(triples=triples, target=seq))
    params = model.parameters()

    def loss_fn(compute_grads: bool) -> float:
        tape = nn.Tape() if compute_grads else None
        cost, _, _ = model.batch_loss(tape, batch, training=True)
        if compute_grads:
            tape.backward(cost)
        return float(cost.value[0, 0])

    worst = nn.gradient_check(loss_fn, params)
    print(f"max relative gradient error: {worst:.3e} over "
          f"{sum(p.value.size for p in params)} entries ({args.cell})")
    return 0 if worst < args.tolerance else 2


_COMMANDS = {
    "demo-corpus": cmd_demo_corpus,
    "build-corpus": cmd_build_corpus,
    "build-vocab": cmd_build_vocab,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "baseline": cmd_baseline,
    "neighbors": cmd_neighbors,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verbose:
            logging.getLogger().setLevel(logging.DEBUG)
        config_path = args.config or os.environ.get(CONFIG_ENV)
        cfg = load_config(config_path) if config_path else {}
        _resolve(args, cfg)
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (nn.BadCheckpointError, CheckpointMismatchError, OutputError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except (PipelineError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
