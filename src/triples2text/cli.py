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
failure (non-finite loss, corrupt checkpoint). A ``key = value`` config
file (``--config`` or the TRIPLES2TEXT_CONFIG environment variable)
supplies defaults; explicit flags win. Relative paths in the config file
resolve against the config file's directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import evaluation, generation, nn, pipeline, training
from .decoder import CELL_KINDS, GRU
from .demo import MIN_SIZE, demo_corpus
from .fileio import atomic_open
from .model import CheckpointMismatchError, ModelConfig, Seq2Seq
from .pipeline import MODE_TUPLES, MODE_URI, PipelineConfig, PipelineError
from .tokens import SPECIAL_TOKENS
from .training import TrainConfig, TrainingDivergedError
from .vocab import SOURCE_MIN_COUNT, Vocabulary, build_source_vocab, build_target_vocab

logger = logging.getLogger("triples2text")

CONFIG_ENV = "TRIPLES2TEXT_CONFIG"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_config(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    out: dict[str, str] = {"_base": base}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def _pick(flag, cfg: dict[str, str], key: str, cast, default=None):
    if flag is not None:
        return flag
    if key in cfg:
        return cast(cfg[key])
    return default


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

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    d = add_parser("demo-corpus", help="write a synthetic corpus")
    d.add_argument("--out-dir", required=True)
    d.add_argument("--size", type=int, default=200)
    d.add_argument("--seed", type=int, default=0)

    b = add_parser("build-corpus", help="build the aligned corpus")
    b.add_argument("--triples")
    b.add_argument("--summaries")
    b.add_argument("--types")
    b.add_argument("--genders")
    b.add_argument("--mode", choices=[MODE_URI, MODE_TUPLES])
    b.add_argument("--out", required=True)
    b.add_argument("--stats-out")
    b.add_argument("--lexicon-out")
    b.add_argument("--target-vocab-size", type=int)
    b.add_argument("--target-vocab-min-count", type=int)
    b.add_argument("--year-min", type=int)
    b.add_argument("--year-max", type=int)

    v = add_parser("build-vocab", help="build source/target dictionaries")
    v.add_argument("--corpus", required=True)
    v.add_argument("--target-out", required=True)
    v.add_argument("--source-out", required=True)
    v.add_argument("--target-max-size", type=int)
    v.add_argument("--target-min-count", type=int)
    v.add_argument("--source-min-count", type=int)

    t = add_parser("train", help="train a model")
    t.add_argument("--corpus", required=True)
    t.add_argument("--valid")
    t.add_argument("--valid-fraction", type=float)
    t.add_argument("--source-vocab", required=True)
    t.add_argument("--target-vocab", required=True)
    t.add_argument("--stats", help="corpus stats JSON (for e_max and bounds)")
    t.add_argument("--out-dir", required=True)
    t.add_argument("--cell", choices=list(CELL_KINDS))
    t.add_argument("--m", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--decay-factor", type=float)
    t.add_argument("--decay-start", type=int)
    t.add_argument("--patience", type=int)
    t.add_argument("--no-early-stop", action="store_true")
    t.add_argument("--l2", type=float)
    t.add_argument("--clip-norm", type=float)
    t.add_argument("--max-timestep", type=int)
    t.add_argument("--e-max", type=int)
    t.add_argument("--seed", type=int)

    g = add_parser("generate", help="generate summaries")
    g.add_argument("--checkpoint", required=True)
    g.add_argument("--source-vocab", required=True)
    g.add_argument("--target-vocab", required=True)
    g.add_argument("--lexicon")
    g.add_argument("--genders", help="gender lexicon applied to raw --triples input "
                   "(default: the config file's genders)")
    g.add_argument("--from-corpus", help="aligned corpus whose triple sets to use")
    g.add_argument("--limit", type=int)
    g.add_argument("--triples", help="N-Triples file for a single input")
    g.add_argument("--main", help="main entity URI for --triples input")
    g.add_argument("--item-surface")
    g.add_argument("--beam", type=int, default=10)
    g.add_argument("--t-max", type=int, default=80)
    g.add_argument("--out")

    e = add_parser("evaluate", help="score a model on an aligned corpus")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--source-vocab", required=True)
    e.add_argument("--target-vocab", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--lexicon")
    e.add_argument("--beam", type=int, default=10)
    e.add_argument("--t-max", type=int, default=80)
    e.add_argument("--out", help="JSON report path")
    e.add_argument("--curve-csv", help="BLEU-4 by triple count CSV path")

    s = add_parser("baseline", help="score a baseline on an aligned corpus")
    s.add_argument("--kind", choices=["random", "kn"], required=True)
    s.add_argument("--train-corpus", required=True)
    s.add_argument("--eval-corpus", required=True)
    s.add_argument("--lexicon")
    s.add_argument("--samples", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--order", type=int, default=5)
    s.add_argument("--beam", type=int, default=10)
    s.add_argument("--t-max", type=int, default=80)
    s.add_argument("--out")

    n = add_parser("neighbors", help="nearest entity embeddings")
    n.add_argument("--checkpoint", required=True)
    n.add_argument("--source-vocab", required=True)
    n.add_argument("--target-vocab", required=True)
    n.add_argument("--token", required=True)
    n.add_argument("--k", type=int, default=5)

    c = add_parser("gradcheck", help="finite-difference gradient check")
    c.add_argument("--cell", choices=list(CELL_KINDS), default=GRU)
    c.add_argument("--m", type=int, default=6)
    c.add_argument("--source-size", type=int, default=12)
    c.add_argument("--target-size", type=int, default=14)
    c.add_argument("--e-max", type=int, default=3)
    c.add_argument("--batch", type=int, default=4)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--tolerance", type=float, default=1e-4)
    return p


# ---------------------------------------------------------------------------
# subcommand bodies


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required value: {flag}")
    return value


def cmd_demo_corpus(args, cfg):
    _at_least("--size", args.size, MIN_SIZE)
    paths = demo_corpus(args.seed, args.size, args.out_dir)
    for key, path in paths.items():
        logger.info("wrote %s: %s", key, path)
    print(paths["config"])
    return 0


def _pipeline_config(args, cfg, mode: str) -> PipelineConfig:
    """The pipeline settings of build-corpus and of generate --triples, so
    that a raw triple set is rewritten as the training corpus was. Each
    value comes from its flag (where the command has one), then the
    config file, then the default."""
    def pick(key: str, cast):
        return _pick(getattr(args, key, None), cfg, key, cast, getattr(PipelineConfig, key))

    genders_path = args.genders or cfg_path(cfg, "genders")
    if genders_path and not os.path.exists(genders_path):
        raise PipelineError(f"input not found: {genders_path}")
    return PipelineConfig(
        mode=mode,
        target_vocab_size=pick("target_vocab_size", int),
        target_vocab_min_count=pick("target_vocab_min_count", int),
        year_min=pick("year_min", int),
        year_max=pick("year_max", int),
        gender_lexicon=pipeline.read_tsv_map(genders_path) if genders_path else None,
    )


def cmd_build_corpus(args, cfg):
    triples = _require(args.triples or cfg_path(cfg, "triples"), "--triples")
    summaries = _require(args.summaries or cfg_path(cfg, "summaries"), "--summaries")
    types_path = args.types or cfg_path(cfg, "instance_types")
    for path in (triples, summaries, types_path):
        if path and not os.path.exists(path):
            raise PipelineError(f"input not found: {path}")
    pcfg = _pipeline_config(args, cfg, _pick(args.mode, cfg, "mode", str, PipelineConfig.mode))
    types = pipeline.read_tsv_map(types_path) if types_path else {}
    articles = pipeline.read_articles(triples, summaries)
    examples, stats, lexicon = pipeline.build_corpus(articles, types, pcfg)
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
    target = build_target_vocab(
        examples,
        max_size=_pick(args.target_max_size, cfg, "target_vocab_size", int,
                       PipelineConfig.target_vocab_size),
        min_count=_pick(args.target_min_count, cfg, "target_vocab_min_count", int,
                        PipelineConfig.target_vocab_min_count))
    source = build_source_vocab(
        examples, min_count=_pick(args.source_min_count, cfg, "source_min_count", int,
                                  SOURCE_MIN_COUNT))
    target.save(args.target_out)
    source.save(args.source_out)
    logger.info("target vocabulary: %d tokens; source: %d tokens",
                len(target), len(source))
    return 0


def _load_vocabs(args) -> tuple[Vocabulary, Vocabulary]:
    return Vocabulary.load(args.source_vocab), Vocabulary.load(args.target_vocab)


def _at_least(flag: str, value: int | None, low: int) -> None:
    """Refuse a numeric argument below its lower bound, before any file is read."""
    if value is not None and value < low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")


def _check_search(args) -> None:
    _at_least("--beam", args.beam, 1)
    _at_least("--t-max", args.t_max, 1)


def cmd_train(args, cfg):
    max_timestep = _pick(args.max_timestep, cfg, "max_timestep", int, TrainConfig.max_timestep)
    batch_size = _pick(args.batch_size, cfg, "batch_size", int, TrainConfig.batch_size)
    m = _pick(args.m, cfg, "m", int, TrainConfig.m)
    epochs = _pick(args.epochs, cfg, "epochs", int, TrainConfig.epochs)
    learning_rate = _pick(args.lr, cfg, "learning_rate", float, TrainConfig.learning_rate)
    decay_factor = _pick(args.decay_factor, cfg, "decay_factor", float, TrainConfig.decay_factor)
    patience = (None if args.no_early_stop
                else _pick(args.patience, cfg, "patience", int, TrainConfig.patience))
    _at_least("--max-timestep", max_timestep, 1)
    _at_least("--batch-size", batch_size, 2)  # batch normalisation needs two rows
    _at_least("--m", m, 1)
    _at_least("--e-max", args.e_max, 1)
    _at_least("--epochs", epochs, 1)
    _at_least("--patience", patience, 0)
    if not learning_rate > 0:
        raise UsageError(f"--lr must be positive, got {learning_rate}")
    for flag, value in (("--decay-factor", decay_factor),
                        ("--valid-fraction", args.valid_fraction)):
        if value is not None and not 0.0 < value < 1.0:  # NaN included
            raise UsageError(f"{flag} must lie in (0, 1), got {value}")
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
    e_max = args.e_max
    bound_lower, bound_upper = 0, None
    if args.stats:
        stats = pipeline.read_stats(args.stats)
        if e_max is None:
            e_max = stats.e_max
        bound_lower, bound_upper = stats.lower_bound(), stats.upper_bound()
    if e_max is None:
        e_max = max((len(ex.triples) for ex in examples), default=1)
    clip_norm = _pick(args.clip_norm, cfg, "clip_norm", float, TrainConfig.clip_norm)
    if clip_norm is not None and clip_norm <= 0:
        clip_norm = None  # zero or negative disables clipping
    tcfg = TrainConfig(
        batch_size=batch_size,
        max_timestep=max_timestep,
        learning_rate=learning_rate,
        decay_factor=decay_factor,
        decay_start_epoch=_pick(args.decay_start, cfg, "decay_start_epoch", int,
                                TrainConfig.decay_start_epoch),
        epochs=epochs,
        seed=_pick(args.seed, cfg, "seed", int, TrainConfig.seed),
        cell_kind=_pick(args.cell, cfg, "cell", str, TrainConfig.cell_kind),
        m=m,
        e_max=e_max,
        l2=_pick(args.l2, cfg, "l2", float, TrainConfig.l2),
        clip_norm=clip_norm,
        patience=patience,
        mode=examples[0].mode if examples else TrainConfig.mode,
        bound_lower=bound_lower,
        bound_upper=bound_upper,
    )
    _, result = training.train(corpus, valid, tcfg, source_vocab, target_vocab,
                               out_dir=args.out_dir)
    logger.info("trained %d epochs; best validation perplexity %.4f at epoch %d",
                result.epochs_run, result.best_validation_perplexity, result.best_epoch)
    print(result.checkpoint_path or "")
    return 0


def _load_model(args) -> Seq2Seq:
    return Seq2Seq.load(args.checkpoint, *_load_vocabs(args))


def _load_lexicon(args) -> dict[str, str]:
    return pipeline.read_tsv_map(args.lexicon) if args.lexicon else {}


def cmd_generate(args, cfg):
    _check_search(args)
    _at_least("--limit", args.limit, 1)
    model = _load_model(args)
    lexicon = _load_lexicon(args)
    results = []
    if args.from_corpus:
        examples = pipeline.read_corpus(args.from_corpus)
        if args.limit is not None:
            examples = examples[:args.limit]
        for i, ex in enumerate(examples):
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
    _check_search(args)
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
    _check_search(args)
    _at_least("--samples", args.samples, 1)
    _at_least("--order", args.order, 1)
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
    _at_least("--k", args.k, 1)
    model = _load_model(args)
    for token, similarity in evaluation.nearest_neighbors(model, args.token, args.k):
        print(f"{token}\t{similarity:.6f}")
    return 0


def cmd_gradcheck(args, cfg):
    from .model import EncodedExample
    _at_least("--m", args.m, 1)
    _at_least("--e-max", args.e_max, 1)
    _at_least("--batch", args.batch, 2)  # batch normalisation needs two rows
    _at_least("--source-size", args.source_size, len(SPECIAL_TOKENS))
    _at_least("--target-size", args.target_size, len(SPECIAL_TOKENS))
    rng = np.random.default_rng(args.seed)
    config = ModelConfig(cell_kind=args.cell, m=args.m, e_max=args.e_max)
    source = Vocabulary._with_specials("source")
    for i in range(args.source_size - len(source)):
        source._append(f"s{i}", 1)
    target = Vocabulary._with_specials("target")
    for i in range(args.target_size - len(target)):
        target._append(f"t{i}", 1)
    model = Seq2Seq(config, source, target)
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
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PipelineError, FileNotFoundError, ValueError) as exc:
        if isinstance(exc, (nn.BadCheckpointError, CheckpointMismatchError)):
            print(f"runtime failure: {exc}", file=sys.stderr)
            return 3
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
