#!/usr/bin/env python3
"""End-to-end desk-scale experiment on the synthetic corpus.

Builds the demo corpus, trains a GRU and an LSTM summariser, scores both
against the random-retrieval and 5-gram Kneser-Ney baselines on the
held-out split, and prints one table. Everything runs offline on one
core in a few minutes.

Usage:
    python3 scripts/run_demo_experiment.py --out-dir /tmp/t2t_demo \
        --size 200 --seed 11 --epochs 200
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from triples2text import demo, evaluation, generation, pipeline, training
from triples2text.pipeline import PipelineConfig
from triples2text.training import TrainConfig
from triples2text.vocab import build_source_vocab, build_target_vocab


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="/tmp/t2t_demo")
    ap.add_argument("--size", type=int, default=200)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--m", type=int, default=64)
    ap.add_argument("--mode", default="uri", choices=["uri", "surface_form_tuple"])
    args = ap.parse_args()

    t0 = time.time()
    demo.demo_corpus(args.seed, args.size, args.out_dir)
    types = pipeline.read_tsv_map(os.path.join(args.out_dir, "instance_types.tsv"))
    genders = pipeline.read_tsv_map(os.path.join(args.out_dir, "genders.tsv"))
    pcfg = PipelineConfig(mode=args.mode, target_vocab_size=100_000,
                          target_vocab_min_count=2, gender_lexicon=genders)
    articles = pipeline.read_articles(os.path.join(args.out_dir, "triples.nt"),
                                      os.path.join(args.out_dir, "summaries.jsonl"))
    examples, stats, lexicon = pipeline.build_corpus(articles, types, pcfg)
    pipeline.write_corpus(os.path.join(args.out_dir, "corpus.jsonl"), examples)
    pipeline.write_stats(os.path.join(args.out_dir, "stats.json"), stats)
    pipeline.write_lexicon(os.path.join(args.out_dir, "lexicon.tsv"), lexicon)
    n_valid = max(1, args.size * 15 // 100)
    train_set, valid_set = examples[:-n_valid], examples[-n_valid:]
    target_vocab = build_target_vocab(examples, 100_000, 2)
    source_vocab = build_source_vocab(examples, 3)
    target_vocab.save(os.path.join(args.out_dir, "target.vocab"))
    source_vocab.save(os.path.join(args.out_dir, "source.vocab"))
    print(f"corpus: {len(train_set)} train / {len(valid_set)} valid, "
          f"|X|={len(target_vocab)} |N|={len(source_vocab)} "
          f"E in [{stats.lower_bound()}, {stats.upper_bound()}]")

    def score(tag, cands):
        refs = [evaluation.reference_final(ex) for ex in valid_set]
        rep = evaluation.score_pairs(cands, refs)
        print(f"{tag:<22} BLEU-4 {rep.bleu[4]:7.2f}   BLEU-1 {rep.bleu[1]:7.2f}"
              f"   ROUGE-L {rep.rouge_l:7.2f}")
        return rep

    rows = {}
    for cell, epochs, decay_start in (("gru", args.epochs, 40),
                                      ("lstm", args.epochs + 100, 120)):
        tcfg = TrainConfig(batch_size=10, max_timestep=40, epochs=epochs,
                           seed=args.seed, cell_kind=cell, m=args.m,
                           e_max=stats.e_max, l2=0.0, decay_factor=0.99,
                           decay_start_epoch=decay_start, patience=None,
                           mode=args.mode, bound_lower=stats.lower_bound(),
                           bound_upper=stats.upper_bound())
        run_dir = os.path.join(args.out_dir, f"run_{cell}")
        model, result = training.train(train_set, valid_set, tcfg,
                                       source_vocab, target_vocab, out_dir=run_dir)
        ppx = evaluation.perplexity(model, valid_set)
        cands = []
        for ex in valid_set:
            res = generation.generate(model, ex.triples, lexicon,
                                      evaluation.item_surface_for(ex, lexicon),
                                      beam_width=10, t_max=60)
            cands.append(res[0].final_tokens)
        print(f"\n{cell}: {result.epochs_run} epochs, valid perplexity {ppx:.3f}")
        rows[cell] = score(f"triples2{cell}", cands)

    print()
    kb = evaluation.kn_baseline(train_set, valid_set, lexicon)
    print(f"{'kneser-ney (5-gram)':<22} BLEU-4 {kb.bleu[4]:7.2f}   "
          f"BLEU-1 {kb.bleu[1]:7.2f}   ROUGE-L {kb.rouge_l:7.2f}")
    rb = evaluation.random_baseline(train_set, valid_set, lexicon,
                                    samples=10, seed=args.seed)
    print(f"{'random retrieval':<22} BLEU-4 {rb.bleu[4]:7.2f}   "
          f"BLEU-1 {rb.bleu[1]:7.2f}   ROUGE-L {rb.rouge_l:7.2f}")
    print(f"\ntotal time {time.time() - t0:.0f}s; artifacts in {args.out_dir}")


if __name__ == "__main__":
    main()
