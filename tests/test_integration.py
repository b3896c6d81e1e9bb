"""Cross-module checks: demo corpus invariants and learned-embedding
behaviour on toy training runs."""

import math

from triples2text import demo, evaluation, pipeline, training
from triples2text.pipeline import Annotation, AnnotatedSummary, PipelineConfig, Triple
from triples2text.tokens import END, ITEM, START, parse_placeholder
from triples2text.vocab import build_source_vocab, build_target_vocab


def build_demo(tmp_path, seed=3, size=100):
    out = str(tmp_path / "demo")
    demo.demo_corpus(seed, size, out)
    types = pipeline.read_tsv_map(f"{out}/instance_types.tsv")
    genders = pipeline.read_tsv_map(f"{out}/genders.tsv")
    cfg = PipelineConfig(mode="uri", target_vocab_size=100_000,
                         target_vocab_min_count=2, gender_lexicon=genders)
    articles = pipeline.read_articles(f"{out}/triples.nt", f"{out}/summaries.jsonl")
    return pipeline.build_corpus(articles, types, cfg)


def test_demo_corpus_size_and_pipeline_invariants(tmp_path):
    examples, stats, lexicon = build_demo(tmp_path, seed=3, size=100)
    assert len(examples) == 100
    assert stats.exclusions == {}

    # bounds hold under recomputed statistics
    sizes = [len(ex.triples) for ex in examples]
    mean = sum(sizes) / len(sizes)
    std = math.sqrt(sum((s - mean) ** 2 for s in sizes) / len(sizes))
    lower = math.floor(min(sizes) + 0.25 * std)
    upper = math.floor(mean + 1.5 * std)
    assert all(lower <= s <= upper for s in sizes)
    assert stats.e_max == max(sizes)

    for ex in examples:
        texts = [t.text for t in ex.summary_tokens]
        assert texts[0] == START and texts[-1] == END
        # no raw date literal survives the pipeline
        for t in ex.triples:
            assert t.object_kind != "date"
        # placeholder grammar: unique split whose predicate is present
        preds = {t.predicate for t in ex.triples}
        for tok in ex.summary_tokens:
            if tok.kind == "placeholder":
                parsed = parse_placeholder(tok.text)
                assert parsed is not None
                assert parsed[0] in preds
        # token accounting: the main entity maps to <item> tokens
        assert ITEM in texts


def test_demo_corpus_build_is_deterministic(tmp_path):
    a = build_demo(tmp_path / "a", seed=9, size=40)
    b = build_demo(tmp_path / "b", seed=9, size=40)
    assert [[t.text for t in e.summary_tokens] for e in a[0]] \
        == [[t.text for t in e.summary_tokens] for e in b[0]]
    assert a[2] == b[2]


def test_entities_in_identical_contexts_become_neighbours():
    # three cities appear in interchangeable triple contexts; after a toy
    # training run their encoder vectors rank within each other's top-3
    cities = ["dbr:Red_City", "dbr:Blue_City", "dbr:Green_Town"]
    months = ["January", "May", "September"]
    articles = []
    for i in range(90):
        main = f"dbr:P{i}"
        city = cities[i % 3]
        month = months[(i // 3) % 3]
        s = AnnotatedSummary(main,
                             [["N", str(i), "born", "in", month, "in", "City", "."]],
                             [Annotation(0, 0, 2, main, f"N {i}"),
                              Annotation(0, 6, 7, city, "City")])
        triples = [Triple(main, "dbo:birthPlace", city),
                   Triple(main, "dbo:birthMonth", str(months.index(month) + 1),
                          "month")]
        articles.append((s, triples))
    types = {c: "dbo:Settlement" for c in cities}
    cfg = PipelineConfig(mode="uri", target_vocab_size=20, target_vocab_min_count=5)
    examples, stats, _ = pipeline.build_corpus(articles, types, cfg)
    tv = build_target_vocab(examples, 20, 5)
    sv = build_source_vocab(examples, 5)
    tcfg = training.TrainConfig(batch_size=10, max_timestep=20, epochs=60, seed=4,
                                cell_kind="gru", m=16, e_max=stats.e_max, l2=0.0,
                                decay_start_epoch=10**9, patience=None, mode="uri")
    model, _ = training.train(examples, [], tcfg, sv, tv)
    for city in cities:
        neighbours = {t for t, _ in evaluation.nearest_neighbors(model, city, 3)}
        others = set(cities) - {city}
        assert others & neighbours, (city, neighbours)


def test_toy_overfit_reproduces_training_summary(tmp_path):
    # a model trained to convergence on a tiny corpus emits a training
    # summary as its top-1 beam result (probing inputs whose triples stay
    # fully identifiable after source-side rarity fallbacks)
    from triples2text import generation
    from triples2text.tokens import RESOURCE, UNK
    examples, stats, lexicon = build_demo(tmp_path, seed=21, size=100)
    tv = build_target_vocab(examples, 100_000, 2)
    sv = build_source_vocab(examples, 3)
    tcfg = training.TrainConfig(batch_size=10, max_timestep=40, epochs=220, seed=2,
                                cell_kind="gru", m=64, e_max=stats.e_max, l2=0.0,
                                decay_factor=0.99, decay_start_epoch=60,
                                patience=None, mode="uri",
                                bound_lower=stats.lower_bound(),
                                bound_upper=stats.upper_bound())
    model, _ = training.train(examples, [], tcfg, sv, tv)
    blurry = {sv.index[UNK], sv.index[RESOURCE]}
    probe = [ex for ex in examples
             if not any(set(t) & blurry for t in model.encode_example(ex).triples)]
    probe = probe[:10]
    assert len(probe) == 10
    hits = 0
    for ex in probe:
        res = generation.generate(model, ex.triples, lexicon,
                                  evaluation.item_surface_for(ex, lexicon),
                                  beam_width=10, t_max=60)
        gold = model.encode_example(ex).target
        if res and [model.target_vocab.index.get(t, -1) for t in res[0].tokens] \
                == gold[1:]:
            hits += 1
    assert hits >= 8, f"only {hits}/10 training summaries reproduced"
