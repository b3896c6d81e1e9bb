import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, unigram_perplexity
from triples2text import evaluation as ev
from triples2text import tokens as tk
from triples2text.pipeline import AlignedExample, SummaryToken, Triple


# -- BLEU ---------------------------------------------------------------------


def test_bleu_identical_pair_is_hundred():
    c = [["the", "cat", "sat", "down"]]
    for n in (1, 2, 3, 4):
        assert ev.bleu_n(c, c, n) == 100.0


def test_bleu_clipping_hand_case():
    cand = [["the", "the", "the", "the"]]
    ref = [["the", "cat", "sat"]]
    # p1 = 1/4 after clipping at the reference count; c > r so no penalty
    assert abs(ev.bleu_n(cand, ref, 1) - 100.0 * (1.0 / 4.0)) < 1e-12


def test_bleu_empty_candidate_is_zero():
    assert ev.bleu_n([[]], [["a", "b"]], 4) == 0.0


def test_bleu_brevity_penalty_hand_case():
    cand = [["a", "b"]]
    ref = [["a", "b", "c", "d"]]
    # p1 = 1, p2 = 1, bp = exp(1 - 4/2)
    expected = 100.0 * math.exp(1.0 - 2.0) * 1.0
    assert abs(ev.bleu_n(cand, ref, 2) - expected) < 1e-12


def test_bleu_rejects_bad_order():
    with pytest.raises(ValueError):
        ev.bleu_n([["a"]], [["a"]], 0)
    with pytest.raises(ValueError):
        ev.bleu_n([["a"]], [["a"]], 5)


def test_bleu_corpus_level_pools_counts():
    cands = [["a", "b"], ["c"]]
    refs = [["a", "x"], ["c"]]
    # order 1: matched 1 ("a") + 1 ("c"), total 3; lengths c=3 r=3
    assert abs(ev.bleu_n(cands, refs, 1) - 100.0 * (2.0 / 3.0)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=8)),
    min_size=1, max_size=6),
    st.randoms())
def test_bleu_rouge_permutation_invariant(pairs, rnd):
    cands = [p[0] for p in pairs]
    refs = [p[1] for p in pairs]
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    cands2 = [cands[i] for i in order]
    refs2 = [refs[i] for i in order]
    assert abs(ev.bleu_n(cands, refs, 2) - ev.bleu_n(cands2, refs2, 2)) < 1e-9
    assert abs(ev.rouge_l(cands, refs) - ev.rouge_l(cands2, refs2)) < 1e-9


def per_order_bleu(candidates, references, n):
    """BLEU-n counting each order's n-grams on its own, as bleu_n did
    before the counts were shared: the oracle for the shared counts."""
    def ngrams(tokens, k):
        return Counter(tuple(tokens[i:i + k]) for i in range(len(tokens) - k + 1))
    matched = [0] * n
    total = [0] * n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for k in range(1, n + 1):
            cc = ngrams(cand, k)
            rc = ngrams(ref, k)
            matched[k - 1] += sum(min(c, rc.get(g, 0)) for g, c in cc.items())
            total[k - 1] += max(len(cand) - k + 1, 0)
    if cand_len == 0:
        return 0.0
    if any(t == 0 or m == 0 for m, t in zip(matched, total)):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total)) / n
    brevity = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return 100.0 * brevity * math.exp(log_precision)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.lists(st.sampled_from("abc"), max_size=9),
    st.lists(st.sampled_from("abc"), max_size=9),
    st.integers(1, 3)), max_size=8))
def test_shared_ngram_counts_match_per_order_counting(rows):
    cands = [r[0] for r in rows]
    refs = [r[1] for r in rows]
    report = ev.score_pairs(cands, refs)
    for k in (1, 2, 3, 4):
        assert report.bleu[k] == per_order_bleu(cands, refs, k)
        assert ev.bleu_n(cands, refs, k) == report.bleu[k]
    curve = ev.bleu_by_triple_count([(c, r) for c, r, _ in rows], [n for *_, n in rows])
    for n, (bleu4, size) in curve.items():
        group = [(c, r) for c, r, m in rows if m == n]
        assert size == len(group)
        assert bleu4 == per_order_bleu([c for c, _ in group], [r for _, r in group], 4)
        assert bleu4 == ev.bleu_n([c for c, _ in group], [r for _, r in group], 4)


# -- ROUGE-L ------------------------------------------------------------------


def test_rouge_identical_is_hundred():
    c = [["a", "b", "c"]]
    assert ev.rouge_l(c, c) == 100.0


def test_rouge_hand_case_beta():
    cand = [["a", "b", "c", "d"]]
    ref = [["a", "c", "d"]]
    beta2 = 1.2 * 1.2
    r, p = 3.0 / 3.0, 3.0 / 4.0
    expected = 100.0 * (1 + beta2) * r * p / (r + beta2 * p)
    assert abs(ev.rouge_l(cand, ref) - expected) < 1e-12


def test_rouge_disjoint_zero_and_empty_reference_skipped():
    assert ev.rouge_l([["a", "b"]], [["x", "y"]]) == 0.0
    score = ev.rouge_l([["a"], ["a", "b"]], [[], ["a", "b"]])
    assert score == 100.0  # the empty-reference pair is skipped


def table_lcs_length(a, b):
    """The O(|a|·|b|) dynamic-programming table that ``_lcs_length`` replaced."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


lcs_tokens = st.lists(st.sampled_from(["a", "b", "c", "the", ""]), max_size=90)


@settings(max_examples=300, deadline=None)
@given(lcs_tokens, lcs_tokens)
def test_bit_parallel_lcs_equals_the_table(a, b):
    assert ev._lcs_length(a, b) == table_lcs_length(a, b)
    assert ev._lcs_length(b, a) == table_lcs_length(a, b)


def test_bit_parallel_lcs_edge_cases():
    long = [f"w{i % 7}" for i in range(300)]
    cases = [([], []), ([], ["a"]), (["a"], []), (["a"] * 70, ["a"] * 65),
             (["a", "b"] * 40, ["b", "a"] * 40), (long, long[::-1]), (long, long[5:])]
    for a, b in cases:
        assert ev._lcs_length(a, b) == table_lcs_length(a, b), (len(a), len(b))


# -- perplexity ----------------------------------------------------------------


def aligned(tokens, triples=None, main="dbr:M", with_item=False):
    toks = [SummaryToken("special", tk.START)]
    if with_item:
        toks.append(SummaryToken("special", tk.ITEM, uri=main))
    toks += [SummaryToken("word", t) for t in tokens]
    toks.append(SummaryToken("special", tk.END))
    return AlignedExample(main, triples or [Triple(tk.ITEM, "dbo:p", "dbr:A")],
                          toks, list(tokens), "uri")


def test_uniform_model_perplexity_equals_unmasked_vocab():
    model = make_model(seed=1, target_extra=7, init_scale=0.0).to_float64()  # exact to 1e-9
    examples = [aligned(["t0", "t1"]), aligned(["t2"])]
    ppx = ev.perplexity(model, examples)
    unmasked = len(model.target_vocab) - 1  # <pad> is masked out
    assert abs(ppx - unmasked) / unmasked < 1e-9


def test_perplexity_hand_case():
    # two tokens with probabilities 0.5 and 0.125: exp((ln2 + ln8) / 2) = 4
    class Stub:
        def encode_example(self, ex):
            return ex
        def corpus_nll(self, examples, max_timestep=None):
            return -(math.log(0.5) + math.log(0.125)), 2
    assert abs(ev.perplexity(Stub(), [object()]) - 4.0) < 1e-12


def test_perplexity_perfect_model_is_one():
    class Stub:
        def encode_example(self, ex):
            return ex
        def corpus_nll(self, examples, max_timestep=None):
            return 0.0, 5
    assert ev.perplexity(Stub(), [object()]) == 1.0


def test_perplexity_empty_corpus_raises():
    with pytest.raises(ValueError):
        ev.perplexity(make_model(), [])


# -- Kneser-Ney -----------------------------------------------------------------


def kn_corpus():
    return [["<start>", "a", "b", "a", "<end>"],
            ["<start>", "a", "b", "b", "<end>"]]


def test_kn_distributions_normalise_every_order():
    kn = ev.kn_train(kn_corpus(), n=3)
    rng = np.random.default_rng(0)
    vocab = kn.vocab + ["<start>"]
    for _ in range(100):
        k = int(rng.integers(0, 3))
        hist = tuple(vocab[i] for i in rng.integers(0, len(vocab), k))
        total = kn.conditional(hist).sum()
        assert abs(total - 1.0) < 1e-9, (hist, total)


def test_kn_bigram_matches_hand_computed_table():
    # 10-token corpus; bigram interpolated Kneser-Ney computed by hand below
    corpus = kn_corpus()
    kn = ev.kn_train(corpus, n=2)

    # raw bigram counts over
    #   <start> a | a b | b a | a <end> | <start> a | a b | b b | b <end>
    bigrams = Counter()
    for seq in corpus:
        for i in range(len(seq) - 1):
            bigrams[(seq[i], seq[i + 1])] += 1
    # order-2 count of counts: counts are {(<start>,a):2, (a,b):2, (b,a):1,
    # (a,<end>):1, (b,b):1, (b,<end>):1} -> n1=4, n2=2
    d2 = 4 / (4 + 2 * 2)
    # unigram continuation counts (distinct left contexts), <start> excluded:
    #   a: {<start>, b} = 2;  b: {a, b} = 2;  <end>: {a, b} = 2
    cont = {"a": 2, "b": 2, "<end>": 2}
    total_cont = 6
    kinds = 3
    # order-1 count of counts over continuation counts {2,2,2}: n1=0, n2=3
    # -> degenerate, the implementation falls back to 0.75
    d1 = 0.75
    vocab = sorted(cont)

    def p_uni(w):
        return (max(cont[w] - d1, 0.0) / total_cont
                + d1 * kinds / total_cont * (1.0 / len(vocab)))

    def p_bi(w, h):
        denom = sum(c for (a, _), c in bigrams.items() if a == h)
        c = bigrams.get((h, w), 0)
        t = len({b for (a, b) in bigrams if a == h})
        return max(c - d2, 0.0) / denom + d2 * t / denom * p_uni(w)

    for h in ("a", "b"):
        dist = kn.conditional((h,))
        for w in vocab:
            assert abs(dist[kn.vocab_index[w]] - p_bi(w, h)) < 1e-9, (h, w)
    # the start-anchored history keeps raw counts: p(a | <start>) uses them
    dist = kn.conditional(("<start>",))
    denom = 2
    assert abs(dist[kn.vocab_index["a"]]
               - ((2 - d2) / denom + d2 * 1 / denom * p_uni("a"))) < 1e-9


def test_kn_backs_off_and_never_zero():
    kn = ev.kn_train(kn_corpus(), n=3)
    dist = kn.conditional(("never", "seen"))
    assert np.all(dist > 0.0)
    assert abs(dist.sum() - 1.0) < 1e-9


def test_kn_sparse_counts_warn_and_fall_back(caplog):
    import logging
    with caplog.at_level(logging.WARNING):
        kn = ev.kn_train([["<start>", "x", "<end>"]], n=5)
    assert any("0.75" in r.message for r in caplog.records)
    assert all(d == 0.75 for d in kn.discounts)


def test_kn_generate_produces_ranked_complete_sequences():
    seqs = ev.kn_generate(ev.kn_train(kn_corpus(), n=2), beam_width=4, t_max=10)
    assert seqs and all(s[-1] == tk.END for s in seqs)


# -- baselines -------------------------------------------------------------------


def baseline_corpus():
    # every summary resolves to exactly "<main surface> hello world again"
    def make(main):
        ex = aligned(["hello", "world", "again"], main=main, with_item=True)
        ex.reference_tokens = [main.split(":")[1], "hello", "world", "again"]
        return ex
    train = [make(f"dbr:T{i}") for i in range(4)]
    evalset = [make(f"dbr:E{i}") for i in range(3)]
    return train, evalset


def test_random_baseline_deterministic_and_zero_std_for_singleton():
    train, evalset = baseline_corpus()
    one = ev.random_baseline(train[:1], evalset, {}, samples=5, seed=1)
    assert all(v == 0.0 for v in one.stddev.values())
    a = ev.random_baseline(train, evalset, {}, samples=5, seed=9)
    b = ev.random_baseline(train, evalset, {}, samples=5, seed=9)
    assert a.bleu == b.bleu and a.stddev == b.stddev


def test_random_baseline_identical_summary_scores_hundred():
    train, evalset = baseline_corpus()
    rep = ev.random_baseline(train, evalset, {}, samples=3, seed=0)
    assert abs(rep.bleu[4] - 100.0) < 1e-9


def test_random_baseline_scores_each_round_with_score_pairs(monkeypatch):
    train, evalset = baseline_corpus()
    want = ev.random_baseline(train, evalset, {}, samples=3, seed=4)
    calls = []
    score_pairs = ev.score_pairs
    monkeypatch.setattr(ev, "score_pairs", lambda *a: calls.append(a) or score_pairs(*a))
    got = ev.random_baseline(train, evalset, {}, samples=3, seed=4)
    assert len(calls) == 3 and got.to_json() == want.to_json()


def test_random_baseline_empty_training_set_raises():
    _, evalset = baseline_corpus()
    with pytest.raises(ValueError):
        ev.random_baseline([], evalset, {}, samples=10, seed=0)


def test_unigram_perplexity_sane():
    train, evalset = baseline_corpus()
    ppx = unigram_perplexity(train, evalset)
    assert 1.0 < ppx < 100.0


# -- grouped BLEU -----------------------------------------------------------------


def test_bleu_by_triple_count_single_group_matches_corpus():
    pairs = [(["a", "b", "c", "d"], ["a", "b", "c", "d"]),
             (["x", "y", "z", "w"], ["x", "y", "z", "q"])]
    curve = ev.bleu_by_triple_count(pairs, [3, 3])
    assert set(curve) == {3}
    assert curve[3][0] == ev.bleu_n([p[0] for p in pairs], [p[1] for p in pairs], 4)
    assert curve[3][1] == 2


def test_bleu_by_triple_count_groups_scored_separately():
    perfect = (["a", "b", "c", "d"], ["a", "b", "c", "d"])
    poor = (["x", "x", "x", "x"], ["a", "b", "c", "d"])
    curve = ev.bleu_by_triple_count([perfect, poor], [2, 5])
    assert curve[2][0] == 100.0
    assert curve[5][0] == 0.0
    empty_groups = [k for k in curve if k not in (2, 5)]
    assert not empty_groups


# -- nearest neighbours ------------------------------------------------------------


def test_nearest_neighbors_excludes_query_and_ranks_by_cosine():
    model = make_model(seed=2, source_extra=6)
    sv = model.source_vocab
    emb = model.encoder.embed.value
    emb[...] = 0.0
    base = np.zeros(model.config.m)
    base[0] = 1.0
    emb[sv.index["s0"]] = base
    emb[sv.index["s1"]] = base * 3.0          # same direction
    emb[sv.index["s2"]] = -base               # opposite
    emb[sv.index["s3"], 1] = 1.0              # orthogonal
    sv.entity_tokens = {"s0", "s1", "s2", "s3"}
    out = ev.nearest_neighbors(model, "s0", 3)
    assert [t for t, _ in out] == ["s1", "s3", "s2"]
    assert all(t != "s0" for t, _ in out)


def test_nearest_neighbors_k_larger_than_vocab():
    model = make_model(seed=2, source_extra=3)
    model.source_vocab.entity_tokens = {"s0", "s1", "s2"}
    out = ev.nearest_neighbors(model, "s0", 100)
    assert len(out) == 2


def test_nearest_neighbors_unknown_token_raises():
    model = make_model(seed=2)
    with pytest.raises(ValueError):
        ev.nearest_neighbors(model, "dbr:Nope", 3)


# -- report formatting ---------------------------------------------------------------


def test_metric_report_serialisations():
    rep = ev.MetricReport(perplexity=3.5, bleu={1: 50.0, 2: 40.0, 3: 30.0, 4: 20.0},
                          rouge_l=45.0, n_evaluated=7,
                          bleu4_by_triple_count={3: (20.0, 5), 5: (25.0, 2)})
    js = rep.to_json()
    assert '"perplexity": 3.5' in js
    table = rep.to_table()
    assert "BLEU 4" in table and "ROUGE-L" in table
    csv = rep.curve_csv()
    assert csv.splitlines()[0] == "triple_count,bleu4"
    assert "3,20.000000" in csv
