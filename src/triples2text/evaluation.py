"""Automatic evaluation: perplexity, corpus BLEU 1-4, ROUGE-L, the random
retrieval and 5-gram Kneser-Ney baselines, the BLEU-4 curve over triple
counts, and embedding nearest neighbours.

BLEU is corpus-level clipped n-gram precision with uniform weights and
the brevity penalty exp(min(0, 1 - r/c)); no smoothing. ROUGE-L is the
longest-common-subsequence F measure with beta = 1.2, averaged over
pairs. Both run on tokenized post-processed final text. Scores land in
[0, 100].
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .generation import Scorer, beam_search, postprocess
from .model import Seq2Seq
from .pipeline import AlignedExample
from .tokens import END, START

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# metrics


def perplexity(model: Seq2Seq, examples: Sequence[AlignedExample],
               max_timestep: int | None = None) -> float:
    """exp(total NLL of gold tokens / number of predicted tokens)."""
    if not examples:
        raise ValueError("empty corpus")
    encoded = [model.encode_example(ex) for ex in examples]
    nll, count = model.corpus_nll(encoded, max_timestep=max_timestep)
    if count == 0:
        raise ValueError("corpus has no scoreable tokens")
    return math.exp(nll / count)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _pair_counts(cand: Sequence[str], ref: Sequence[str]) -> list[int]:
    """One pair's BLEU statistics: clipped n-gram matches and candidate
    n-gram totals for orders 1-4, then the candidate and reference length."""
    return ([sum((_ngram_counts(cand, k) & _ngram_counts(ref, k)).values()) for k in (1, 2, 3, 4)]
            + [max(len(cand) - k + 1, 0) for k in (1, 2, 3, 4)] + [len(cand), len(ref)])


def _summed_counts(candidates: Sequence[Sequence[str]],
                   references: Sequence[Sequence[str]]) -> list[int]:
    if len(candidates) != len(references):
        raise ValueError("candidate/reference count mismatch")
    # the row of ten zeros makes an empty corpus sum to zeros
    return [sum(col) for col in zip([0] * 10, *map(_pair_counts, candidates, references))]


def _bleu(counts: Sequence[int], n: int) -> float:
    """Corpus BLEU-n from summed :func:`_pair_counts`."""
    matched, total, (cand_len, ref_len) = counts[:n], counts[4:4 + n], counts[8:]
    if cand_len == 0:
        return 0.0
    if any(t == 0 or m == 0 for m, t in zip(matched, total)):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total)) / n
    brevity = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return 100.0 * brevity * math.exp(log_precision)


def bleu_n(candidates: Sequence[Sequence[str]], references: Sequence[Sequence[str]],
           n: int) -> float:
    """Corpus-level BLEU-n (single reference per candidate), in [0, 100]."""
    if not 1 <= n <= 4:
        raise ValueError(f"BLEU order must be in [1, 4], got {n}")
    return _bleu(_summed_counts(candidates, references), n)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, bit-parallel over ``a``.

    Bit i of ``v`` stands for position i of ``a``, and the clear bits count
    the LCS of ``a`` with the tokens of ``b`` seen so far (Allison and Dix
    1986, in the form of Hyyrö 2004). One big-integer update per token of
    ``b`` replaces a row of the O(|a|·|b|) table, with the same result.
    """
    matches: dict[str, int] = {}
    for i, x in enumerate(a):
        matches[x] = matches.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & matches.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(candidates: Sequence[Sequence[str]], references: Sequence[Sequence[str]],
            beta: float = 1.2) -> float:
    """Mean LCS-based F measure over pairs, in [0, 100].

    Pairs with an empty reference are skipped (and counted in the log).
    """
    if len(candidates) != len(references):
        raise ValueError("candidate/reference count mismatch")
    scores = []
    skipped = 0
    for cand, ref in zip(candidates, references):
        if not ref:
            skipped += 1
            continue
        if not cand:
            scores.append(0.0)
            continue
        ell = _lcs_length(cand, ref)
        r = ell / len(ref)
        p = ell / len(cand)
        if r == 0.0 and p == 0.0:
            scores.append(0.0)
            continue
        scores.append((1 + beta * beta) * r * p / (r + beta * beta * p))
    if skipped:
        logger.warning("rouge_l: skipped %d pairs with empty references", skipped)
    if not scores:
        return 0.0
    return 100.0 * sum(scores) / len(scores)


@dataclass
class MetricReport:
    perplexity: float | None
    bleu: dict[int, float]
    rouge_l: float
    n_evaluated: int
    bleu4_by_triple_count: dict[int, tuple[float, int]] = field(default_factory=dict)
    stddev: dict[str, float] = field(default_factory=dict)

    def to_json(self, **blocks: dict) -> str:
        """The report as indented JSON; ``blocks`` are added as further
        top-level objects (``evaluate``'s timing and beam statistics)."""
        return json.dumps({
            "perplexity": self.perplexity,
            "bleu": {str(k): v for k, v in sorted(self.bleu.items())},
            "rouge_l": self.rouge_l,
            "n_evaluated": self.n_evaluated,
            "bleu4_by_triple_count": {str(k): {"bleu4": v[0], "size": v[1]}
                                      for k, v in sorted(self.bleu4_by_triple_count.items())},
            "stddev": self.stddev,
            **blocks,
        }, indent=2, sort_keys=True)

    def to_table(self) -> str:
        rows = []
        if self.perplexity is not None:
            rows.append(("Perplexity", f"{self.perplexity:.3f}"))
        for k in sorted(self.bleu):
            sd = self.stddev.get(f"bleu{k}")
            val = f"{self.bleu[k]:.3f}" + (f" (+/- {sd:.3f})" if sd is not None else "")
            rows.append((f"BLEU {k}", val))
        sd = self.stddev.get("rouge_l")
        rows.append(("ROUGE-L", f"{self.rouge_l:.3f}" + (f" (+/- {sd:.3f})" if sd is not None else "")))
        rows.append(("Examples", str(self.n_evaluated)))
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)

    def curve_csv(self) -> str:
        lines = ["triple_count,bleu4"]
        for k in sorted(self.bleu4_by_triple_count):
            lines.append(f"{k},{self.bleu4_by_triple_count[k][0]:.6f}")
        return "\n".join(lines) + "\n"


def score_pairs(candidates: Sequence[Sequence[str]], references: Sequence[Sequence[str]],
                perplexity_value: float | None = None) -> MetricReport:
    counts = _summed_counts(candidates, references)
    return MetricReport(
        perplexity=perplexity_value,
        bleu={k: _bleu(counts, k) for k in (1, 2, 3, 4)},
        rouge_l=rouge_l(candidates, references),
        n_evaluated=len(candidates),
    )


def bleu_by_triple_count(pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
                         triple_counts: Sequence[int]) -> dict[int, tuple[float, int]]:
    """Group candidate/reference pairs by input triple count; BLEU-4 and
    group size per occupied count."""
    if len(pairs) != len(triple_counts):
        raise ValueError("pair/count length mismatch")
    groups: dict[int, list[list[int]]] = {}
    for pair, count in zip(pairs, triple_counts):
        groups.setdefault(count, []).append(_pair_counts(*pair))
    return {count: (_bleu([sum(col) for col in zip(*members)], 4), len(members))
            for count, members in sorted(groups.items())}


# ---------------------------------------------------------------------------
# random-retrieval baseline


def reference_final(example: AlignedExample) -> list[str]:
    """The empirical summary as final-text tokens (numbers normalised);
    references keep their own written surfaces."""
    return list(example.reference_tokens)


def item_surface_for(example: AlignedExample, lexicon: Mapping[str, str]) -> str:
    from .generation import prettify_uri
    return lexicon.get(example.main_entity) or prettify_uri(example.main_entity)


def random_baseline(train_examples: Sequence[AlignedExample],
                    eval_examples: Sequence[AlignedExample],
                    lexicon: Mapping[str, str],
                    samples: int = 10, seed: int = 0) -> MetricReport:
    """Answer every evaluation input with a uniformly sampled training
    summary, resolve its placeholders against the input triples, score,
    and repeat; reports mean and standard deviation over the rounds."""
    if not train_examples:
        raise ValueError("empty training set")
    if not eval_examples:
        raise ValueError("empty evaluation set")
    rng = np.random.default_rng(seed)
    references = [reference_final(ex) for ex in eval_examples]
    rounds: list[dict[str, float]] = []
    for _ in range(samples):
        cands = []
        for ex in eval_examples:
            pick = train_examples[int(rng.integers(len(train_examples)))]
            toks = [t.text for t in pick.summary_tokens]
            final_tokens, _ = postprocess(toks, ex.triples, lexicon,
                                          item_surface_for(ex, lexicon), pick.mode)
            cands.append(final_tokens)
        counts = _summed_counts(cands, references)
        rounds.append({
            **{f"bleu{k}": _bleu(counts, k) for k in (1, 2, 3, 4)},
            "rouge_l": rouge_l(cands, references),
        })
    mean = {k: sum(r[k] for r in rounds) / len(rounds) for k in rounds[0]}
    std = {k: float(np.std([r[k] for r in rounds])) for k in rounds[0]}
    return MetricReport(
        perplexity=None,
        bleu={k: mean[f"bleu{k}"] for k in (1, 2, 3, 4)},
        rouge_l=mean["rouge_l"],
        n_evaluated=len(eval_examples),
        stddev=std,
    )


def unigram_perplexity(train_examples: Sequence[AlignedExample],
                       eval_examples: Sequence[AlignedExample]) -> float:
    """Perplexity proxy for the retrieval baseline: the training-set
    unigram distribution (add-one smoothed) scored on the evaluation
    summaries. Retrieval assigns no sequence likelihood of its own, so
    this is the weakest language model its training data implies."""
    counts: Counter[str] = Counter()
    for ex in train_examples:
        counts.update(t.text for t in ex.summary_tokens if t.text != START)
    total = sum(counts.values())
    vocab = len(counts) + 1
    nll = 0.0
    n = 0
    for ex in eval_examples:
        for t in ex.summary_tokens:
            if t.text == START:
                continue
            p = (counts.get(t.text, 0) + 1) / (total + vocab)
            nll -= math.log(p)
            n += 1
    return math.exp(nll / n)


# ---------------------------------------------------------------------------
# Kneser-Ney n-gram baseline


@dataclass
class KNModel:
    """Interpolated Kneser-Ney model of order n.

    The top order uses raw counts; lower orders use continuation counts.
    Each order k has one discount D_k = n1/(n1 + 2*n2) estimated from its
    count-of-counts, falling back to 0.75 (with a warning) when n2 = 0.
    The unigram level interpolates with the uniform distribution, so no
    in-vocabulary token ever scores zero.
    """
    n: int
    vocab: list[str]
    vocab_index: dict[str, int]
    counts: list[dict[tuple[str, ...], Counter]]  # [order-1][history] -> token counts
    discounts: list[float]

    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def train(cls, summaries: Sequence[Sequence[str]], n: int = 5) -> "KNModel":
        if n < 1:
            raise ValueError("order must be >= 1")
        seqs = []
        for s in summaries:
            seq = list(s)
            if not seq or seq[0] != START:
                seq = [START] + seq
            if seq[-1] != END:
                seq = seq + [END]
            seqs.append(seq)
        raw: list[dict[tuple[str, ...], Counter]] = [dict() for _ in range(n)]
        for seq in seqs:
            for k in range(1, n + 1):
                for i in range(len(seq) - k + 1):
                    hist = tuple(seq[i:i + k - 1])
                    w = seq[i + k - 1]
                    if w == START:
                        continue  # <start> is context only, never predicted
                    raw[k - 1].setdefault(hist, Counter())[w] += 1

        counts: list[dict[tuple[str, ...], Counter]] = [dict() for _ in range(n)]
        counts[n - 1] = raw[n - 1]
        # continuation counts: number of distinct left extensions; histories
        # anchored at <start> cannot be extended left, so they keep their raw
        # counts at every order
        for k in range(n - 1, 0, -1):
            cont: dict[tuple[str, ...], Counter] = {}
            for hist, words in raw[k].items():
                sub = hist[1:]
                for w in words:
                    cont.setdefault(sub, Counter())[w] += 1
            for hist, words in raw[k - 1].items():
                if hist and hist[0] == START:
                    cont[hist] = words.copy()
            counts[k - 1] = cont

        vocab = sorted({w for seq in seqs for w in seq if w != START})
        discounts = []
        for k in range(n):
            cofc = Counter()
            for words in counts[k].values():
                for c in words.values():
                    cofc[c] += 1
            n1, n2 = cofc.get(1, 0), cofc.get(2, 0)
            if n2 == 0:
                logger.warning("KN order %d: count-of-counts too sparse (n2=0); "
                               "falling back to discount 0.75", k + 1)
                discounts.append(0.75)
            else:
                discounts.append(n1 / (n1 + 2 * n2))
        return cls(n=n, vocab=vocab, vocab_index={w: i for i, w in enumerate(vocab)},
                   counts=counts, discounts=discounts)

    def _order_probs(self, history: tuple[str, ...], order: int) -> np.ndarray:
        v = len(self.vocab)
        lower = self._probs(history[1:], order - 1) if order > 1 else np.full(v, 1.0 / v)
        table = self.counts[order - 1].get(history)
        if not table:
            return lower
        d = self.discounts[order - 1]
        total = sum(table.values())
        vec = np.zeros(v)
        for w, c in table.items():
            vec[self.vocab_index[w]] = max(c - d, 0.0)
        return vec / total + (d * len(table) / total) * lower

    def _probs(self, history: tuple[str, ...], order: int) -> np.ndarray:
        key = (history, order)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._order_probs(history, order)
            self._cache[key] = hit
        return hit

    def conditional(self, history: Sequence[str]) -> np.ndarray:
        """p(. | history) over the model vocabulary, summing to one."""
        hist = tuple(history)[-(self.n - 1):] if self.n > 1 else ()
        return self._probs(hist, min(len(hist) + 1, self.n))


def kn_train(summaries: Sequence[Sequence[str]], n: int = 5) -> KNModel:
    return KNModel.train(summaries, n)


class KNScorer(Scorer):
    """Beam scorer over a Kneser-Ney model. A state is the index of its
    recent history in ``histories``, so a stack of states is an int array."""

    def __init__(self, kn: KNModel):
        self.kn = kn
        self.histories: list[tuple[str, ...]] = []
        self._ids: dict[tuple[str, ...], int] = {}

    def _state(self, history: tuple[str, ...]) -> int:
        if history not in self._ids:
            self._ids[history] = len(self.histories)
            self.histories.append(history)
        return self._ids[history]

    def _logp(self, history: tuple[str, ...]) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.kn.conditional(history))

    def start(self):
        hist = (START,)
        return self._state(hist), self._logp(hist)

    def step(self, states, tokens):
        keep = self.kn.n - 1
        new = [(self.histories[s] + (self.kn.vocab[t],))[-keep:] if keep else ()
               for s, t in zip(states, tokens)]
        return np.array([self._state(h) for h in new]), np.stack([self._logp(h) for h in new])


def kn_generate(kn: KNModel, beam_width: int = 10, t_max: int = 80) -> list[list[str]]:
    """Unconditional beam search from <start>; ranked token sequences."""
    if END not in kn.vocab_index:
        raise ValueError("model was trained without <end> tokens")
    hyps = beam_search(KNScorer(kn), beam_width, t_max, kn.vocab_index[END])
    return [[kn.vocab[i] for i in h.tokens] for h in hyps]


def kn_baseline(train_examples: Sequence[AlignedExample],
                eval_examples: Sequence[AlignedExample],
                lexicon: Mapping[str, str],
                n: int = 5, beam_width: int = 10, t_max: int = 80) -> MetricReport:
    """Generate the beam's best unconditional summary once, then resolve
    it against each input's triples."""
    kn = kn_train([[t.text for t in ex.summary_tokens] for ex in train_examples], n)
    ranked = kn_generate(kn, beam_width, t_max)
    if not ranked:
        raise ValueError("Kneser-Ney beam produced no complete summary")
    best = ranked[0]
    references = [reference_final(ex) for ex in eval_examples]
    cands = []
    for ex in eval_examples:
        final_tokens, _ = postprocess(best, ex.triples, lexicon,
                                      item_surface_for(ex, lexicon), train_examples[0].mode)
        cands.append(final_tokens)
    report = score_pairs(cands, references)
    return report


# ---------------------------------------------------------------------------
# embedding neighbours


def nearest_neighbors(model: Seq2Seq, token: str, k: int) -> list[tuple[str, float]]:
    """Source-vocabulary entity tokens ranked by cosine similarity to the
    query token's encoder embedding (query excluded; ties by index)."""
    sv = model.source_vocab
    if token not in sv.index:
        raise ValueError(f"token {token!r} is not in the source vocabulary")
    emb = model.encoder.embedding_rows()
    q = emb[sv.index[token]]
    qn = np.linalg.norm(q)
    scored = []
    for cand in sv.tokens:
        if cand == token or cand not in sv.entity_tokens:
            continue
        v = emb[sv.index[cand]]
        denom = qn * np.linalg.norm(v)
        sim = float(q @ v / denom) if denom > 0 else -math.inf
        scored.append((cand, sim))
    scored.sort(key=lambda cs: (-cs[1], sv.index[cs[0]]))
    return scored[:k]
