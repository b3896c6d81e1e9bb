"""Beam-search decoding and post-processing into final text.

The beam keeps the B highest total-log-probability partial summaries and
extends every live one with every target token at each step. A hypothesis
that emits <end> moves to the completed list and the live width shrinks
by one. Survivors at the length cap are force-completed and ranked by raw
log probability (no length normalisation). Ties break on the
lexicographically smaller token-index sequence, making results
deterministic.

Each step is a few array operations. The live hypotheses are a token
matrix [live, t], a log-probability vector and the scorer's stacked
states, all gathered by parent index. The rows are kept in lexicographic
order of their token sequences, so the row-major (row, token) order of
the step's flattened [live, |X|] score matrix is exactly the tie-break
order. ``np.partition`` finds the score of the k-th best entry (k the
width left). Every entry at least that good is kept, those tied at the
cut-off included, and a stable sort by score then picks the best k, ties
going to the smaller sequence; only those k are split into (parent,
token). If the k best are not all finite, the same ranking runs on the
finite entries only (NaN and +inf are never candidates). ``Hypothesis``
objects are made only for completed hypotheses.

Post-processing resolves <item>, entity URIs (most frequent recorded
surface form), surface-form tuples (their surface part) and property-type
placeholders (the matching triple's subject or object; each triple is
consumed at most once so repeated placeholders walk the set in order),
then joins tokens with simple punctuation spacing.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .decoder import LSTM
from .fileio import atomic_open
from .model import Seq2Seq
from .pipeline import ENTITY, MODE_URI, PipelineConfig, Triple, rewrite_triples
from .tokens import END, ITEM, PAD, START, parse_placeholder, parse_tuple_token

Array = np.ndarray

BEAM_WIDTH = 10  # hypotheses kept per input by default
T_MAX = 80  # default cap on generated tokens, <end> counted


class GenerationInputError(ValueError):
    pass


@dataclass
class Hypothesis:
    tokens: list[int]
    log_prob: float
    forced: bool = False  # hit the length cap without <end>


class Scorer:
    """One beam step: consume chosen tokens, emit next-token log probs.

    A state is a numpy array (or scalar); a stack of states is an array
    whose first axis runs over hypotheses, so the beam gathers the states
    of chosen parents with one fancy index. ``start`` returns a single
    state and its [|X|] log probs; ``step`` takes a stack (or a sequence
    of single states, which ``np.asarray`` stacks) with one token each and
    returns the next stack and its [len(tokens), |X|] log probs.
    """

    def start(self) -> tuple[object, Array]:
        raise NotImplementedError

    def step(self, states: Sequence[object], tokens: Sequence[int]) -> tuple[Array, Array]:
        raise NotImplementedError


class ModelScorer(Scorer):
    """Neural scorer over one encoded triple set. A state is the hidden
    row, followed for the LSTM by the cell row: a stack is one [live, m]
    (GRU) or [live, 2m] (LSTM) array."""

    def __init__(self, model: Seq2Seq, triples: Sequence[tuple[int, int, int]]):
        self.model = model
        self.triples = list(triples)

    def start(self):
        rows, logp = self._advance([self.model.start_index],
                                   *self.model.init_generation(self.triples))
        return rows[0], logp[0]

    def step(self, states, tokens):
        rows = np.asarray(states)
        m = self.model.decoder.m
        return self._advance(tokens, rows[:, :m],
                             rows[:, m:] if self.model.decoder.cell_kind == LSTM else None)

    def _advance(self, tokens, h: Array, c: Array | None) -> tuple[Array, Array]:
        h, c = self.model.decoder.step(np.asarray(tokens), h, c)
        return (h if c is None else np.hstack([h, c])), self.model.decoder.log_distribution(h)


def beam_search(scorer: Scorer, beam_width: int, t_max: int, end_index: int
                ) -> list[Hypothesis]:
    """Ranked complete hypotheses (at most beam_width of them).

    t_max caps the number of generated tokens (the <start> prompt not
    counted; <end> counted). With beam_width >= |X|^t_max nothing is ever
    pruned and the result equals exhaustive enumeration.
    """
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    state0, logp0 = scorer.start()
    completed: list[Hypothesis] = []
    remaining = beam_width
    states = np.asarray([state0])
    dists = np.asarray(logp0)[None]
    tokens = np.zeros((1, 0), dtype=np.int64)  # [live, t] generated so far
    log_probs = np.zeros(1)
    for step_no in range(t_max):
        size = dists.shape[1]
        scores = (log_probs[:, None] + dists).ravel()
        flat = None  # scores[i] is entry i of the flattened matrix
        k = min(remaining, scores.size)
        top = np.partition(scores, scores.size - k)[scores.size - k:]
        if not np.isfinite(top).all():  # fewer than k finite entries, or a NaN/+inf:
            flat = np.flatnonzero(np.isfinite(scores))  # rank the finite ones only
            if not flat.size:
                break
            scores, k = scores[flat], min(remaining, flat.size)
            top = np.partition(scores, scores.size - k)[scores.size - k:]
        tied_or_better = np.flatnonzero(scores >= top[0])
        # tied_or_better is ascending, so the stable sort keeps ties in token order
        chosen = tied_or_better[np.argsort(-scores[tied_or_better], kind="stable")[:k]]
        chosen.sort()  # back to token order
        log_probs = scores[chosen]
        parents, new_tokens = np.divmod(chosen if flat is None else flat[chosen], size)
        ended = new_tokens == end_index
        if ended.any():
            completed.extend(Hypothesis(tokens=tokens[p].tolist() + [end_index],
                                        log_prob=float(lp))
                             for p, lp in zip(parents[ended], log_probs[ended]))
            remaining -= int(ended.sum())
            if remaining <= 0 or ended.all():
                break
            live = ~ended
            parents, new_tokens, log_probs = parents[live], new_tokens[live], log_probs[live]
        tokens = np.concatenate([tokens[parents], new_tokens[:, None]], axis=1)
        if step_no == t_max - 1:
            completed.extend(Hypothesis(tokens=seq, log_prob=float(lp), forced=True)
                             for seq, lp in zip(tokens.tolist(), log_probs))
            break
        states, dists = scorer.step(states[parents], new_tokens)
    completed.sort(key=lambda h: (-h.log_prob, h.tokens))
    return completed


# ---------------------------------------------------------------------------
# post-processing

_NO_SPACE_BEFORE = {".", ",", ";", ":", "!", "?", ")", "]", "}", "''", "%"}
_NO_SPACE_AFTER = {"(", "[", "{", "``"}


def detokenize(tokens: Sequence[str]) -> str:
    parts: list[str] = []
    for tok in tokens:
        if parts and tok not in _NO_SPACE_BEFORE and parts[-1] not in _NO_SPACE_AFTER:
            parts.append(" ")
        parts.append(tok)
    return "".join(parts)


def prettify_uri(uri: str) -> str:
    """Readable fallback for an entity with no recorded surface form."""
    local = uri.rsplit("/", 1)[-1].rsplit("#", 1)[-1]
    if ":" in local:
        local = local.split(":", 1)[1]
    local = local.replace("_", " ").strip()
    local = re.sub(r"\s*\([^)]*\)$", "", local)  # drop a disambiguation tail
    return local or uri


def surface_for(uri: str, lexicon: Mapping[str, str]) -> str:
    """The lexicon's surface form of an entity, or its prettified URI."""
    return lexicon.get(uri) or prettify_uri(uri)


def postprocess(tokens: Sequence[str], triples: Sequence[Triple],
                lexicon: Mapping[str, str], item_surface: str,
                mode: str) -> tuple[list[str], str]:
    """Resolve generated tokens into final text tokens and a detokenised
    string. Resolution is total: an unmatched placeholder falls back to
    its instance-type part. Multi-word surfaces split into word tokens so
    scoring sees the same granularity as the references.
    """
    used: set[int] = set()
    out: list[str] = []
    surface = out.extend  # surfaces may be multi-word
    for tok in tokens:
        if tok in (START, END, PAD):
            continue
        if tok == ITEM:
            surface(item_surface.split(" "))
            continue
        ph = parse_placeholder(tok)
        if ph is not None:
            pred, slot, type_token = ph
            resolved = None
            for i, t in enumerate(triples):
                if i in used or t.predicate != pred:
                    continue
                entity = t.subject if slot == "subj" else t.object
                if entity == ITEM:
                    continue
                used.add(i)
                resolved = surface_for(entity, lexicon)
                break
            if resolved is not None:
                surface(resolved.split(" "))
            else:
                out.append(type_token)
            continue
        tup = parse_tuple_token(tok)
        if tup is not None:
            surface(tup[1].split(" "))
            continue
        if mode == MODE_URI and tok in lexicon:
            surface(lexicon[tok].split(" "))
            continue
        out.append(tok)
    return out, detokenize(out)


@dataclass
class GenerationResult:
    input_id: str
    rank: int
    log_prob: float
    tokens: list[str]        # raw generated target tokens
    final_tokens: list[str]  # after placeholder/surface resolution
    final_text: str
    forced: bool  # hit the length cap without <end>


def generate(model: Seq2Seq, triples: Sequence[Triple], lexicon: Mapping[str, str],
             item_surface: str, beam_width: int, t_max: int,
             input_id: str = "0") -> list[GenerationResult]:
    """Encode one normalised triple set, beam-search, post-process each
    hypothesis. The triple count must respect the corpus bounds the model
    was trained with; the model reads its first ``e_max`` encodable triples
    (:meth:`Seq2Seq.encode_triple_set`), post-processing the whole set."""
    if not triples:
        raise GenerationInputError("empty triple set")
    lo = model.config.bound_lower
    hi = model.config.bound_upper
    if len(triples) < lo or (hi is not None and len(triples) > hi):
        raise GenerationInputError(
            f"triple count {len(triples)} outside the corpus bounds "
            f"[{lo}, {hi}] used in training")
    encoded = model.encode_triple_set(triples)
    scorer = ModelScorer(model, encoded)
    hyps = beam_search(scorer, beam_width, t_max, model.end_index)
    results = []
    for rank, h in enumerate(hyps):
        toks = [model.target_vocab.decode(i) for i in h.tokens]
        final_tokens, text = postprocess(toks, triples, lexicon, item_surface,
                                         model.config.mode)
        results.append(GenerationResult(input_id=input_id, rank=rank,
                                        log_prob=h.log_prob, tokens=toks,
                                        final_tokens=final_tokens, final_text=text,
                                        forced=h.forced))
    return results


def prepare_raw_triples(triples: Sequence[Triple], main: str,
                        config: PipelineConfig) -> list[Triple]:
    """Pipeline normalisation for a raw triple set at generation time: keep
    the triples touching the main entity and rewrite them as the corpus
    builder does (:func:`pipeline.rewrite_triples`)."""
    out = [t for t in triples
           if t.subject == main or (t.object == main and t.object_kind == ENTITY)]
    out, hit = rewrite_triples(out, main, config)
    if not hit:
        raise GenerationInputError(f"main entity {main} absent from the triple set")
    return out


def write_results(path: str, results: Sequence[GenerationResult]) -> None:
    with atomic_open(path) as fh:
        for r in results:
            fh.write(json.dumps({
                "input_id": r.input_id, "rank": r.rank, "log_prob": r.log_prob,
                "tokens": r.tokens, "final_text": r.final_text,
            }, ensure_ascii=False, sort_keys=True) + "\n")
