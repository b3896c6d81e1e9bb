"""Beam-search decoding and post-processing into final text.

The beam keeps the B highest total-log-probability partial summaries and
extends every live one with every target token at each step. A hypothesis
that emits <end> moves to the completed list and the live width shrinks
by one. Survivors at the length cap are force-completed and ranked by raw
log probability (no length normalisation). Ties break on the
lexicographically smaller token-index sequence, making results
deterministic.

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

from . import nn
from .decoder import DecoderState
from .model import Seq2Seq
from .pipeline import (ENTITY, MODE_URI, PipelineConfig, Triple, augment_gender,
                       dedup_triples, filter_triples, normalize_triples,
                       substitute_item_in_triples)
from .tokens import END, ITEM, PAD, START, parse_placeholder, parse_tuple_token

Array = np.ndarray


class GenerationInputError(ValueError):
    pass


@dataclass
class Hypothesis:
    tokens: list[int]
    log_prob: float
    state: object = None
    complete: bool = False
    forced: bool = False  # hit the length cap without <end>


class Scorer:
    """One beam step: consume chosen tokens, emit next-token log probs."""

    def start(self) -> tuple[object, Array]:
        raise NotImplementedError

    def step(self, states: Sequence[object], tokens: Sequence[int]) -> tuple[list[object], Array]:
        raise NotImplementedError


class ModelScorer(Scorer):
    """Neural scorer over one encoded triple set; a hypothesis state is its
    (hidden row, cell row) pair, the cell row None for the GRU."""

    def __init__(self, model: Seq2Seq, triples: Sequence[tuple[int, int, int]]):
        self.model = model
        self.triples = list(triples)

    def start(self):
        state = self.model.init_generation(self.triples)
        new_state, h = self.model.decoder.step(None, np.asarray([self.model.start_index]), state)
        logp = self.model.decoder.log_distribution(h.value)[0]
        c = new_state.c.value[0] if new_state.c is not None else None
        return (h.value[0], c), logp

    def step(self, states, tokens):
        h = nn.leaf(np.stack([s[0] for s in states]))
        c = nn.leaf(np.stack([s[1] for s in states])) if states[0][1] is not None else None
        new_state, h = self.model.decoder.step(None, np.asarray(tokens), DecoderState(h, c))
        logp = self.model.decoder.log_distribution(h.value)
        cs = new_state.c.value if new_state.c is not None else [None] * len(states)
        return list(zip(h.value, cs)), logp


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
    live: list[Hypothesis] = [Hypothesis(tokens=[], log_prob=0.0, state=state0)]
    dists = [logp0]
    for step_no in range(t_max):
        candidates = []
        for hyp, dist in zip(live, dists):
            for tok in np.flatnonzero(np.isfinite(dist)):
                tok = int(tok)
                candidates.append((hyp.log_prob + float(dist[tok]), hyp, tok))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[0], c[1].tokens + [c[2]]))
        kept = candidates[:remaining]
        next_live: list[tuple[Hypothesis, int, float]] = []
        for lp, parent, tok in kept:
            if tok == end_index:
                completed.append(Hypothesis(tokens=parent.tokens + [tok], log_prob=lp,
                                            complete=True))
                remaining -= 1
            else:
                next_live.append((parent, tok, lp))
        if remaining <= 0 or not next_live:
            live, dists = [], []
            break
        if step_no == t_max - 1:
            live = [Hypothesis(tokens=p.tokens + [tok], log_prob=lp, complete=True, forced=True)
                    for p, tok, lp in next_live]
            dists = []
            break
        states, logps = scorer.step([p.state for p, _, _ in next_live],
                                    [tok for _, tok, _ in next_live])
        live = [Hypothesis(tokens=p.tokens + [tok], log_prob=lp, state=states[i])
                for i, (p, tok, lp) in enumerate(next_live)]
        dists = [logps[i] for i in range(len(live))]
    completed.extend(h for h in live if h.complete)
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


def _surface_for(uri: str, lexicon: Mapping[str, str]) -> str:
    return lexicon.get(uri) or prettify_uri(uri)


def postprocess(tokens: Sequence[str], triples: Sequence[Triple],
                lexicon: Mapping[str, str], item_surface: str,
                mode: str = MODE_URI) -> tuple[list[str], str]:
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
                resolved = _surface_for(entity, lexicon)
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


def generate(model: Seq2Seq, triples: Sequence[Triple], lexicon: Mapping[str, str],
             item_surface: str, beam_width: int = 10, t_max: int = 80,
             input_id: str = "0") -> list[GenerationResult]:
    """Encode one normalised triple set, beam-search, post-process each
    hypothesis. The triple count must respect the corpus bounds the model
    was trained with."""
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
                                        final_tokens=final_tokens, final_text=text))
    return results


def prepare_raw_triples(triples: Sequence[Triple], main: str,
                        config: PipelineConfig) -> list[Triple]:
    """Pipeline normalisation for a raw triple set at generation time:
    allocate the triples touching the main entity, filter strings, encode
    dates, normalise numbers, substitute <item>, append the gender triple
    when a lexicon is configured, and deduplicate."""
    out = [t for t in triples
           if t.subject == main or (t.object == main and t.object_kind == ENTITY)]
    out = filter_triples(out)
    out = normalize_triples(out, config)
    out, hit = substitute_item_in_triples(out, main)
    if not hit:
        raise GenerationInputError(f"main entity {main} absent from the triple set")
    if config.gender_lexicon is not None:
        out = augment_gender(out, main, config.gender_lexicon, config.gender_predicate)
    return dedup_triples(out)


def write_results(path: str, results: Sequence[GenerationResult]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps({
                "input_id": r.input_id, "rank": r.rank, "log_prob": r.log_prob,
                "tokens": r.tokens, "final_text": r.final_text,
            }, ensure_ascii=False, sort_keys=True) + "\n")
