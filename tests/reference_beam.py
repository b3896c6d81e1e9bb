"""The sort-based beam search that ``generation.beam_search`` replaced,
kept verbatim as the reference the vectorised search is compared with.

It builds one (log prob, parent, token) tuple per candidate and sorts
them on (-log prob, parent tokens + [token]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from triples2text.generation import Scorer


@dataclass
class Hypothesis:
    tokens: list[int]
    log_prob: float
    state: object = None
    complete: bool = False
    forced: bool = False  # hit the length cap without <end>


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
