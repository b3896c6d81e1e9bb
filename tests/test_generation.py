import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_beam
from conftest import make_model, read_jsonl
from triples2text import generation as gen
from triples2text import tokens as tk
from triples2text.generation import (GenerationInputError, ModelScorer, Scorer,
                                     beam_search, detokenize, postprocess,
                                     prettify_uri)
from triples2text.pipeline import AlignedExample, Triple


class TableScorer(Scorer):
    """Fixed log-probability table keyed by the last consumed token, which
    is the state (-1 before the first token, table key "<s>")."""

    def __init__(self, table):
        self.table = {}
        for k, v in table.items():
            with np.errstate(divide="ignore"):
                self.table[-1 if k == "<s>" else k] = np.log(np.asarray(v, dtype=float))

    def start(self):
        return -1, self.table[-1]

    def step(self, states, tokens):
        logps = np.stack([self.table[int(t)] for t in tokens])
        return np.asarray(tokens), logps


def test_beam_width_one_is_greedy():
    # vocabulary: 0=end, 1, 2; greedy path: 1, 1, ... until end wins
    table = {"<s>": [0.1, 0.6, 0.3], 1: [0.7, 0.2, 0.1], 2: [0.1, 0.1, 0.8]}
    hyps = beam_search(TableScorer(table), 1, 5, end_index=0)
    assert len(hyps) == 1
    assert hyps[0].tokens == [1, 0]
    assert abs(hyps[0].log_prob - (np.log(0.6) + np.log(0.7))) < 1e-12


def test_beam_two_keeps_two_of_all_expansions():
    table = {"<s>": [0.1, 0.6, 0.3], 1: [0.2, 0.4, 0.4], 2: [0.2, 0.4, 0.4]}
    sc = TableScorer(table)
    state0, logp0 = sc.start()
    # after the first expansion round exactly two live hypotheses remain
    hyps = beam_search(sc, 2, 1, end_index=0)
    # both survivors were force-completed at the cap
    assert len(hyps) == 2
    assert all(h.forced or h.tokens[-1] == 0 for h in hyps)


def test_beam_completion_decrements_width():
    # a strong early <end> consumes one beam slot; remaining width carries on
    table = {"<s>": [0.5, 0.3, 0.2], 1: [0.9, 0.05, 0.05], 2: [0.9, 0.05, 0.05]}
    hyps = beam_search(TableScorer(table), 2, 3, end_index=0)
    assert hyps[0].tokens == [0]
    assert len(hyps) == 2


def test_beam_tie_break_prefers_smaller_token_sequence():
    table = {"<s>": [0.0, 0.5, 0.5], 1: [1.0, 0.0, 0.0], 2: [1.0, 0.0, 0.0]}
    hyps = beam_search(TableScorer(table), 2, 3, end_index=0)
    assert [h.tokens for h in hyps] == [[1, 0], [2, 0]]


def test_beam_force_completes_at_cap_with_raw_log_prob():
    table = {"<s>": [1e-9, 1.0 - 1e-9], 1: [1e-9, 1.0 - 1e-9]}
    hyps = beam_search(TableScorer(table), 1, 3, end_index=0)
    assert len(hyps) == 1
    assert hyps[0].forced and len(hyps[0].tokens) == 3


def test_beam_log_probs_replayable(rng):
    model = make_model(seed=6, cell="gru", m=4)
    scorer = ModelScorer(model, [(1, 2, 3)])
    hyps = beam_search(scorer, 4, 4, model.end_index)
    for h in hyps:
        state = model.init_generation([(1, 2, 3)])
        prev = model.start_index
        total = 0.0
        for tok in h.tokens:
            state = model.decoder.step(np.asarray([prev]), *state)
            logp = model.decoder.log_distribution(state[0])[0]
            total += float(logp[tok])
            prev = tok
        assert abs(total - h.log_prob) < 1e-12


def test_beam_monotone_in_width():
    # a hypothesis scored in live batches of other sizes rounds differently
    # in float32, hence the relative slack
    for seed in range(8):
        model = make_model(seed=seed, cell="lstm" if seed % 2 else "gru")
        tops = []
        for b in (1, 2, 4, 16):
            hyps = beam_search(ModelScorer(model, [(1, 2, 3)]), b, 4, model.end_index)
            tops.append(hyps[0].log_prob)
        assert all(b >= a - 1e-6 * abs(a) for a, b in zip(tops, tops[1:])), tops


class DepthTableScorer(Scorer):
    """Log probs from a [t_max + 1, |X| + 1, |X|] table indexed by depth and
    last token + 1; the state is depth * (|X| + 1) + last token + 1."""

    def __init__(self, table):
        self.table = table
        self.row = table.shape[1]

    def start(self):
        return 0, self.table[0, 0]

    def step(self, states, tokens):
        states = (np.asarray(states) // self.row + 1) * self.row + np.asarray(tokens) + 1
        return states, self.table[states // self.row, states % self.row]


def _ranked(hyps):
    return [(h.tokens, h.log_prob, h.forced) for h in hyps]


# few levels make ties at the beam's cut-off common; the decimal ones also
# give sums that differ only in their last bits
_LEVELS = (-np.inf, -0.5, -1.0, -1.5, -0.1, -0.2, -0.3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_beam_matches_sort_reference_on_tied_tables(data):
    size = data.draw(st.integers(1, 6), label="|X|")
    t_max = data.draw(st.integers(1, 5), label="t_max")
    width = data.draw(st.integers(1, 12), label="width")
    end = data.draw(st.integers(0, size - 1), label="end_index")
    n = (t_max + 1) * (size + 1) * size
    cells = data.draw(st.lists(st.sampled_from(_LEVELS), min_size=n, max_size=n))
    table = np.asarray(cells).reshape(t_max + 1, size + 1, size)
    got = beam_search(DepthTableScorer(table), width, t_max, end)
    want = reference_beam.beam_search(DepthTableScorer(table), width, t_max, end)
    assert _ranked(got) == _ranked(want)


# NaN and +inf are not candidates; a step that holds one, or fewer finite
# entries than the width left, takes the search's finite-only fallback
_NONFINITE_LEVELS = (-np.inf, np.nan, np.inf, -0.5, -1.0, -0.1, -0.2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_beam_matches_sort_reference_on_nonfinite_tables(data):
    size = data.draw(st.integers(1, 6), label="|X|")
    t_max = data.draw(st.integers(1, 5), label="t_max")
    width = data.draw(st.integers(1, 12), label="width")
    end = data.draw(st.integers(0, size - 1), label="end_index")
    n = (t_max + 1) * (size + 1) * size
    cells = data.draw(st.lists(st.sampled_from(_NONFINITE_LEVELS), min_size=n, max_size=n))
    table = np.asarray(cells).reshape(t_max + 1, size + 1, size)
    got = beam_search(DepthTableScorer(table), width, t_max, end)
    want = reference_beam.beam_search(DepthTableScorer(table), width, t_max, end)
    assert _ranked(got) == _ranked(want)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_beam_matches_sort_reference_on_models(cell):
    for seed in range(4):
        model = make_model(seed=seed, cell=cell)
        for width in (1, 3, 5):
            got = beam_search(ModelScorer(model, [(1, 2, 3)]), width, 6, model.end_index)
            want = reference_beam.beam_search(ModelScorer(model, [(1, 2, 3)]), width, 6,
                                              model.end_index)
            assert got and _ranked(got) == _ranked(want)


# -- post-processing -----------------------------------------------------------


LEXICON = {"dbr:Open_All_Hours": "Open All Hours", "dbr:Actor": "actor",
           "dbr:Main": "Barbara Flynn"}


def test_placeholder_resolves_to_matching_triple_subject():
    triples = [Triple("dbr:Open_All_Hours", "dbo:starring", tk.ITEM)]
    toks, text = postprocess(["<start>", "dbo:starring__subj__dbo:TelevisionShow",
                              "<end>"], triples, LEXICON, "Barbara Flynn", mode="uri")
    assert toks == ["Open", "All", "Hours"]
    assert text == "Open All Hours"


def test_uri_mode_lexicon_substitution():
    toks, text = postprocess(["dbr:Actor"], [], LEXICON, "X", mode="uri")
    assert text == "actor"


def test_unmatched_placeholder_falls_back_to_type_token():
    toks, text = postprocess(["dbo:birthPlace__obj__dbo:Settlement"], [],
                             LEXICON, "X", mode="uri")
    assert text == "dbo:Settlement"


def test_item_and_tuple_resolution_and_spacing():
    triples = []
    tokens = ["<start>", "<item>", "is", "an", "(dbr:United_States, American)",
              "(dbr:Rock_music, rock)", "band", ",", "yes", ".", "<end>"]
    toks, text = postprocess(tokens, triples, {}, "Papa Roach", mode="surface_form_tuple")
    assert toks == ["Papa", "Roach", "is", "an", "American", "rock", "band",
                    ",", "yes", "."]
    assert text == "Papa Roach is an American rock band, yes."


def test_repeated_placeholders_consume_triples_in_order():
    triples = [Triple("dbr:Show_A", "dbo:starring", tk.ITEM),
               Triple("dbr:Show_B", "dbo:starring", tk.ITEM)]
    ph = "dbo:starring__subj__dbo:TelevisionShow"
    toks, text = postprocess([ph, "and", ph, "and", ph], triples, {}, "X", mode="uri")
    assert text == "Show A and Show B and dbo:TelevisionShow"


def test_postprocess_totality_no_placeholder_or_item_survives():
    triples = [Triple("dbr:W", "dbo:author", tk.ITEM)]
    tokens = ["<item>", "dbo:author__subj__dbo:Book", "dbo:missing__obj__dbo:City",
              "<year>", "0", "word"]
    toks, _ = postprocess(tokens, triples, {}, "Someone", mode="uri")
    from triples2text.tokens import parse_placeholder
    for t in toks:
        assert t != tk.ITEM
        assert parse_placeholder(t) is None


def test_detokenize_punctuation_rules():
    # no space before . , ) and none after (
    assert detokenize(["Formed", "in", "<year>", ",", "early", "(",
                       "<year>", ")", "."]) == "Formed in <year>, early (<year>)."
    assert detokenize(["a", ",", "b", ".", "c"]) == "a, b. c"


def test_prettify_uri_variants():
    assert prettify_uri("dbr:Open_All_Hours") == "Open All Hours"
    assert prettify_uri("dbr:Infest_(album)") == "Infest"
    assert prettify_uri("http://example.org/resource/Jane_Doe") == "Jane Doe"


# -- generate ------------------------------------------------------------------


def test_generate_empty_triples_is_an_error():
    model = make_model(seed=3)
    with pytest.raises(GenerationInputError, match="empty"):
        gen.generate(model, [], {}, "X", beam_width=2, t_max=4)


def test_generate_bounds_enforced():
    model = make_model(seed=3)
    model.config = dataclasses.replace(model.config, bound_lower=2, bound_upper=3)
    triples = [Triple(tk.ITEM, "dbo:p", "dbr:A")]
    with pytest.raises(GenerationInputError, match="bounds"):
        gen.generate(model, triples, {}, "X", beam_width=2, t_max=4)
    out = gen.generate(model, triples * 2, {}, "X", beam_width=2, t_max=4)
    assert out and out[0].rank == 0


def test_generate_reads_the_first_e_max_encodable_triples():
    # as training does (Seq2Seq.encode_example): triples of an unknown
    # predicate are dropped, then the set is cut after e_max (2 here)
    model = make_model(seed=5)
    triples = [Triple(tk.ITEM, "dbo:unknown", "s0"), Triple(tk.ITEM, "s0", "s1"),
               Triple(tk.ITEM, "s1", "s2"), Triple(tk.ITEM, "s2", "s3")]

    def hypotheses(ts):
        return [(r.tokens, r.log_prob) for r in gen.generate(model, ts, {}, "X", 3, 5)]
    assert hypotheses(triples) == hypotheses(triples[1:3])
    example = AlignedExample("dbr:M", triples, [], [], "uri")
    assert model.encode_example(example).triples == model.encode_triple_set(triples[1:3])


def test_generate_beam_width_monotone_top1():
    model = make_model(seed=8)
    triples = [Triple(tk.ITEM, "dbo:p", "dbr:A"), Triple(tk.ITEM, "dbo:q", "dbr:B")]
    greedy = gen.generate(model, triples, {}, "X", beam_width=1, t_max=5)
    wide = gen.generate(model, triples, {}, "X", beam_width=10, t_max=5)
    assert wide[0].log_prob >= greedy[0].log_prob - 1e-12


def test_prepare_raw_triples_requires_main():
    cfg = __import__("triples2text.pipeline", fromlist=["PipelineConfig"]).PipelineConfig()
    with pytest.raises(GenerationInputError, match="main entity"):
        gen.prepare_raw_triples([Triple("dbr:A", "dbo:p", "dbr:B")], "dbr:Z", cfg)


def test_write_results_jsonl(tmp_path):
    model = make_model(seed=3)
    triples = [Triple(tk.ITEM, "dbo:p", "dbr:A")]
    results = gen.generate(model, triples, {}, "X", beam_width=2, t_max=4, input_id="in0")
    path = str(tmp_path / "out.jsonl")
    gen.write_results(path, results)
    rows = read_jsonl(path)
    assert rows and rows[0]["input_id"] == "in0"
    assert {"rank", "log_prob", "tokens", "final_text"} <= set(rows[0])
