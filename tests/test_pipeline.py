import gc
import hashlib
import json
import os
import re
import sys
from dataclasses import replace
from itertools import compress, repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triples2text import pipeline as pl
from triples2text import tokens as tk
from triples2text.demo import demo_corpus
from triples2text.pipeline import (AlignedExample, Annotation, AnnotatedSummary,
                                   CorpusStats, PipelineConfig, SummaryToken, Triple)


def T(s, p, o, kind="entity", **kw):
    return Triple(s, p, o, kind, **kw)


# -- literal classification / parsing ---------------------------------------


def test_parse_ntriples_kinds():
    lines = [
        'dbr:X dbo:birthDate "1970-04-29"^^xsd:date .',
        'dbr:X dbo:motto "ad astra" .',
        'dbr:X dbp:years "1993"^^xsd:integer .',
        "dbr:X dbo:genre dbr:Hard_rock .",
        "<http://ex.org/X> <http://ex.org/p> <http://ex.org/Y> .",
    ]
    out = pl.parse_ntriples(lines)
    assert [t.object_kind for t in out] == ["date", "other_literal", "number",
                                            "entity", "entity"]
    assert out[4].subject == "http://ex.org/X"


def test_parse_ntriples_bad_line_reports_location():
    with pytest.raises(pl.PipelineError, match="triples.nt:2"):
        pl.parse_ntriples(["dbr:A dbo:p dbr:B .", "not a triple"], where="triples.nt")


def test_first_character_filter_agrees_with_the_regexes_on_every_code_point():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    digits = set(re.findall(r"\d", everything))  # the regex engine's own \d
    assert "٣" in digits and "7" in digits
    assert set(compress(everything, map(pl._may_be_number, everything))) == digits | {"+", "-"}

    # the token streams are made twice rather than held: a million strings each
    def kept(fn, make_tokens):
        return set(compress(make_tokens(), map(fn, make_tokens())))

    def kinds(make_tokens):
        found = map(pl.classify_literal, make_tokens(), repeat(None))
        return {t: k for t, k in zip(make_tokens(), found) if k != pl.OTHER_LITERAL}

    assert kept(pl._looks_number, lambda: everything) == digits
    assert kinds(lambda: everything) == dict.fromkeys(digits, pl.NUMBER)
    for sign in "+-":
        assert kept(pl._looks_number, lambda: map(sign.__add__, everything)) == {
            sign + d for d in digits}
    # a date exactly when the first character is a \d digit
    assert kinds(lambda: (c + "-01-01" for c in everything)) == {
        d + "-01-01": pl.DATE for d in digits}


# -- filter ------------------------------------------------------------------


def test_filter_drops_string_objects():
    assert pl.filter_triples([T("X", "dbo:name", "John Smith", "other_literal")]) == []


def test_filter_empty_input():
    assert pl.filter_triples([]) == []


def test_filter_keeps_dates_drops_strings():
    triples = [T("X", "dbo:birthDate", "1970-04-29", "date"),
               T("X", "dbo:motto", "ad astra", "other_literal")]
    assert pl.filter_triples(triples) == [triples[0]]


# -- date encoding -----------------------------------------------------------


def test_date_encoding_agassi_pair():
    out = pl.encode_date_triple(T("dbr:Andre_Agassi", "dbo:birthDate", "1970-04-29", "date"))
    assert [(t.subject, t.predicate, t.object) for t in out] == [
        ("dbr:Andre_Agassi", "dbo:birthDateMonth", "4"),
        ("dbr:Andre_Agassi", "dbo:birthDateYear", tk.YEAR),
    ]
    assert out[0].object_kind == "month"
    assert out[1].object_kind == "year"


@pytest.mark.parametrize("date,month", [("2000-01-01", "1"), ("1999-12-31", "12")])
def test_date_encoding_boundaries(date, month):
    out = pl.encode_date_triple(T("X", "p", date, "date"))
    assert out[0].predicate == "pMonth" and out[0].object == month
    assert out[1].predicate == "pYear" and out[1].object == tk.YEAR


def test_date_encoding_rejects_malformed():
    with pytest.raises(pl.MalformedLiteralError):
        pl.encode_date_triple(T("X", "p", "not-a-date", "date"))
    with pytest.raises(pl.MalformedLiteralError):
        pl.encode_date_triple(T("X", "p", "1970-13-01", "date"))


# -- numeric normalisation ---------------------------------------------------


@pytest.mark.parametrize("token,expected", [
    ("1993", tk.YEAR), ("0", tk.ZERO), ("42", tk.ZERO),
    ("999", tk.ZERO), ("2101", tk.ZERO), ("1000", tk.YEAR), ("2100", tk.YEAR),
    ("3.14", tk.ZERO),
])
def test_normalize_numeric(token, expected):
    assert pl.normalize_numeric(token) == expected


# -- <item> substitution -----------------------------------------------------


def test_substitute_item_subject_and_object_positions():
    ex = AlignedExample("dbr:Papa_Roach", [
        T("dbr:Papa_Roach", "dbo:genre", "dbr:Hard_rock"),
        T("dbr:Infest_(album)", "dbo:artist", "dbr:Papa_Roach"),
    ], [], [])
    out = pl.substitute_item(ex, "dbr:Papa_Roach")
    assert out.triples[0].subject == tk.ITEM
    assert out.triples[1].object == tk.ITEM
    assert out.triples[1].subject == "dbr:Infest_(album)"


def test_substitute_item_absent_raises():
    ex = AlignedExample("dbr:A", [T("dbr:B", "dbo:p", "dbr:C")], [], [])
    with pytest.raises(pl.MainEntityAbsentError):
        pl.substitute_item(ex, "dbr:A")


# -- dedup -------------------------------------------------------------------


def test_dedup_keeps_first_of_equal_triples():
    a = T(tk.ITEM, "dbp:proyears", tk.YEAR, "year")
    b = T(tk.ITEM, "dbp:proyears", tk.YEAR, "year")
    assert pl.dedup_triples([a, b]) == [a]
    assert pl.dedup_triples([]) == []
    distinct = [T("a", "p", "x"), T("b", "p", "x"), T("c", "p", "x")]
    assert pl.dedup_triples(distinct) == distinct


# -- bounding ----------------------------------------------------------------


def test_bound_rejects_below_lower():
    stats = CorpusStats(e_min=1, e_mean=10.0, e_std=4.0)
    decision, kept = pl.bound_triple_set([], stats)
    assert decision == "reject" and kept == []


def test_bound_trims_to_upper_keeping_first():
    stats = CorpusStats(e_min=1, e_mean=10.68, e_std=7.0)
    triples = [T("s", "p", str(i)) for i in range(30)]
    decision, kept = pl.bound_triple_set(triples, stats)
    assert decision == "trim"
    assert len(kept) == 21  # floor(10.68 + 1.5 * 7.0)
    assert kept == triples[:21]


def test_bound_accepts_inside_bounds():
    stats = CorpusStats(e_min=2, e_mean=10.0, e_std=4.0)
    triples = [T("s", "p", str(i)) for i in range(8)]
    decision, kept = pl.bound_triple_set(triples, stats)
    assert decision == "accept" and kept == triples
    assert stats.lower_bound() == 3 and stats.upper_bound() == 16


# -- summary truncation --------------------------------------------------------


def summary(sentences, annotations=(), main="dbr:Main"):
    return AnnotatedSummary(main, [list(s) for s in sentences], list(annotations))


def test_truncate_keeps_two_sentences_and_their_annotations():
    s = summary([["a"], ["b"], ["c"]],
                [Annotation(0, 0, 1, "dbr:Main", "a"), Annotation(2, 0, 1, "dbr:X", "c")])
    out = pl.truncate_summary(s)
    assert len(out.sentences) == 2
    assert len(out.annotations) == 1


def test_truncate_single_sentence_unaltered():
    s = summary([["only", "one"]])
    assert pl.truncate_summary(s).sentences == [["only", "one"]]


def test_truncate_empty_summary_raises():
    with pytest.raises(pl.EmptySummaryError):
        pl.truncate_summary(summary([]))


# -- placeholder assignment ----------------------------------------------------


BOOK_TYPES = {"dbr:The_Adventures_of_Roderick_Random": "dbo:Book",
              "dbr:Morpeth,_Northumberland": "dbo:Settlement"}


def test_placeholder_for_rare_subject_match():
    s = summary([["He", "wrote", "Roderick", "Random", "."]],
                [Annotation(0, 0, 1, "dbr:Main", "He"),
                 Annotation(0, 2, 4, "dbr:The_Adventures_of_Roderick_Random",
                            "Roderick Random")])
    triples = [T("dbr:The_Adventures_of_Roderick_Random", "dbo:author", tk.ITEM)]
    toks = pl.assign_placeholders(s, triples, BOOK_TYPES, {"He", "wrote", "."})
    assert toks[2].text == "dbo:author__subj__dbo:Book"
    assert toks[2].kind == "placeholder"


def test_placeholder_for_rare_object_match():
    s = summary([["born", "in", "Morpeth", "."]],
                [Annotation(0, 0, 1, "dbr:Main", "born"),
                 Annotation(0, 2, 3, "dbr:Morpeth,_Northumberland", "Morpeth")])
    triples = [T(tk.ITEM, "dbo:birthPlace", "dbr:Morpeth,_Northumberland")]
    toks = pl.assign_placeholders(s, triples, BOOK_TYPES, {"born", "in", "."})
    assert toks[2].text == "dbo:birthPlace__obj__dbo:Settlement"


def test_placeholder_untyped_matched_entity_gets_unk_type():
    s = summary([["from", "Nowhere"]],
                [Annotation(0, 0, 1, "dbr:Main", "from"),
                 Annotation(0, 1, 2, "dbr:Nowhere", "Nowhere")])
    triples = [T(tk.ITEM, "dbo:birthPlace", "dbr:Nowhere")]
    toks = pl.assign_placeholders(s, triples, {}, {"from"})
    assert toks[1].text == f"dbo:birthPlace__obj__{tk.UNK}"


def test_unmatched_rare_entity_uses_instance_type_then_unk():
    s = summary([["saw", "Thing", "and", "Other"]],
                [Annotation(0, 0, 1, "dbr:Main", "saw"),
                 Annotation(0, 1, 2, "dbr:Thing", "Thing"),
                 Annotation(0, 3, 4, "dbr:Other", "Other")])
    toks = pl.assign_placeholders(s, [], {"dbr:Thing": "dbo:Artifact"},
                                  {"saw", "and"})
    assert toks[1].kind == "instance_type" and toks[1].text == "dbo:Artifact"
    assert toks[3].kind == "special" and toks[3].text == tk.UNK


def test_first_matching_triple_wins_subject_before_object():
    s = summary([["X"]], [Annotation(0, 0, 1, "dbr:E", "X")], main="dbr:M")
    s.annotations.append(Annotation(0, 0, 1, "dbr:M", "X"))  # keep main present
    triples = [T(tk.ITEM, "dbo:follows", "dbr:E"),
               T("dbr:E", "dbo:precedes", tk.ITEM)]
    toks = pl.assign_placeholders(s, triples, {}, set())
    assert toks[0].text == f"dbo:follows__obj__{tk.UNK}"


def test_in_vocab_entities_pass_through_and_numbers_normalise():
    s = summary([["Famous", "met", "17", "people", "in", "1993"]],
                [Annotation(0, 0, 1, "dbr:Main", "Famous"),
                 Annotation(0, 3, 4, "dbr:People", "people")])
    toks = pl.assign_placeholders(s, [], {}, {"met", "in", "dbr:People"})
    texts = [t.text for t in toks]
    assert texts == [tk.ITEM, "met", tk.ZERO, "dbr:People", "in", tk.YEAR]
    assert toks[3].kind == "entity_uri"


def test_out_of_vocab_word_becomes_rare():
    s = summary([["colourless", "ideas"]],
                [Annotation(0, 0, 1, "dbr:Main", "colourless")])
    toks = pl.assign_placeholders(s, [], {}, {"ideas"})
    assert toks[0].text == tk.ITEM and toks[1].text == "ideas"
    s2 = summary([["zz", "ideas"]], [Annotation(0, 1, 2, "dbr:Main", "ideas")])
    toks2 = pl.assign_placeholders(s2, [], {}, set())
    assert toks2[0].text == tk.RARE


# -- surface tuples ------------------------------------------------------------


def test_make_surface_tuples_converts_entities_only():
    toks = [SummaryToken("entity_uri", "dbr:United_States",
                         uri="dbr:United_States", surface="American"),
            SummaryToken("word", "band"),
            SummaryToken("placeholder", "p__subj__T")]
    out = pl.make_surface_tuples(toks)
    assert out[0].kind == "surface_tuple"
    assert out[0].text == "(dbr:United_States, American)"
    assert out[1].text == "band" and out[2].text == "p__subj__T"


# -- gender augmentation -------------------------------------------------------


def test_gender_appended_when_known_and_absent():
    out = pl.augment_gender([T(tk.ITEM, "dbo:job", "dbr:X")], "dbr:Main",
                            {"dbr:Main": "female"})
    assert out[-1] == T(tk.ITEM, "foaf:gender", "female")


def test_gender_unknown_main_unchanged():
    before = [T(tk.ITEM, "dbo:job", "dbr:X")]
    assert pl.augment_gender(before, "dbr:Main", {}) == before


def test_gender_idempotent():
    once = pl.augment_gender([T(tk.ITEM, "dbo:job", "dbr:X")], "dbr:Main",
                             {"dbr:Main": "male"})
    twice = pl.augment_gender(once, "dbr:Main", {"dbr:Main": "male"})
    assert twice == once


# -- build_corpus ---------------------------------------------------------------


def make_article(main="dbr:Main", n_filler=0):
    sentences = [["Name", "is", "nice", "."], ["Name", "wrote", "Opus", "."],
                 ["A", "third", "sentence", "."]]
    anns = [Annotation(0, 0, 1, main, "Name"), Annotation(1, 0, 1, main, "Name"),
            Annotation(1, 2, 3, "dbr:Opus", "Opus")]
    s = AnnotatedSummary(main, sentences, anns)
    triples = [T(main, "dbo:birthDate", "1970-04-29", "date"),
               T(main, "dbo:motto", "words", "other_literal"),
               T("dbr:Opus", "dbo:author", main)]
    triples += [T(main, "dbo:filler", f"dbr:F{i}") for i in range(n_filler)]
    return s, triples


def test_build_corpus_order_and_invariants():
    types = {"dbr:Opus": "dbo:Book"}
    cfg = PipelineConfig(target_vocab_size=100, target_vocab_min_count=1)
    examples, stats, lexicon = pl.build_corpus([make_article()], types, cfg)
    assert len(examples) == 1
    ex = examples[0]
    # truncation: third sentence gone
    assert "third" not in [t.text for t in ex.summary_tokens]
    # start/end wrapping
    assert ex.summary_tokens[0].text == tk.START
    assert ex.summary_tokens[-1].text == tk.END
    # no raw date survives
    for t in ex.triples:
        assert t.object_kind != "date"
        assert not (t.object.count("-") == 2 and t.object[:4].isdigit())
    # placeholder grammar holds and predicate occurs in the triples
    from triples2text.tokens import parse_placeholder
    preds = {t.predicate for t in ex.triples}
    for tok in ex.summary_tokens:
        if tok.kind == "placeholder":
            parsed = parse_placeholder(tok.text)
            assert parsed is not None and parsed[0] in preds
    # surface lexicon records the most frequent surface
    assert lexicon["dbr:Main"] == "Name"
    assert stats.n_articles == 1


def test_build_corpus_empty_stream():
    examples, stats, lexicon = pl.build_corpus([], {}, PipelineConfig())
    assert examples == [] and lexicon == {}
    assert stats.n_articles == 0 and stats.e_mean == 0.0


def test_build_corpus_excludes_unannotated_main():
    s, triples = make_article()
    s.annotations = [a for a in s.annotations if a.uri != "dbr:Main"]
    examples, stats, _ = pl.build_corpus([(s, triples)], {}, PipelineConfig())
    assert examples == []
    assert stats.exclusions.get("no_main_annotation") == 1


def test_build_corpus_bounding_rejects_small_sets():
    articles = [make_article(f"dbr:P{i}", n_filler=8) for i in range(9)]
    articles.append(make_article("dbr:Tiny", n_filler=0))
    examples, stats, _ = pl.build_corpus(articles, {}, PipelineConfig())
    mains = {e.main_entity for e in examples}
    lower = stats.lower_bound()
    assert all(len(e.triples) >= lower for e in examples)
    if "dbr:Tiny" not in mains:
        assert stats.exclusions.get("too_few_triples", 0) >= 1
    assert all(len(e.triples) <= stats.upper_bound() for e in examples)


def test_build_corpus_deterministic():
    types = {"dbr:Opus": "dbo:Book"}
    cfg = PipelineConfig(target_vocab_size=100)
    runs = []
    for _ in range(2):
        examples, stats, lexicon = pl.build_corpus(
            [make_article(f"dbr:P{i}") for i in range(5)], types, cfg)
        runs.append((json.dumps([[t.text for t in e.summary_tokens] for e in examples]),
                     json.dumps(lexicon, sort_keys=True), stats.e_mean))
    assert runs[0] == runs[1]


def test_token_accounting_every_annotation_covered():
    types = {"dbr:Opus": "dbo:Book"}
    examples, _, _ = pl.build_corpus([make_article()], types,
                                     PipelineConfig(target_vocab_size=100))
    ex = examples[0]
    covered = [t for t in ex.summary_tokens
               if t.kind in ("entity_uri", "surface_tuple", "placeholder",
                             "instance_type") or t.text in (tk.ITEM, tk.UNK)]
    # main twice + Opus once
    assert len(covered) == 3


@pytest.mark.parametrize("enabled", [True, False])
def test_build_and_read_corpus_pause_and_restore_the_collector(tmp_path, monkeypatch, enabled):
    was_enabled = gc.isenabled()
    seen = []

    def articles(fail):
        seen.append(gc.isenabled())
        yield make_article()
        if fail:
            raise pl.PipelineError("dump cut short")

    def example(*args):
        seen.append(gc.isenabled())
        return AlignedExample(*args)

    cfg = PipelineConfig(target_vocab_size=100)
    path = str(tmp_path / "corpus.jsonl")
    try:
        (gc.enable if enabled else gc.disable)()
        examples, _, _ = pl.build_corpus(articles(False), {}, cfg)
        assert gc.isenabled() is enabled
        pl.write_corpus(path, examples)
        with monkeypatch.context() as patched:
            patched.setattr(pl, "AlignedExample", example)
            assert pl.read_corpus(path) == examples
        assert gc.isenabled() is enabled
        assert seen == [False, False]  # paused while each one ran
        with pytest.raises(pl.PipelineError, match="cut short"):
            pl.build_corpus(articles(True), {}, cfg)
        assert gc.isenabled() is enabled
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(pl.PipelineError, match="corpus.jsonl:2"):
            pl.read_corpus(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# SHA-256 of the files written for demo_corpus(seed 11, 60 articles), as
# written by the dataclass records before they became named tuples
DEMO_DIGESTS = {
    pl.MODE_URI: {
        "corpus": "62f19a6a834a5452eb3bd788dae2a679fa8e0b4e36823f90ceac57a2fd08b1e3",
        "stats": "872b99f32cc599edfd33992500417ef282cd7528271190baf1150e72249873f0",
        "lexicon": "526c0e3bd5f1e85754a2089ef8a1303c96e8b366c205d74138b08081e10cd2d7",
    },
    pl.MODE_TUPLES: {
        "corpus": "e1b451eef5f5ee5631debd1d6ec7afffa94431ac13fbd50e96b7637e65b457d5",
        "stats": "872b99f32cc599edfd33992500417ef282cd7528271190baf1150e72249873f0",
        "lexicon": "526c0e3bd5f1e85754a2089ef8a1303c96e8b366c205d74138b08081e10cd2d7",
    },
}


@pytest.mark.parametrize("mode", pl.MODES)
def test_demo_corpus_outputs_are_pinned(tmp_path, mode):
    paths = demo_corpus(11, 60, str(tmp_path / "demo"))
    cfg = PipelineConfig(mode=mode, target_vocab_min_count=2,
                         gender_lexicon=pl.read_tsv_map(paths["genders"]))
    examples, stats, lexicon = pl.build_corpus(
        pl.read_articles(paths["triples"], paths["summaries"]),
        pl.read_tsv_map(paths["instance_types"]), cfg)
    digests = {}
    for name, write, value in (("corpus", pl.write_corpus, examples),
                               ("stats", pl.write_stats, stats),
                               ("lexicon", pl.write_lexicon, lexicon)):
        path = tmp_path / name
        write(str(path), value)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == DEMO_DIGESTS[mode]


# -- tokeniser fallback ----------------------------------------------------------


def test_fallback_tokenizer_and_splitter():
    text = "Dr. Who? He said so. Yes."
    assert pl.tokenize("a b-c, (d)") == ["a", "b-c", ",", "(", "d", ")"]
    assert pl.split_sentences(text) == ["Dr.", "Who?", "He said so.", "Yes."]


# -- corpus serialisation ----------------------------------------------------------


def test_corpus_roundtrip(tmp_path):
    types = {"dbr:Opus": "dbo:Book"}
    examples, stats, _ = pl.build_corpus([make_article()], types,
                                         PipelineConfig(target_vocab_size=100))
    path = str(tmp_path / "corpus.jsonl")
    pl.write_corpus(path, examples)
    loaded = pl.read_corpus(path)
    assert loaded == examples
    spath = str(tmp_path / "stats.json")
    pl.write_stats(spath, stats)
    s2 = pl.read_stats(spath)
    assert s2.e_mean == stats.e_mean and s2.exclusions == stats.exclusions


def test_failed_writes_keep_previous_file(tmp_path):
    examples, stats, _ = pl.build_corpus([make_article()], {"dbr:Opus": "dbo:Book"},
                                         PipelineConfig(target_vocab_size=100))

    class FailingLexicon(dict):
        def __getitem__(self, key):
            if key == "dbr:B":
                raise KeyError(key)
            return super().__getitem__(key)

    # each bad input raises after the writer has written part of the file
    cases = [(pl.write_corpus, examples, examples + [None]),
             (pl.write_stats, stats, replace(stats, exclusions={"x": object()})),
             (pl.write_lexicon, {"dbr:A": "A"}, FailingLexicon({"dbr:A": "A", "dbr:B": "B"}))]
    for i, (write, good, bad) in enumerate(cases):
        path = str(tmp_path / f"out{i}")
        write(path, good)
        before = Path(path).read_bytes()
        with pytest.raises((AttributeError, TypeError, KeyError)):
            write(path, bad)
        assert Path(path).read_bytes() == before, write.__name__
    assert sorted(os.listdir(tmp_path)) == ["out0", "out1", "out2"]  # no temp file left


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=40),
       st.floats(min_value=0.0, max_value=20.0),
       st.floats(min_value=0.0, max_value=8.0),
       st.integers(min_value=0, max_value=60))
def test_bounding_invariant_property(e_min, mean, std, n):
    stats = CorpusStats(e_min=e_min, e_mean=max(mean, float(e_min)), e_std=std)
    triples = [T("s", "p", str(i)) for i in range(n)]
    decision, kept = pl.bound_triple_set(triples, stats)
    if decision != "reject":
        assert stats.lower_bound() <= len(kept) <= stats.upper_bound()
    else:
        assert n < stats.lower_bound()
