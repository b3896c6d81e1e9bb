import gc
import hashlib
import json
import os
import re
import sys
import tracemalloc
from collections import Counter
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
    out = pl.parse_ntriples(lines, "triples.nt")
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

    def number(token):
        return pl._number_token(token, PipelineConfig()) is not None

    assert kept(number, lambda: everything) == digits
    assert kinds(lambda: everything) == dict.fromkeys(digits, pl.NUMBER)
    for sign in "+-":
        assert kept(number, lambda: map(sign.__add__, everything)) == {
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
    assert pl.normalize_numeric(token, 1000, 2100) == expected


# -- <item> substitution -----------------------------------------------------


def test_substitute_item_subject_and_object_positions():
    out, hit = pl.substitute_item_in_triples([
        T("dbr:Papa_Roach", "dbo:genre", "dbr:Hard_rock"),
        T("dbr:Infest_(album)", "dbo:artist", "dbr:Papa_Roach"),
    ], "dbr:Papa_Roach")
    assert hit
    assert out[0].subject == tk.ITEM
    assert out[1].object == tk.ITEM
    assert out[1].subject == "dbr:Infest_(album)"
    absent = [T("dbr:B", "dbo:p", "dbr:C")]
    assert pl.substitute_item_in_triples(absent, "dbr:A") == (absent, False)


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


CFG = PipelineConfig()
BOOK_TYPES = {"dbr:The_Adventures_of_Roderick_Random": "dbo:Book",
              "dbr:Morpeth,_Northumberland": "dbo:Settlement"}


def test_placeholder_for_rare_subject_match():
    s = summary([["He", "wrote", "Roderick", "Random", "."]],
                [Annotation(0, 0, 1, "dbr:Main", "He"),
                 Annotation(0, 2, 4, "dbr:The_Adventures_of_Roderick_Random",
                            "Roderick Random")])
    triples = [T("dbr:The_Adventures_of_Roderick_Random", "dbo:author", tk.ITEM)]
    toks = pl.assign_placeholders(s, triples, BOOK_TYPES, {"He", "wrote", "."}, CFG, {})
    assert toks[2].text == "dbo:author__subj__dbo:Book"
    assert toks[2].kind == "placeholder"


def test_placeholder_for_rare_object_match():
    s = summary([["born", "in", "Morpeth", "."]],
                [Annotation(0, 0, 1, "dbr:Main", "born"),
                 Annotation(0, 2, 3, "dbr:Morpeth,_Northumberland", "Morpeth")])
    triples = [T(tk.ITEM, "dbo:birthPlace", "dbr:Morpeth,_Northumberland")]
    toks = pl.assign_placeholders(s, triples, BOOK_TYPES, {"born", "in", "."}, CFG, {})
    assert toks[2].text == "dbo:birthPlace__obj__dbo:Settlement"


def test_placeholder_untyped_matched_entity_gets_unk_type():
    s = summary([["from", "Nowhere"]],
                [Annotation(0, 0, 1, "dbr:Main", "from"),
                 Annotation(0, 1, 2, "dbr:Nowhere", "Nowhere")])
    triples = [T(tk.ITEM, "dbo:birthPlace", "dbr:Nowhere")]
    toks = pl.assign_placeholders(s, triples, {}, {"from"}, CFG, {})
    assert toks[1].text == f"dbo:birthPlace__obj__{tk.UNK}"


def test_unmatched_rare_entity_uses_instance_type_then_unk():
    s = summary([["saw", "Thing", "and", "Other"]],
                [Annotation(0, 0, 1, "dbr:Main", "saw"),
                 Annotation(0, 1, 2, "dbr:Thing", "Thing"),
                 Annotation(0, 3, 4, "dbr:Other", "Other")])
    toks = pl.assign_placeholders(s, [], {"dbr:Thing": "dbo:Artifact"},
                                  {"saw", "and"}, CFG, {})
    assert toks[1].kind == "instance_type" and toks[1].text == "dbo:Artifact"
    assert toks[3].kind == "special" and toks[3].text == tk.UNK


def test_first_matching_triple_wins_subject_before_object():
    s = summary([["X"]], [Annotation(0, 0, 1, "dbr:E", "X")], main="dbr:M")
    s.annotations.append(Annotation(0, 0, 1, "dbr:M", "X"))  # keep main present
    triples = [T(tk.ITEM, "dbo:follows", "dbr:E"),
               T("dbr:E", "dbo:precedes", tk.ITEM)]
    toks = pl.assign_placeholders(s, triples, {}, set(), CFG, {})
    assert toks[0].text == f"dbo:follows__obj__{tk.UNK}"


def test_in_vocab_entities_pass_through_and_numbers_normalise():
    s = summary([["Famous", "met", "17", "people", "in", "1993"]],
                [Annotation(0, 0, 1, "dbr:Main", "Famous"),
                 Annotation(0, 3, 4, "dbr:People", "people")])
    toks = pl.assign_placeholders(s, [], {}, {"met", "in", "dbr:People"}, CFG, {})
    texts = [t.text for t in toks]
    assert texts == [tk.ITEM, "met", tk.ZERO, "dbr:People", "in", tk.YEAR]
    assert toks[3].kind == "entity_uri"


def test_out_of_vocab_word_becomes_rare():
    s = summary([["colourless", "ideas"]],
                [Annotation(0, 0, 1, "dbr:Main", "colourless")])
    toks = pl.assign_placeholders(s, [], {}, {"ideas"}, CFG, {})
    assert toks[0].text == tk.ITEM and toks[1].text == "ideas"
    s2 = summary([["zz", "ideas"]], [Annotation(0, 1, 2, "dbr:Main", "ideas")])
    toks2 = pl.assign_placeholders(s2, [], {}, set(), CFG, {})
    assert toks2[0].text == tk.RARE


@pytest.mark.parametrize("order", [1, -1], ids=["given", "reversed"])
def test_overlapping_annotations_shorter_first_touching_kept_crossing_dropped(order):
    spans = [(0, 3, "X"), (0, 1, "main"), (1, 2, "Y"), (3, 4, "Z"), (3, 5, "W")]
    s = summary([["a", "b", "c", "d", "e", "f"]],
                [Annotation(0, lo, hi, uri, uri) for lo, hi, uri in spans[::order]],
                main="main")
    toks = pl.assign_placeholders(s, [], {}, {"b", "c", "e", "f", "Z"}, CFG, {})
    assert [t.text for t in toks] == [tk.ITEM, tk.UNK, "c", "Z", "e", "f"]
    assert [t.uri for t in toks] == ["main", "Y", None, "Z", None, None]


# -- surface tuples ------------------------------------------------------------


def test_tuple_mode_turns_in_vocab_entities_only_into_tuples():
    s = summary([["American", "band", "from", "Rare"]],
                [Annotation(0, 0, 1, "dbr:United_States", "American"),
                 Annotation(0, 2, 3, "dbr:Main", "from"),
                 Annotation(0, 3, 4, "dbr:Rare", "Rare")])
    triples = [T(tk.ITEM, "dbo:origin", "dbr:Rare")]
    vocab = {"(dbr:United_States, American)", "band", "dbr:Rare"}
    out = pl.assign_placeholders(s, triples, {}, vocab,
                                 PipelineConfig(mode=pl.MODE_TUPLES), {})
    assert out[0] == SummaryToken("surface_tuple", "(dbr:United_States, American)",
                                  uri="dbr:United_States", surface="American")
    assert out[1] == SummaryToken("word", "band")
    assert out[2].text == tk.ITEM
    # membership is checked on the tuple text, so the bare URI is rare here
    assert out[3].kind == "placeholder" and out[3].text == f"dbo:origin__obj__{tk.UNK}"


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


def assert_one_object_per_value(values) -> None:
    """Each value equal to an earlier one is that same object, and some repeat."""
    values = list(values)
    first = {}
    for v in values:
        assert first.setdefault(v, v) is v, v
    assert len(first) < len(values)


@pytest.mark.parametrize("mode", pl.MODES)
def test_equal_strings_and_records_are_one_object(tmp_path, mode):
    paths = demo_corpus(11, 60, str(tmp_path / "demo"))
    articles = list(pl.read_articles(paths["triples"], paths["summaries"]))
    assert_one_object_per_value(
        x for s, _ in articles
        for x in (s.main_entity, *(w for sent in s.sentences for w in sent),
                  *(f for a in s.annotations for f in a[3:])))
    assert_one_object_per_value(x for _, raw in articles for t in raw for x in t[:3])
    cfg = PipelineConfig(mode=mode, target_vocab_min_count=2,
                         gender_lexicon=pl.read_tsv_map(paths["genders"]))
    built, _, _ = pl.build_corpus(articles, pl.read_tsv_map(paths["instance_types"]), cfg)
    path = tmp_path / "corpus"
    pl.write_corpus(str(path), built)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEMO_DIGESTS[mode]["corpus"]
    read = pl.read_corpus(str(path))
    assert read == built
    for examples in (built, read):
        assert_one_object_per_value(t for ex in examples for t in ex.triples)
        assert_one_object_per_value(t for ex in examples for t in ex.summary_tokens)
    assert_one_object_per_value(w for ex in read for w in ex.reference_tokens)


def test_read_corpus_holds_under_twice_its_file_size(tmp_path):
    paths = demo_corpus(11, 200, str(tmp_path / "demo"))
    cfg = PipelineConfig(target_vocab_min_count=2,
                         gender_lexicon=pl.read_tsv_map(paths["genders"]))
    examples, _, _ = pl.build_corpus(pl.read_articles(paths["triples"], paths["summaries"]),
                                     pl.read_tsv_map(paths["instance_types"]), cfg)
    path = tmp_path / "corpus.jsonl"
    pl.write_corpus(str(path), examples)
    del examples
    tracemalloc.start()
    try:
        read = pl.read_corpus(str(path))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(read) > 150
    assert held < 2 * path.stat().st_size, (held, path.stat().st_size)


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


def test_read_stats_takes_what_build_corpus_writes_e_max_below_e_mean_included(tmp_path):
    # sizes [3, 3, 3, 4] have mean 3.25 and upper bound 3, so the set of
    # four is cut to three and e_max ends below e_mean
    articles = [make_article(f"dbr:P{i}") for i in range(3)]
    articles.append(make_article("dbr:Big", n_filler=1))
    _, stats, _ = pl.build_corpus(articles, {}, PipelineConfig())
    assert (stats.e_min, stats.e_mean, stats.e_max) == (3, 3.25, 3)
    path = str(tmp_path / "stats.json")
    pl.write_stats(path, stats)
    assert pl.read_stats(path) == stats


# the characters JSON escapes or a line reader could split on, beside any text
TEXTS = st.text(st.sampled_from('a"\\\x00\x1f\n\r\x7f\x85\u2028\u2029\U0001F600 '),
                max_size=4) | st.text(max_size=4)
OPTIONAL = st.none() | TEXTS


@st.composite
def corpora(draw):
    """Examples whose triples and tokens are drawn from small pools, so
    equal records recur; a triple's types are None or non-empty, as the
    writer omits an empty one."""
    triples = draw(st.lists(st.builds(Triple, TEXTS, TEXTS, TEXTS, TEXTS,
                                      st.none() | TEXTS.filter(bool),
                                      st.none() | TEXTS.filter(bool)), min_size=1, max_size=4))
    tokens = draw(st.lists(st.builds(SummaryToken, TEXTS, TEXTS, OPTIONAL, OPTIONAL),
                           min_size=1, max_size=4))
    return draw(st.lists(st.builds(
        AlignedExample, TEXTS, st.lists(st.sampled_from(triples), max_size=5),
        st.lists(st.sampled_from(tokens), max_size=5), st.lists(TEXTS, max_size=4),
        st.sampled_from(pl.MODES)), max_size=4))


def corpus_record(ex: AlignedExample) -> dict:
    """The JSON value of one corpus line, as the file format defines it."""
    def triple(t):
        return {"s": t.subject, "p": t.predicate, "o": t.object, "kind": t.object_kind,
                **({"s_type": t.subject_type} if t.subject_type else {}),
                **({"o_type": t.object_type} if t.object_type else {})}

    def token(t):
        return {"kind": t.kind, "text": t.text,
                **({"uri": t.uri} if t.uri is not None else {}),
                **({"surface": t.surface} if t.surface is not None else {})}

    return {"main_entity": ex.main_entity, "mode": ex.mode,
            "triples": [triple(t) for t in ex.triples],
            "summary_tokens": [token(t) for t in ex.summary_tokens],
            "reference_tokens": ex.reference_tokens}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(corpora())
def test_written_lines_are_json_dumps_of_each_record_and_read_back(tmp_path_factory, examples):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    pl.write_corpus(str(path), examples)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert lines == [json.dumps(corpus_record(ex), ensure_ascii=False, sort_keys=True)
                     for ex in examples]
    read = pl.read_corpus(str(path))
    assert read == examples
    first = {}
    for record in (r for ex in read for r in (*ex.triples, *ex.summary_tokens)):
        assert first.setdefault(record, record) is record, record


def test_build_corpus_asks_the_number_rule_once_per_distinct_word(tmp_path, monkeypatch):
    paths = demo_corpus(11, 60, str(tmp_path / "demo"))
    articles = list(pl.read_articles(paths["triples"], paths["summaries"]))
    asked = Counter()
    number_token = pl._number_token

    def counted(word, config):
        asked[word] += 1
        return number_token(word, config)

    monkeypatch.setattr(pl, "_number_token", counted)
    examples, _, _ = pl.build_corpus(articles, pl.read_tsv_map(paths["instance_types"]),
                                     PipelineConfig(target_vocab_min_count=2))
    kept = {ex.main_entity for ex in examples}
    words = {w for s, _ in articles if s.main_entity in kept for sent in s.sentences[:2]
             for w in sent}
    assert set(asked) <= words and max(asked.values()) == 1
    assert sum(len(ex.reference_tokens) for ex in examples) > 2 * len(asked)  # words recur


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
