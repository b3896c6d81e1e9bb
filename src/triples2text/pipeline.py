"""Corpus construction: raw triple dumps + entity-annotated summaries in,
training-ready aligned examples out.

Per article, the rewriting stages run in a fixed order: filter string
objects, encode dates, normalise numbers, substitute the main entity,
append the gender triple (when configured), deduplicate, bound the triple
set against corpus statistics, truncate the summary to two sentences, and
rewrite annotated entities into URIs / surface-form tuples / property-type
placeholders. Corpus statistics and the surface-form lexicon are serial
reductions over articles in input order, so output is deterministic.

The frequency pass that picks the rare tokens and the rewriting read one
walk over each summary: annotations in (sentence, start, end) order, each
one overlapping an annotation kept before it dropped. One rule makes
summary numbers ``0``/``<year>``, with the year range of the config.

Each read and each build passes every string and immutable record it makes
through a dict local to the call, so equal values, which recur article after
article, are one object within that call (hash-consing). Lists and the
mutable records are never shared. Work done per record (the number rule on
a summary word, JSON encoding, type checks when reading) is done once per
distinct record within the call, through such dicts.

Input formats:
  * triples: N-Triples-like text, one ``subject predicate object .`` per
    line (UTF-8; bare prefixed names or <...> URIs; literals quoted with
    an optional ``^^datatype`` or ``@lang`` suffix).
  * summaries: JSON Lines with ``main_entity`` (a string), ``sentences``
    (lists of token strings) and ``annotations`` (token spans: int
    sentence index, start and end exclusive; string uri and surface).
    A field of another type is a :class:`PipelineError`.
  * instance types / genders: two-column tab-separated files.
"""

from __future__ import annotations

import gc
import json
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fileio import atomic_open, reading
from .settings import INTEGER, Range, Settings, at_least, one_of, setting
from .tokens import (END, ITEM, RARE, SPECIAL_TOKENS, START, UNK, YEAR, ZERO,
                     format_placeholder, tuple_token_text)
from .vocab import (KIND_ENTITY, KIND_INSTANCE_TYPE, KIND_PLACEHOLDER,
                    KIND_SPECIAL, KIND_TUPLE, KIND_WORD, most_frequent)

MODE_URI = "uri"
MODE_TUPLES = "surface_form_tuple"
MODES = (MODE_URI, MODE_TUPLES)

ENTITY = "entity"
NUMBER = "number"
DATE = "date"
YEAR_KIND = "year"
MONTH = "month"
OTHER_LITERAL = "other_literal"

GENDER_PREDICATE = "foaf:gender"  # predicate of the appended gender triple


class PipelineError(ValueError):
    """Malformed pipeline input, reported with the offending article/line."""


class MalformedLiteralError(PipelineError):
    pass


class EmptySummaryError(PipelineError):
    pass


# The per-token and per-triple records are named tuples: a corpus build
# makes hundreds of thousands of them, and a tuple is cheaper to build
# than a dataclass instance.


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str
    object_kind: str = ENTITY
    subject_type: str | None = None
    object_type: str | None = None

    def spo(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)


class Annotation(NamedTuple):
    sentence: int
    start: int
    end: int  # exclusive
    uri: str
    surface: str


@dataclass
class AnnotatedSummary:
    main_entity: str
    sentences: list[list[str]]
    annotations: list[Annotation]

    def check_spans(self) -> None:
        for a in self.annotations:
            if not 0 <= a.sentence < len(self.sentences):
                raise PipelineError(
                    f"{self.main_entity}: annotation sentence {a.sentence} out of range")
            if not 0 <= a.start < a.end <= len(self.sentences[a.sentence]):
                raise PipelineError(
                    f"{self.main_entity}: annotation span [{a.start}, {a.end}) out of bounds")

    def mentions_main(self) -> bool:
        return any(a.uri == self.main_entity for a in self.annotations)


class SummaryToken(NamedTuple):
    kind: str
    text: str
    uri: str | None = None
    surface: str | None = None


@dataclass
class AlignedExample:
    main_entity: str
    triples: list[Triple]
    summary_tokens: list[SummaryToken]
    reference_tokens: list[str]
    mode: str


@dataclass
class CorpusStats:
    e_min: int = 0
    e_mean: float = 0.0
    e_std: float = 0.0
    e_max: int = 0
    n_articles: int = 0
    n_entities: int = 0
    n_predicates: int = 0
    exclusions: dict[str, int] = field(default_factory=dict)

    def lower_bound(self) -> int:
        return math.floor(self.e_min + 0.25 * self.e_std)

    def upper_bound(self) -> int:
        return math.floor(self.e_mean + 1.5 * self.e_std)


@dataclass(frozen=True)
class PipelineConfig(Settings):
    mode: str = setting(MODE_URI, one_of(MODES))
    target_vocab_size: int = setting(30000, at_least(1))
    target_vocab_min_count: int = setting(1, at_least(1))
    year_min: int = setting(1000, INTEGER)
    year_max: int = setting(2100, INTEGER)
    gender_lexicon: Mapping[str, str] | None = setting(
        None, Range(lambda v: v is None or isinstance(v, Mapping), "a mapping or None"))

    def __post_init__(self):
        super().__post_init__()
        if self.year_min > self.year_max:
            raise ValueError(f"year_min must be at most year_max ({self.year_max}), "
                             f"got {self.year_min}")


# ---------------------------------------------------------------------------
# literal classification and parsing

_NUMBER_RE = re.compile(r"[+-]?\d+(?:[.,]\d+)*")
_DATE_RE = re.compile(r"(\d{1,4})-(\d{2})-(\d{2})")
_YEAR_RE = re.compile(r"\d{4}")
_NUMERIC_DATATYPES = ("integer", "decimal", "double", "float", "int", "long",
                      "short", "byte", "nonNegativeInteger", "positiveInteger",
                      "negativeInteger", "nonPositiveInteger", "unsignedInt", "gYear")
_DATE_DATATYPES = ("date", "dateTime")


def _may_be_number(token: str) -> bool:
    """Whether the first character lets ``_NUMBER_RE`` or ``_DATE_RE`` match.

    Both start with ``[+-]`` or ``\\d``, and ``\\d`` is the Unicode ``Nd``
    category that ``str.isdecimal`` tests, so most words skip the regex.
    """
    c = token[:1]
    return c.isdecimal() or c == "+" or c == "-"


def classify_literal(lexical: str, datatype: str | None) -> str:
    if datatype:
        local = datatype.rstrip(">").rsplit("#", 1)[-1].rsplit("/", 1)[-1]
        if local in _DATE_DATATYPES:
            return DATE
        if local in _NUMERIC_DATATYPES:
            return NUMBER
    if _may_be_number(lexical):
        if _DATE_RE.fullmatch(lexical.split("T")[0]) and "-" in lexical:
            return DATE
        if _NUMBER_RE.fullmatch(lexical):
            return NUMBER
    return OTHER_LITERAL


_TRIPLE_LINE_RE = re.compile(r"^(\S+)\s+(\S+)\s+(.+?)\s*\.\s*$")
_LITERAL_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"(?:@[\w-]+|\^\^(\S+))?$')


def _strip_uri(tok: str) -> str:
    return tok[1:-1] if tok.startswith("<") and tok.endswith(">") else tok


def parse_ntriples(lines: Iterable[str], where: str) -> list[Triple]:
    """Triples of N-Triples-like lines, whose errors name ``where``; equal
    strings are one object."""
    canon: dict[str, str] = {}
    share = canon.setdefault
    out: list[Triple] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _TRIPLE_LINE_RE.match(line)
        if m is None:
            raise PipelineError(f"{where}:{lineno}: cannot parse triple line: {line!r}")
        subj, pred, obj_raw = _strip_uri(m.group(1)), _strip_uri(m.group(2)), m.group(3)
        subj, pred = share(subj, subj), share(pred, pred)
        lm = _LITERAL_RE.match(obj_raw)
        if lm is not None:
            lexical = lm.group(1).replace('\\"', '"')
            kind = classify_literal(lexical, lm.group(2))
            out.append(Triple(subj, pred, share(lexical, lexical), kind))
        else:
            obj = _strip_uri(obj_raw)
            kind = classify_literal(obj, None)
            if kind == OTHER_LITERAL:
                kind = ENTITY
            out.append(Triple(subj, pred, share(obj, obj), kind))
    return out


def read_ntriples(path: str) -> list[Triple]:
    with reading(path) as fh:
        return parse_ntriples(fh, where=path)


def _summary_record(rec, share) -> AnnotatedSummary:
    """One summary line's JSON value, its field types checked; its
    strings are passed through ``share``."""
    if not isinstance(rec, dict):
        raise TypeError("a record must be a JSON object")
    main, sentences = rec["main_entity"], rec["sentences"]
    if type(main) is not str:
        raise TypeError("main_entity must be a string")
    if type(sentences) is not list or any(
            type(s) is not list or not {*map(type, s)} <= {str} for s in sentences):
        raise TypeError("sentences must be lists of strings")
    anns = []
    for a in rec.get("annotations", []):
        sentence, start, end, uri, surface = (
            (a["sentence_idx"], a["start"], a["end"], a["uri"], a["surface"])
            if isinstance(a, dict) else a)
        if not (type(sentence) is type(start) is type(end) is int  # a bool is not an int
                and type(uri) is type(surface) is str):
            raise TypeError("an annotation's sentence_idx, start and end must be ints, "
                            "its uri and surface strings")
        anns.append(Annotation(sentence, start, end, share(uri, uri), share(surface, surface)))
    for s in sentences:
        s[:] = map(share, s, s)
    # exact-size copies: the JSON decoder's lists keep their append slack
    return AnnotatedSummary(share(main, main), [list(s) for s in sentences], anns)


def read_summaries(path: str) -> Iterator[AnnotatedSummary]:
    """Summaries of a JSON Lines file; a malformed line, or a field of the
    wrong type, raises PipelineError naming path:line. Equal strings of
    the file (main entities, words, annotation URIs and surfaces) are one
    object."""
    canon: dict[str, str] = {}
    share = canon.setdefault
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                summary = _summary_record(json.loads(line), share)
            except (KeyError, TypeError, ValueError) as exc:
                raise PipelineError(f"{path}:{lineno}: bad summary record: {exc}") from exc
            yield summary


def read_tsv_map(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise PipelineError(f"{path}:{lineno}: expected two tab-separated columns")
            out[parts[0]] = parts[1]
    return out


# ---------------------------------------------------------------------------
# rewriting operations


def filter_triples(triples: Sequence[Triple]) -> list[Triple]:
    """Drop triples whose object is a plain textual string; keep entities,
    numbers, dates and years. Order is preserved."""
    return [t for t in triples if t.object_kind != OTHER_LITERAL]


def encode_date_triple(t: Triple) -> list[Triple]:
    """Expand a date-object triple into a month triple and a <year> triple.

    ``(s, p, "1970-04-29")`` becomes ``(s, pMonth, 4)`` and
    ``(s, pYear, <year>)``.
    """
    m = _DATE_RE.match(t.object)
    if m is None:
        raise MalformedLiteralError(
            f"object of ({t.subject}, {t.predicate}) does not parse as a date: {t.object!r}")
    month = int(m.group(2))
    if not 1 <= month <= 12:
        raise MalformedLiteralError(
            f"object of ({t.subject}, {t.predicate}) has month {month} outside 1..12")
    return [
        Triple(t.subject, t.predicate + "Month", str(month), MONTH,
               t.subject_type, t.object_type),
        Triple(t.subject, t.predicate + "Year", YEAR, YEAR_KIND,
               t.subject_type, t.object_type),
    ]


def normalize_numeric(token: str, year_min: int, year_max: int) -> str:
    """``<year>`` for a plausible 4-digit year, the token ``0`` otherwise."""
    if _YEAR_RE.fullmatch(token) and year_min <= int(token) <= year_max:
        return YEAR
    return ZERO


def normalize_triples(triples: Sequence[Triple], cfg: PipelineConfig) -> list[Triple]:
    out: list[Triple] = []
    for t in triples:
        if t.object_kind == DATE:
            out.extend(encode_date_triple(t))
        elif t.object_kind == NUMBER:
            norm = normalize_numeric(t.object, cfg.year_min, cfg.year_max)
            out.append(Triple(t.subject, t.predicate, norm,
                              YEAR_KIND if norm == YEAR else NUMBER,
                              t.subject_type, t.object_type))
        else:
            out.append(t)
    return out


def substitute_item_in_triples(triples: Sequence[Triple], main: str) -> tuple[list[Triple], bool]:
    hit = False
    out = []
    for t in triples:
        subj_hit = t.subject == main
        obj_hit = t.object == main and t.object_kind == ENTITY
        if subj_hit or obj_hit:
            hit = True
            t = Triple(ITEM if subj_hit else t.subject, t.predicate,
                       ITEM if obj_hit else t.object, t.object_kind,
                       t.subject_type, t.object_type)
        out.append(t)
    return out, hit


def augment_gender(triples: Sequence[Triple], main: str,
                   gender_lexicon: Mapping[str, str]) -> list[Triple]:
    """Append (<item>, GENDER_PREDICATE, gender) for a known main entity.

    Idempotent: a triple with the gender predicate already present leaves
    the set unchanged.
    """
    triples = list(triples)
    gender = gender_lexicon.get(main)
    if gender is None or any(t.predicate == GENDER_PREDICATE for t in triples):
        return triples
    triples.append(Triple(ITEM, GENDER_PREDICATE, gender, ENTITY))
    return triples


def dedup_triples(triples: Sequence[Triple]) -> list[Triple]:
    """Drop exact post-normalisation duplicates, keeping first occurrences."""
    seen: set[tuple[str, str, str]] = set()
    out = []
    for t in triples:
        key = t.spo()
        if key in seen:
            continue
        seen.add(key)
        out.append(t)
    return out


def rewrite_triples(triples: Sequence[Triple], main: str,
                    config: PipelineConfig) -> tuple[list[Triple], bool]:
    """Drop string objects, encode dates and normalise numbers, substitute
    <item> for the main entity, append its gender triple when a lexicon is
    configured, and deduplicate. Also returns whether the main entity
    occurred in the triples."""
    out = normalize_triples(filter_triples(triples), config)
    out, hit = substitute_item_in_triples(out, main)
    if config.gender_lexicon is not None:
        out = augment_gender(out, main, config.gender_lexicon)
    return dedup_triples(out), hit


def bound_triple_set(triples: Sequence[Triple], stats: CorpusStats) -> tuple[str, list[Triple]]:
    """Accept, trim (keeping the first triples), or reject a set against the
    corpus bounds floor(E_min + 0.25*sigma) <= E <= floor(mean + 1.5*sigma)."""
    lo = stats.lower_bound()
    hi = stats.upper_bound()
    n = len(triples)
    if n < lo:
        return "reject", []
    if n > hi:
        return "trim", list(triples[:hi])
    return "accept", list(triples)


def truncate_summary(s: AnnotatedSummary) -> AnnotatedSummary:
    """Keep at most the first two sentences and the annotations inside them."""
    if not s.sentences:
        raise EmptySummaryError(f"{s.main_entity}: summary has no sentences")
    kept = s.sentences[:2]
    anns = [a for a in s.annotations if a.sentence < len(kept)]
    return AnnotatedSummary(s.main_entity, kept, anns)


def _number_token(word: str, config: PipelineConfig) -> str | None:
    """What a summary word becomes as a number: ``0`` and ``<year>`` stay
    as they are, another number is normalised, and any other word gives
    None."""
    if word == ZERO or word == YEAR:
        return word
    if _may_be_number(word) and _NUMBER_RE.fullmatch(word):
        return normalize_numeric(word, config.year_min, config.year_max)
    return None


def _walk(s: AnnotatedSummary) -> Iterator[str | Annotation]:
    """Each sentence's words, with each kept annotation in place of the
    words it spans: in (sentence, start, end) order, one overlapping an
    annotation kept before it is dropped. Spans must pass ``check_spans``."""
    per_sentence: dict[int, list[Annotation]] = {}
    for a in sorted(s.annotations, key=lambda a: (a.sentence, a.start, a.end)):
        per_sentence.setdefault(a.sentence, []).append(a)
    for si, sent in enumerate(s.sentences):
        pos = 0
        for a in per_sentence.get(si, ()):
            if a.start < pos:
                continue
            yield from sent[pos:a.start]
            yield a
            pos = a.end
        yield from sent[pos:]


def _entity_token(a: Annotation, mode: str) -> SummaryToken:
    """An annotated entity kept as itself: its URI in URI mode, its
    (uri, surface) tuple token in tuple mode."""
    if mode == MODE_URI:
        return SummaryToken(KIND_ENTITY, a.uri, a.uri, a.surface)
    return SummaryToken(KIND_TUPLE, tuple_token_text(a.uri, a.surface), a.uri, a.surface)


def _word_tokens(word: str, number: str | None,
                 target_vocab) -> tuple[SummaryToken, str]:
    """A plain word's summary token and reference token, given what it is
    as a number (``_number_token``): a number is its normalised token in
    both, an out-of-vocabulary word is <rare> in the summary and itself in
    the reference."""
    if number is not None:
        return SummaryToken(KIND_SPECIAL, number), number
    if word in target_vocab:
        return SummaryToken(KIND_WORD, word), word
    return SummaryToken(KIND_SPECIAL, RARE), word


def _decide(word: str, decided: dict[str, tuple[SummaryToken, str]], target_vocab,
            config: PipelineConfig) -> tuple[SummaryToken, str]:
    """Decide a word that ``decided`` does not hold yet, and enter it."""
    pair = decided[word] = _word_tokens(word, _number_token(word, config), target_vocab)
    return pair


def assign_placeholders(s: AnnotatedSummary, triples: Sequence[Triple],
                        types: Mapping[str, str], target_vocab, config: PipelineConfig,
                        decided: dict[str, tuple[SummaryToken, str]]) -> list[SummaryToken]:
    """Rewrite a truncated summary into target tokens.

    Annotated entities: the main entity becomes <item>; an in-vocabulary
    entity stays, as its URI in URI mode and as its (uri, surface) tuple
    token in tuple mode (membership is checked on that text); a rare entity
    matched to a triple becomes the placeholder predicate__subj__Type or
    predicate__obj__Type (first matching triple in list order wins,
    subject checked before object); an unmatched rare entity becomes its
    instance-type token, or <unk> without one. Plain words: numbers
    normalise to 0/<year> within the configured year range,
    out-of-vocabulary words become <rare>. ``decided`` maps each plain word
    already decided to its summary and reference tokens; a word it lacks
    is decided here and entered, so each word is decided once per map.
    """
    out: list[SummaryToken] = []
    for item in _walk(s):
        if type(item) is str:
            out.append((decided.get(item) or _decide(item, decided, target_vocab, config))[0])
            continue
        uri, surface = item.uri, item.surface
        if uri == s.main_entity:
            out.append(SummaryToken(KIND_SPECIAL, ITEM, uri, surface))
            continue
        kept = _entity_token(item, config.mode)
        if kept.text in target_vocab:
            out.append(kept)
            continue
        for t in triples:
            if t.subject == uri or t.object == uri:
                slot = "subj" if t.subject == uri else "obj"
                out.append(SummaryToken(KIND_PLACEHOLDER, format_placeholder(
                    t.predicate, slot, types.get(uri, UNK)), uri, surface))
                break
        else:
            out.append(SummaryToken(KIND_INSTANCE_TYPE, types[uri], uri, surface)
                       if uri in types else SummaryToken(KIND_SPECIAL, UNK, uri, surface))
    return out


# ---------------------------------------------------------------------------
# corpus assembly


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring its previous state.

    Building a corpus allocates hundreds of thousands of records, and each
    full collection walks every one built so far, so the sweeps grow with
    the corpus. The records hold no reference cycles; reference counting
    still frees everything the build discards.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def attach_types(triples: Sequence[Triple], types: Mapping[str, str]) -> list[Triple]:
    out = []
    for t in triples:
        st = types.get(t.subject) if t.subject != ITEM else None
        ot = types.get(t.object) if (t.object_kind == ENTITY and t.object != ITEM) else None
        if st or ot:
            t = Triple(t.subject, t.predicate, t.object, t.object_kind, st, ot)
        out.append(t)
    return out


@_gc_paused()
def build_corpus(articles: Iterable[tuple[AnnotatedSummary, Sequence[Triple]]],
                 types: Mapping[str, str],
                 config: PipelineConfig) -> tuple[list[AlignedExample], CorpusStats, dict[str, str]]:
    """Run the full rewriting pipeline over (summary, raw triples) pairs.

    Returns the aligned examples, corpus statistics (with exclusion
    counts by reason), and the per-entity most-frequent surface form
    lexicon. Identical inputs and configuration reproduce the corpus
    byte-for-byte. Equal triples and equal summary tokens of the built
    examples are one object each.
    """
    canon: dict[tuple, tuple] = {}
    share = canon.setdefault
    exclusions: Counter[str] = Counter()
    prepared: list[tuple[AnnotatedSummary, list[Triple]]] = []
    for summary, raw in articles:
        try:
            summary.check_spans()
        except PipelineError:
            exclusions["invalid_annotation"] += 1
            continue
        if not summary.mentions_main():
            exclusions["no_main_annotation"] += 1
            continue
        # the main entity is known to be annotated, so substitution cannot
        # leave it absent from both triples and text here
        triples, _ = rewrite_triples(raw, summary.main_entity, config)
        triples = attach_types(triples, types)
        try:
            summary = truncate_summary(summary)
        except EmptySummaryError:
            exclusions["empty_summary"] += 1
            continue
        prepared.append((summary, [share(t, t) for t in triples]))

    stats = CorpusStats(exclusions=dict(exclusions))
    if not prepared:
        return [], stats, {}

    sizes = [len(t) for _, t in prepared]
    mean = sum(sizes) / len(sizes)
    var = sum((s - mean) ** 2 for s in sizes) / len(sizes)
    stats.e_min = min(sizes)
    stats.e_mean = mean
    stats.e_std = math.sqrt(var)

    bounded: list[tuple[AnnotatedSummary, list[Triple]]] = []
    for summary, triples in prepared:
        decision, kept = bound_triple_set(triples, stats)
        if decision == "reject":
            exclusions["too_few_triples"] += 1
            continue
        bounded.append((summary, kept))

    # provisional frequency pass decides which tokens count as rare, and
    # each distinct plain word's summary and reference tokens; the number
    # rule is asked once per distinct word
    counts: Counter[str] = Counter()
    words: Counter[str] = Counter()
    surface_counts: dict[str, Counter] = {}
    for summary, _ in bounded:
        for item in _walk(summary):
            if type(item) is str:
                words[item] += 1
                continue
            surface_counts.setdefault(item.uri, Counter())[item.surface] += 1
            if item.uri != summary.main_entity:
                counts[_entity_token(item, config.mode).text] += 1
    numbers = {word: _number_token(word, config) for word in words}
    for word, n in words.items():
        if numbers[word] is None and word not in SPECIAL_TOKENS:
            counts[word] += n
    in_vocab = frozenset(most_frequent(counts.items(), config.target_vocab_size,
                                       config.target_vocab_min_count))
    # words only inside annotation spans, which only the reference tokens
    # hold, are decided on first sighting
    decided = {word: _word_tokens(word, number, in_vocab) for word, number in numbers.items()}

    examples: list[AlignedExample] = []
    entity_tokens: set[str] = set()
    predicate_tokens: set[str] = set()
    for summary, triples in bounded:
        toks = assign_placeholders(summary, triples, types, in_vocab, config, decided)
        toks = ([SummaryToken(KIND_SPECIAL, START)] + toks
                + [SummaryToken(KIND_SPECIAL, END)])
        toks[:] = map(share, toks, toks)
        examples.append(AlignedExample(
            main_entity=summary.main_entity,
            triples=triples,
            summary_tokens=toks,
            reference_tokens=[
                (decided.get(word) or _decide(word, decided, in_vocab, config))[1]
                for sent in summary.sentences for word in sent],
            mode=config.mode,
        ))
        for t in triples:
            predicate_tokens.add(t.predicate)
            for tok in (t.subject, t.object):
                if tok not in SPECIAL_TOKENS:
                    entity_tokens.add(tok)

    stats.n_articles = len(examples)
    stats.n_entities = len(entity_tokens)
    stats.n_predicates = len(predicate_tokens)
    stats.e_max = max((len(e.triples) for e in examples), default=0)
    stats.exclusions = dict(exclusions)

    lexicon = {uri: min(c.items(), key=lambda kv: (-kv[1], kv[0]))[0]
               for uri, c in sorted(surface_counts.items())}
    return examples, stats, lexicon


def read_articles(triples_path: str, summaries_path: str
                  ) -> Iterator[tuple[AnnotatedSummary, list[Triple]]]:
    """Pair each summary with its allocated triples from a global dump.

    Equal strings of the dump are one object, and so are equal strings of
    the summaries (main entities, words, annotation URIs and surfaces)."""
    triples = read_ntriples(triples_path)
    by_subject: dict[str, list[Triple]] = {}
    by_object: dict[str, list[Triple]] = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append(t)
        if t.object_kind == ENTITY:
            by_object.setdefault(t.object, []).append(t)
    for summary in read_summaries(summaries_path):
        annotated = {a.uri for a in summary.annotations}
        alloc = list(by_subject.get(summary.main_entity, []))
        alloc += [t for t in by_object.get(summary.main_entity, [])
                  if t.subject in annotated and t.subject != summary.main_entity]
        yield summary, alloc


# ---------------------------------------------------------------------------
# corpus serialisation


def _token_to_json(tok: SummaryToken) -> dict:
    d = {"kind": tok.kind, "text": tok.text}
    if tok.uri is not None:
        d["uri"] = tok.uri
    if tok.surface is not None:
        d["surface"] = tok.surface
    return d


def _triple_to_json(t: Triple) -> dict:
    d = {"s": t.subject, "p": t.predicate, "o": t.object, "kind": t.object_kind}
    if t.subject_type:
        d["s_type"] = t.subject_type
    if t.object_type:
        d["o_type"] = t.object_type
    return d


def _json_list(records: Iterable[tuple], encoded: dict, to_json, encode) -> str:
    """The JSON list of ``records``, each distinct record encoded once per
    ``encoded``, the call's memo of record -> JSON text."""
    texts = []
    for r in records:
        text = encoded.get(r)
        if text is None:
            text = encoded[r] = encode(to_json(r))
        texts.append(text)
    return "[" + ", ".join(texts) + "]"


def write_corpus(path: str, examples: Sequence[AlignedExample]) -> None:
    """Write one JSON line per example: byte for byte
    ``json.dumps(record, ensure_ascii=False, sort_keys=True)`` of the record
    with keys ``main_entity``, ``mode``, ``reference_tokens``,
    ``summary_tokens`` and ``triples``.

    Each distinct triple and summary token is encoded once per call, and
    each line is joined from those texts: equal records, whose fields are
    strings or None, encode equally.
    """
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    triples: dict[Triple, str] = {}
    tokens: dict[SummaryToken, str] = {}
    with atomic_open(path) as fh:
        for ex in examples:
            fh.write(f'{{"main_entity": {encode(ex.main_entity)}, "mode": {encode(ex.mode)}, '
                     f'"reference_tokens": {encode(ex.reference_tokens)}, '
                     f'"summary_tokens": '
                     f'{_json_list(ex.summary_tokens, tokens, _token_to_json, encode)}, '
                     f'"triples": {_json_list(ex.triples, triples, _triple_to_json, encode)}}}\n')


@_gc_paused()
def read_corpus(path: str) -> list[AlignedExample]:
    """Examples of a corpus file written by :func:`write_corpus`, whose
    lines are ``json.dumps(record, ensure_ascii=False, sort_keys=True)``;
    any other one-line JSON text of the same records reads the same.

    A malformed line, a field of the wrong type or an unknown mode raises
    PipelineError naming path:line, and a byte that is not UTF-8 a
    ValueError naming path. Equal triples, summary tokens and
    reference tokens of the file are one object each. Each triple and
    token is looked up by its plain field tuple, which a named tuple
    equals and hashes as, so a record is built and type-checked once, on
    its first sighting, before it enters the file's table.
    """
    # Only checked values enter the table, and their fields are str or
    # None, so a triple (6 fields), a token (4) and a string never compare
    # equal; an unchecked value can only miss or raise TypeError.
    canon: dict = {}
    known = canon.get

    def first(value, required=1):
        """Enter a value seen for the first time once it is checked: a
        string, or a record whose first ``required`` fields are strings and
        whose others are strings or None."""
        fields = value if isinstance(value, tuple) else (value,)
        for i, v in enumerate(fields):
            if type(v) is not str and (i < required or v is not None):
                name = (f"{type(value).__name__}.{value._fields[i]}" if fields is value
                        else "a reference token")
                raise TypeError(f"{name} must be a string{'' if i < required else ' or null'}, "
                                f"got {v!r}")
        canon[value] = value
        return value

    out: list[AlignedExample] = []
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                main, mode, refs = (rec["main_entity"], rec.get("mode", MODE_URI),
                                    rec["reference_tokens"])
                if type(main) is not str:
                    raise TypeError("main_entity must be a string")
                if mode not in MODES:
                    raise ValueError(f"unknown mode {mode!r}")
                if type(refs) is not list:
                    raise TypeError("reference_tokens must be a list")
                triples = [(t["s"], t["p"], t["o"], t.get("kind", ENTITY),
                            t.get("s_type"), t.get("o_type")) for t in rec["triples"]]
                toks = [(t["kind"], t["text"], t.get("uri"), t.get("surface"))
                        for t in rec["summary_tokens"]]
                # records are non-empty tuples, so ``or`` falls through on a
                # miss (and on an empty string, which ``first`` enters again)
                triples = [known(t) or first(Triple._make(t), 4) for t in triples]
                toks = [known(t) or first(SummaryToken._make(t), 2) for t in toks]
                refs = [known(w) or first(w) for w in refs]
                out.append(AlignedExample(main, triples, toks, refs, known(mode) or first(mode)))
            except (KeyError, TypeError, ValueError) as exc:
                raise PipelineError(f"{path}:{lineno}: bad corpus record: {exc}") from exc
    return out


def write_stats(path: str, stats: CorpusStats) -> None:
    with atomic_open(path) as fh:
        json.dump({
            "e_min": stats.e_min, "e_mean": stats.e_mean, "e_std": stats.e_std,
            "e_max": stats.e_max, "lower_bound": stats.lower_bound(),
            "upper_bound": stats.upper_bound(), "n_articles": stats.n_articles,
            "n_entities": stats.n_entities, "n_predicates": stats.n_predicates,
            "exclusions": stats.exclusions,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_stats(path: str) -> CorpusStats:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
            counts = ("e_min", "e_max", "n_articles", "n_entities", "n_predicates")
            if (any(type(d[k]) is not int for k in counts)
                    or any(type(d[k]) not in (int, float) for k in ("e_mean", "e_std"))):
                raise ValueError("counts must be ints, e_mean and e_std numbers")
            if not (math.isfinite(d["e_mean"]) and 0 <= d["e_std"] < math.inf):
                raise ValueError("e_mean must be finite, e_std finite and at least 0")
            # truncation to the upper bound may leave e_max below e_mean
            if d["e_min"] > d["e_mean"] or d["e_min"] > d["e_max"]:
                raise ValueError("e_min must be at most e_mean and e_max")
            return CorpusStats(e_min=d["e_min"], e_mean=d["e_mean"], e_std=d["e_std"],
                               e_max=d["e_max"], n_articles=d["n_articles"],
                               n_entities=d["n_entities"], n_predicates=d["n_predicates"],
                               exclusions=dict(d.get("exclusions", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise PipelineError(f"{path}: bad stats record: {exc}") from exc


def write_lexicon(path: str, lexicon: Mapping[str, str]) -> None:
    with atomic_open(path) as fh:
        for uri in sorted(lexicon):
            fh.write(f"{uri}\t{lexicon[uri]}\n")
