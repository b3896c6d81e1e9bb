"""Corpus construction: raw triple dumps + entity-annotated summaries in,
training-ready aligned examples out.

Per article, the rewriting stages run in a fixed order: filter string
objects, encode dates, normalise numbers, substitute the main entity,
append the gender triple (when configured), deduplicate, bound the triple
set against corpus statistics, truncate the summary to two sentences, and
rewrite annotated entities into URIs / surface-form tuples / property-type
placeholders. Corpus statistics and the surface-form lexicon are serial
reductions over articles in input order, so output is deterministic.

Input formats:
  * triples: N-Triples-like text, one ``subject predicate object .`` per
    line (UTF-8; bare prefixed names or <...> URIs; literals quoted with
    an optional ``^^datatype`` or ``@lang`` suffix).
  * summaries: JSON Lines with ``main_entity``, ``sentences`` (lists of
    token strings) and ``annotations`` (token spans: sentence index,
    start, end exclusive, uri, surface).
  * instance types / genders: two-column tab-separated files.
"""

from __future__ import annotations

import gc
import json
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fileio import atomic_open
from .tokens import (END, ITEM, RARE, SPECIAL_TOKENS, START, UNK, YEAR, ZERO,
                     format_placeholder, tuple_token_text)
from .vocab import (KIND_ENTITY, KIND_INSTANCE_TYPE, KIND_PLACEHOLDER,
                    KIND_SPECIAL, KIND_TUPLE, KIND_WORD)

MODE_URI = "uri"
MODE_TUPLES = "surface_form_tuple"
MODES = (MODE_URI, MODE_TUPLES)

ENTITY = "entity"
NUMBER = "number"
DATE = "date"
YEAR_KIND = "year"
MONTH = "month"
OTHER_LITERAL = "other_literal"


class PipelineError(ValueError):
    """Malformed pipeline input, reported with the offending article/line."""


class MalformedLiteralError(PipelineError):
    pass


class MainEntityAbsentError(PipelineError):
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
    mode: str = MODE_URI


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


@dataclass
class PipelineConfig:
    mode: str = MODE_URI
    target_vocab_size: int = 30000
    target_vocab_min_count: int = 1
    year_min: int = 1000
    year_max: int = 2100
    gender_predicate: str = "foaf:gender"
    gender_lexicon: Mapping[str, str] | None = None


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


def parse_ntriples(lines: Iterable[str], where: str = "<triples>") -> list[Triple]:
    out: list[Triple] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _TRIPLE_LINE_RE.match(line)
        if m is None:
            raise PipelineError(f"{where}:{lineno}: cannot parse triple line: {line!r}")
        subj, pred, obj_raw = _strip_uri(m.group(1)), _strip_uri(m.group(2)), m.group(3)
        lm = _LITERAL_RE.match(obj_raw)
        if lm is not None:
            lexical = lm.group(1).replace('\\"', '"')
            kind = classify_literal(lexical, lm.group(2))
            out.append(Triple(subj, pred, lexical, kind))
        else:
            obj = _strip_uri(obj_raw)
            kind = classify_literal(obj, None)
            if kind == OTHER_LITERAL:
                kind = ENTITY
            out.append(Triple(subj, pred, obj, kind))
    return out


def read_ntriples(path: str) -> list[Triple]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ntriples(fh, where=path)


def read_summaries(path: str) -> Iterator[AnnotatedSummary]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                anns = []
                for a in rec.get("annotations", []):
                    if isinstance(a, dict):
                        anns.append(Annotation(a["sentence_idx"], a["start"], a["end"],
                                               a["uri"], a["surface"]))
                    else:
                        anns.append(Annotation(*a))
                yield AnnotatedSummary(
                    main_entity=rec["main_entity"],
                    sentences=[list(s) for s in rec["sentences"]],
                    annotations=anns,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise PipelineError(f"{path}:{lineno}: bad summary record: {exc}") from exc


def read_tsv_map(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
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
# fallback tokenisation for synthetic corpora (inputs normally arrive
# pre-tokenised and pre-split)

_TOKEN_RE = re.compile(r"\w+(?:[-'’]\w+)*|[^\w\s]")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def split_sentences(text: str) -> list[str]:
    parts = re.split(r"(?<=[.!?])\s+", text.strip())
    return [p for p in parts if p]


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


def normalize_numeric(token: str, year_min: int = 1000, year_max: int = 2100) -> str:
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


def substitute_item(example: AlignedExample, main: str) -> AlignedExample:
    """Replace the main entity with <item> in triples and summary tokens."""
    triples, hit_triples = substitute_item_in_triples(example.triples, main)
    toks = []
    hit_text = False
    for tok in example.summary_tokens:
        if tok.uri == main:
            toks.append(SummaryToken(KIND_SPECIAL, ITEM, uri=main, surface=tok.surface))
            hit_text = True
        else:
            toks.append(tok)
    if not hit_triples and not hit_text:
        raise MainEntityAbsentError(
            f"{main}: main entity appears in neither the triples nor the text")
    return replace(example, triples=triples, summary_tokens=toks)


def augment_gender(triples: Sequence[Triple], main: str,
                   gender_lexicon: Mapping[str, str],
                   predicate: str = "foaf:gender") -> list[Triple]:
    """Append (<item>, gender predicate, gender) for a known main entity.

    Idempotent: a triple with the gender predicate already present leaves
    the set unchanged.
    """
    triples = list(triples)
    gender = gender_lexicon.get(main)
    if gender is None or any(t.predicate == predicate for t in triples):
        return triples
    triples.append(Triple(ITEM, predicate, gender, ENTITY))
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
        out = augment_gender(out, main, config.gender_lexicon, config.gender_predicate)
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


def _looks_number(token: str) -> bool:
    return _may_be_number(token) and _NUMBER_RE.fullmatch(token) is not None


def _ordered_annotations(s: AnnotatedSummary) -> dict[int, list[Annotation]]:
    """Annotations grouped by sentence, sorted, overlaps dropped (first wins)."""
    per: dict[int, list[Annotation]] = {}
    for a in sorted(s.annotations, key=lambda a: (a.sentence, a.start, a.end)):
        row = per.setdefault(a.sentence, [])
        if row and a.start < row[-1].end:
            continue
        row.append(a)
    return per


def assign_placeholders(s: AnnotatedSummary, triples: Sequence[Triple],
                        types: Mapping[str, str], target_vocab,
                        mode: str = MODE_URI,
                        year_min: int = 1000, year_max: int = 2100) -> list[SummaryToken]:
    """Rewrite a truncated summary into target tokens.

    Annotated entities: the main entity becomes <item>; an in-vocabulary
    entity passes through (membership is checked on the URI in URI mode
    and on the (uri, surface) tuple text in tuple mode); a rare entity
    matched to a triple becomes the placeholder predicate__subj__Type or
    predicate__obj__Type (first matching triple in list order wins,
    subject checked before object); an unmatched rare entity becomes its
    instance-type token, or <unk> without one. Plain words: numbers
    normalise to 0/<year>, out-of-vocabulary words become <rare>.
    """
    out: list[SummaryToken] = []
    per_sentence = _ordered_annotations(s)
    for si, sent in enumerate(s.sentences):
        pos = 0
        anns = per_sentence.get(si, [])
        ai = 0
        while pos < len(sent):
            if ai < len(anns) and anns[ai].start == pos:
                a = anns[ai]
                ai += 1
                pos = a.end
                if a.uri == s.main_entity:
                    out.append(SummaryToken(KIND_SPECIAL, ITEM, uri=a.uri, surface=a.surface))
                    continue
                key = a.uri if mode == MODE_URI else tuple_token_text(a.uri, a.surface)
                if key in target_vocab:
                    out.append(SummaryToken(KIND_ENTITY, a.uri, uri=a.uri, surface=a.surface))
                    continue
                matched = None
                for t in triples:
                    if t.subject == a.uri:
                        matched = (t.predicate, "subj")
                        break
                    if t.object == a.uri:
                        matched = (t.predicate, "obj")
                        break
                if matched is not None:
                    pred, slot = matched
                    ptype = types.get(a.uri, UNK)
                    out.append(SummaryToken(KIND_PLACEHOLDER,
                                            format_placeholder(pred, slot, ptype),
                                            uri=a.uri, surface=a.surface))
                elif a.uri in types:
                    out.append(SummaryToken(KIND_INSTANCE_TYPE, types[a.uri],
                                            uri=a.uri, surface=a.surface))
                else:
                    out.append(SummaryToken(KIND_SPECIAL, UNK, uri=a.uri, surface=a.surface))
                continue
            word = sent[pos]
            pos += 1
            if word == ZERO or word == YEAR:
                out.append(SummaryToken(KIND_SPECIAL, word))
            elif _looks_number(word):
                out.append(SummaryToken(KIND_SPECIAL,
                                        normalize_numeric(word, year_min, year_max)))
            elif word in target_vocab:
                out.append(SummaryToken(KIND_WORD, word))
            else:
                out.append(SummaryToken(KIND_SPECIAL, RARE))
    return out


def make_surface_tuples(tokens: Sequence[SummaryToken],
                        annotations: Sequence[Annotation] | None = None) -> list[SummaryToken]:
    """Turn in-vocabulary entity tokens into (URI, surface form) tuple tokens.

    Placeholders, words and specials pass through unchanged. Tokens carry
    their surfaces from annotation; the optional annotations argument can
    fill any missing ones by URI.
    """
    by_uri = {a.uri: a.surface for a in annotations or []}
    out = []
    for tok in tokens:
        if tok.kind == KIND_ENTITY:
            surface = tok.surface if tok.surface is not None else by_uri.get(tok.uri)
            if surface is None:
                raise PipelineError(f"entity token {tok.text} has no recorded surface form")
            out.append(SummaryToken(KIND_TUPLE, tuple_token_text(tok.uri, surface),
                                    uri=tok.uri, surface=surface))
        else:
            out.append(tok)
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


def _reference_tokens(s: AnnotatedSummary, year_min: int, year_max: int) -> list[str]:
    out = []
    for sent in s.sentences:
        for word in sent:
            if word != ZERO and word != YEAR and _looks_number(word):
                out.append(normalize_numeric(word, year_min, year_max))
            else:
                out.append(word)
    return out


@_gc_paused()
def build_corpus(articles: Iterable[tuple[AnnotatedSummary, Sequence[Triple]]],
                 types: Mapping[str, str],
                 config: PipelineConfig) -> tuple[list[AlignedExample], CorpusStats, dict[str, str]]:
    """Run the full rewriting pipeline over (summary, raw triples) pairs.

    Returns the aligned examples, corpus statistics (with exclusion
    counts by reason), and the per-entity most-frequent surface form
    lexicon. Identical inputs and configuration reproduce the corpus
    byte-for-byte.
    """
    if config.mode not in MODES:
        raise ValueError(f"unknown mode {config.mode!r}")
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
        prepared.append((summary, triples))

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

    # provisional frequency pass decides which tokens count as rare
    counts: Counter[str] = Counter()
    surface_counts: dict[str, Counter] = {}
    for summary, _ in bounded:
        per_sentence = _ordered_annotations(summary)
        for si, sent in enumerate(summary.sentences):
            pos = 0
            anns = per_sentence.get(si, [])
            ai = 0
            while pos < len(sent):
                if ai < len(anns) and anns[ai].start == pos:
                    a = anns[ai]
                    ai += 1
                    pos = a.end
                    surface_counts.setdefault(a.uri, Counter())[a.surface] += 1
                    if a.uri == summary.main_entity:
                        continue
                    key = (a.uri if config.mode == MODE_URI
                           else tuple_token_text(a.uri, a.surface))
                    counts[key] += 1
                    continue
                word = sent[pos]
                pos += 1
                if word in SPECIAL_TOKENS or _looks_number(word):
                    continue
                counts[word] += 1
    ranked = [(t, c) for t, c in counts.items() if c >= config.target_vocab_min_count]
    ranked.sort(key=lambda tc: (-tc[1], tc[0]))
    in_vocab = frozenset(t for t, _ in ranked[:config.target_vocab_size])

    examples: list[AlignedExample] = []
    entity_tokens: set[str] = set()
    predicate_tokens: set[str] = set()
    for summary, triples in bounded:
        toks = assign_placeholders(summary, triples, types, in_vocab,
                                   mode=config.mode,
                                   year_min=config.year_min, year_max=config.year_max)
        if config.mode == MODE_TUPLES:
            toks = make_surface_tuples(toks, summary.annotations)
        toks = ([SummaryToken(KIND_SPECIAL, START)] + toks
                + [SummaryToken(KIND_SPECIAL, END)])
        examples.append(AlignedExample(
            main_entity=summary.main_entity,
            triples=triples,
            summary_tokens=toks,
            reference_tokens=_reference_tokens(summary, config.year_min, config.year_max),
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
    """Pair each summary with its allocated triples from a global dump."""
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


def write_corpus(path: str, examples: Sequence[AlignedExample]) -> None:
    with atomic_open(path) as fh:
        for ex in examples:
            fh.write(json.dumps({
                "main_entity": ex.main_entity,
                "mode": ex.mode,
                "triples": [_triple_to_json(t) for t in ex.triples],
                "summary_tokens": [_token_to_json(t) for t in ex.summary_tokens],
                "reference_tokens": ex.reference_tokens,
            }, ensure_ascii=False, sort_keys=True) + "\n")


@_gc_paused()
def read_corpus(path: str) -> list[AlignedExample]:
    out: list[AlignedExample] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                triples = [Triple(t["s"], t["p"], t["o"], t.get("kind", ENTITY),
                                  t.get("s_type"), t.get("o_type"))
                           for t in rec["triples"]]
                toks = [SummaryToken(t["kind"], t["text"], t.get("uri"), t.get("surface"))
                        for t in rec["summary_tokens"]]
                out.append(AlignedExample(rec["main_entity"], triples, toks,
                                          rec["reference_tokens"], rec.get("mode", MODE_URI)))
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
