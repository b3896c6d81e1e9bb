"""Source and target dictionaries with frequency-threshold construction.

Both dictionaries start with the nine special tokens at fixed smallest
indices. The target dictionary keeps the most frequent words and entity
tokens up to a size cap, plus every placeholder and instance-type token
the rewriting stage emitted (they must stay encodable). The source
dictionary is shared by subjects, predicates and objects, keeps tokens
above an occurrence threshold, and resolves each rare entity to its
instance-type token when that type is frequent enough, to ``<resource>``
when it is not, and to ``<unk>`` when the entity has no known type.

File format: a single header line carrying the version and the special
token list, then one ``token<TAB>count`` line per token in index order.
Source dictionaries write a JSON sidecar (``<path>.meta.json``) with the
rare-entity fallback map, the tokens seen in entity position and the
SHA-256 of its token-list file. It is written first, and ``load`` refuses
it beside another list; a sidecar without the hash still loads.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .fileio import atomic_open
from .tokens import RARE, RESOURCE, SPECIAL_TOKENS, UNK

_FORMAT = "triples2text-vocab"
_VERSION = "1"

KIND_WORD = "word"
KIND_ENTITY = "entity_uri"
KIND_TUPLE = "surface_tuple"
KIND_PLACEHOLDER = "placeholder"
KIND_INSTANCE_TYPE = "instance_type"
KIND_SPECIAL = "special"

META_SUFFIX = ".meta.json"  # a source dictionary's sidecar is <path> + META_SUFFIX
SOURCE_MIN_COUNT = 20  # occurrences a source token needs to keep its own index

_STRUCTURAL_KINDS = (KIND_PLACEHOLDER, KIND_INSTANCE_TYPE)


@dataclass
class Vocabulary:
    kind: str  # "target" or "source"
    tokens: list[str] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)
    frequencies: dict[str, int] = field(default_factory=dict)
    fallbacks: dict[str, str] = field(default_factory=dict)
    entity_tokens: set[str] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def encode(self, token: str) -> int:
        """Index of token; unknowns fall back per the dictionary kind.

        Target: unknown tokens map to <rare>. Source: a known rare entity
        maps to its recorded replacement (instance type, <resource> or
        <unk>); anything never seen maps to <unk>.
        """
        idx = self.index.get(token)
        if idx is not None:
            return idx
        if self.kind == "source":
            repl = self.fallbacks.get(token, UNK)
            return self.index[repl]
        return self.index[RARE]

    def decode(self, idx: int) -> str:
        if not 0 <= idx < len(self.tokens):
            raise ValueError(f"index {idx} outside [0, {len(self.tokens)})")
        return self.tokens[idx]

    # -- construction -------------------------------------------------

    @classmethod
    def _with_specials(cls, kind: str) -> "Vocabulary":
        v = cls(kind=kind)
        for tok in SPECIAL_TOKENS:
            v.index[tok] = len(v.tokens)
            v.tokens.append(tok)
            v.frequencies[tok] = 0
        return v

    def _append(self, token: str, count: int) -> None:
        if "\t" in token or "\n" in token:
            raise ValueError(f"token contains tab/newline: {token!r}")
        if token in self.index:
            return
        self.index[token] = len(self.tokens)
        self.tokens.append(token)
        self.frequencies[token] = count

    # -- serialisation ------------------------------------------------

    def to_bytes(self, stamp: bool = False) -> tuple[bytes, bytes | None]:
        """File bytes; ``stamp`` puts the list's SHA-256 in the meta, as ``save`` does."""
        lines = ["\t".join([_FORMAT, _VERSION, self.kind, ",".join(SPECIAL_TOKENS)])]
        lines += [f"{tok}\t{self.frequencies.get(tok, 0)}" for tok in self.tokens]
        main = ("\n".join(lines) + "\n").encode("utf-8")
        meta = None
        if self.kind == "source":
            fields = {"fallbacks": self.fallbacks, "entity_tokens": sorted(self.entity_tokens)}
            if stamp:
                fields["list_sha256"] = hashlib.sha256(main).hexdigest()
            meta = json.dumps(fields, sort_keys=True).encode("utf-8")
        return main, meta

    def content_hash(self) -> str:
        main, meta = self.to_bytes()
        h = hashlib.sha256(main)
        if meta is not None:
            h.update(b"\0")
            h.update(meta)
        return h.hexdigest()

    def save(self, path: str) -> None:
        main, meta = self.to_bytes(stamp=True)
        if meta is not None:
            with atomic_open(path + META_SUFFIX, "wb") as fh:
                fh.write(meta)
        with atomic_open(path, "wb") as fh:
            fh.write(main)

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        """The dictionary ``save`` wrote to ``path``; a malformed list or
        sidecar raises ValueError naming its file."""
        with open(path, "rb") as fh:
            main = fh.read()
        try:
            lines = main.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
        if not lines:
            raise ValueError(f"{path}: empty vocabulary file")
        head = lines[0].split("\t")
        if len(head) != 4 or head[0] != _FORMAT:
            raise ValueError(f"{path}: not a vocabulary file")
        if head[1] != _VERSION:
            raise ValueError(f"{path}: unsupported vocabulary version {head[1]}")
        v = cls(kind=head[2])
        expected_specials = tuple(head[3].split(","))
        if expected_specials != SPECIAL_TOKENS:
            raise ValueError(f"{path}: special-token list mismatch")
        for lineno, ln in enumerate(lines[1:], start=2):
            if not ln:
                continue
            try:
                tok, count = ln.rsplit("\t", 1)
                v._append(tok, int(count))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad vocabulary line: {exc}") from None
        for tok in SPECIAL_TOKENS:
            if v.index.get(tok, -1) != SPECIAL_TOKENS.index(tok):
                raise ValueError(f"{path}: special token {tok} not at its fixed index")
        meta_path = path + META_SUFFIX
        if v.kind == "source" and os.path.exists(meta_path):
            try:
                with open(meta_path, "rb") as fh:
                    meta = json.loads(fh.read())  # a byte that is not UTF-8 is a ValueError
                fallbacks = meta.get("fallbacks", {}) if isinstance(meta, dict) else None
                entities = meta.get("entity_tokens", []) if isinstance(meta, dict) else None
                if not (isinstance(fallbacks, dict) and {*map(type, fallbacks.values())} <= {str}
                        and isinstance(entities, list) and {*map(type, entities)} <= {str}):
                    raise ValueError("expected an object whose fallbacks map strings to strings "
                                     "and whose entity_tokens are a list of strings")
            except ValueError as exc:
                raise ValueError(f"{meta_path}: bad vocabulary sidecar: {exc}") from None
            if meta.get("list_sha256") not in (None, hashlib.sha256(main).hexdigest()):
                raise ValueError(f"{meta_path} was written for another token list than {path}")
            if not set(fallbacks.values()) <= v.index.keys():
                raise ValueError(f"{meta_path}: a fallback names a token not in {path}")
            v.fallbacks, v.entity_tokens = fallbacks, set(entities)
        return v


def most_frequent(pairs: Iterable[tuple[str, int]], size: int, min_count: int) -> list[str]:
    """The tokens of ``(token, count)`` pairs counted at least ``min_count``
    times, most frequent first with count ties broken lexicographically,
    cut after the first ``size``."""
    ranked = sorted((tc for tc in pairs if tc[1] >= min_count), key=lambda tc: (-tc[1], tc[0]))
    return [t for t, _ in ranked[:size]]


def build_target_vocab(corpus: Iterable, max_size: int, min_count: int) -> Vocabulary:
    """Target dictionary over a rewritten corpus.

    Words and entity tokens (URIs or surface-form tuples) compete for the
    ``max_size`` most frequent slots; count ties break lexicographically.
    Placeholder and instance-type tokens are always included on top of the
    cap. All non-special tokens are laid out in frequency order.
    """
    if max_size <= 0:
        raise ValueError("max_size must be positive")
    counts: Counter[str] = Counter()
    structural: set[str] = set()
    special_counts: Counter[str] = Counter()
    for example in corpus:
        for tok in example.summary_tokens:
            if tok.kind == KIND_SPECIAL:
                special_counts[tok.text] += 1
            elif tok.kind in _STRUCTURAL_KINDS:
                structural.add(tok.text)
                counts[tok.text] += 1
            else:
                counts[tok.text] += 1
    members = structural.union(most_frequent(
        ((t, c) for t, c in counts.items() if t not in structural), max_size, min_count))
    v = Vocabulary._with_specials("target")
    for tok in special_counts:
        if tok in v.frequencies:
            v.frequencies[tok] = special_counts[tok]
    for tok in sorted(members, key=lambda t: (-counts[t], t)):
        v._append(tok, counts[tok])
    return v


def build_source_vocab(corpus: Iterable, min_count: int) -> Vocabulary:
    """Shared subject/predicate/object dictionary with rare-token fallbacks.

    Tokens occurring at least ``min_count`` times are kept. Each rare
    entity resolves to its most frequent instance-type tag; a type whose
    induced occurrence total also stays under the threshold resolves to
    <resource> instead, and untyped rare entities to <unk>. Triples whose
    predicate is out of vocabulary carry no fallback: they are the ones
    marked for discard at encoding time.
    """
    counts: Counter[str] = Counter()
    entity_roles: set[str] = set()
    predicate_roles: set[str] = set()
    type_of: dict[str, Counter] = {}
    for example in corpus:
        for t in example.triples:
            counts[t.subject] += 1
            counts[t.predicate] += 1
            counts[t.object] += 1
            entity_roles.add(t.subject)
            entity_roles.add(t.object)
            predicate_roles.add(t.predicate)
            if t.subject_type:
                type_of.setdefault(t.subject, Counter())[t.subject_type] += 1
            if t.object_type:
                type_of.setdefault(t.object, Counter())[t.object_type] += 1

    kept = {t: c for t, c in counts.items()
            if c >= min_count and t not in SPECIAL_TOKENS}

    # resolve rare entities: induced counts decide which type tokens join
    rare_entities = [t for t in counts
                     if t not in kept and t not in SPECIAL_TOKENS and t in entity_roles
                     and t not in predicate_roles]
    induced: Counter[str] = Counter()
    picked_type: dict[str, str | None] = {}
    for ent in rare_entities:
        tags = type_of.get(ent)
        if not tags:
            picked_type[ent] = None
            continue
        tag = min(tags.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        picked_type[ent] = tag
        induced[tag] += counts[ent]

    type_members = {tag for tag, c in induced.items()
                    if c >= min_count or tag in kept}
    freq: dict[str, int] = dict(kept)
    for tag in type_members:
        freq[tag] = freq.get(tag, 0) + induced.get(tag, 0)

    v = Vocabulary._with_specials("source")
    for t in SPECIAL_TOKENS:
        if counts.get(t):
            v.frequencies[t] = counts[t]
    for tok in sorted(freq, key=lambda t: (-freq[t], t)):
        v._append(tok, freq[tok])

    for ent in rare_entities:
        tag = picked_type[ent]
        if tag is None:
            v.fallbacks[ent] = UNK
        elif tag in type_members:
            v.fallbacks[ent] = tag
        else:
            v.fallbacks[ent] = RESOURCE

    v.entity_tokens = {t for t in v.tokens if t in entity_roles}
    v.entity_tokens |= type_members
    return v
