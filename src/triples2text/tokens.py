"""Special tokens and the grammar of composite target tokens.

The nine special tokens get the smallest vocabulary indices, in the order
of SPECIAL_TOKENS, for both the source and the target dictionary.

Composite target tokens:
  * property-type placeholder: ``<predicate>__subj__<type>`` or
    ``<predicate>__obj__<type>`` (a rare text entity matched to the
    subject or object of an input triple).
  * surface form tuple: ``(<uri>, <surface>)`` pairing an entity with one
    of its verbalisations. URIs contain no whitespace, so the first
    ", " separates the two parts unambiguously.
"""

from __future__ import annotations

from functools import lru_cache

PAD = "<pad>"
START = "<start>"
END = "<end>"
ITEM = "<item>"
RARE = "<rare>"
UNK = "<unk>"
YEAR = "<year>"
ZERO = "0"
RESOURCE = "<resource>"

SPECIAL_TOKENS = (PAD, START, END, ITEM, RARE, UNK, YEAR, ZERO, RESOURCE)

SUBJ = "subj"
OBJ = "obj"
_SUBJ_MARK = "__subj__"
_OBJ_MARK = "__obj__"


def format_placeholder(predicate: str, slot: str, type_token: str) -> str:
    if slot not in (SUBJ, OBJ):
        raise ValueError(f"placeholder slot must be 'subj' or 'obj', got {slot!r}")
    return f"{predicate}__{slot}__{type_token}"


@lru_cache(maxsize=1 << 16)  # post-processing meets the same target tokens again and again
def parse_placeholder(token: str) -> tuple[str, str, str] | None:
    """Split a placeholder into (predicate, slot, type); None if not one.

    The leftmost marker wins, so the split is unique whenever predicate
    and type themselves contain no marker.
    """
    i_subj = token.find(_SUBJ_MARK)
    i_obj = token.find(_OBJ_MARK)
    candidates = [(i, SUBJ, _SUBJ_MARK) for i in (i_subj,) if i > 0]
    candidates += [(i, OBJ, _OBJ_MARK) for i in (i_obj,) if i > 0]
    if not candidates:
        return None
    i, slot, mark = min(candidates)
    predicate = token[:i]
    type_token = token[i + len(mark):]
    if not type_token:
        return None
    return predicate, slot, type_token


def tuple_token_text(uri: str, surface: str) -> str:
    return f"({uri}, {surface})"


@lru_cache(maxsize=1 << 16)
def parse_tuple_token(text: str) -> tuple[str, str] | None:
    if not (text.startswith("(") and text.endswith(")")):
        return None
    body = text[1:-1]
    sep = body.find(", ")
    if sep <= 0:
        return None
    return body[:sep], body[sep + 2:]
