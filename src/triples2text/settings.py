"""Config fields that declare their range next to their default.

The configs (ModelConfig, TrainConfig, PipelineConfig) are frozen Settings
whose fields are made by :func:`setting`: a config is checked field by field
when it is built, and the command line parses and checks the flag or config
value that sets a field with that field's Range.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from typing import Any, Callable, NamedTuple


class Range(NamedTuple):
    ok: Callable[[Any], bool]  # the value is in range (NaN fails every comparison)
    expected: str  # what ``ok`` accepts, for messages
    parse: Callable[[str], Any] | None = None  # the text of a flag or config value
    choices: tuple[str, ...] = ()  # every value in range, where they are few


def _is_int(value) -> bool:
    return type(value) is int  # JSON true/false are bools, not ints


def at_least(low: int) -> Range:
    return Range(lambda v: _is_int(v) and v >= low, f"an integer of at least {low}", int)


def number(ok: Callable[[float], bool], expected: str) -> Range:
    return Range(lambda v: type(v) in (int, float) and ok(v), expected, float)


def one_of(choices: tuple[str, ...]) -> Range:
    return Range(lambda v: v in choices, f"one of {', '.join(choices)}", str, choices)


def or_none(rng: Range) -> Range:
    return rng._replace(ok=lambda v: v is None or rng.ok(v), expected=f"{rng.expected} or None")


INTEGER = Range(_is_int, "an integer", int)
POSITIVE = number(lambda v: 0 < v < math.inf, "a finite positive number")
FRACTION = number(lambda v: 0 < v < 1, "a number in (0, 1)")


def setting(default, rng: Range):
    """A dataclass field with its default and its range."""
    return field(default=default, metadata={"range": rng})


def range_of(cls, name: str) -> Range:
    return cls.__dataclass_fields__[name].metadata["range"]


class Settings:
    """Base of the config dataclasses: builds only configs in range."""

    def __post_init__(self):
        for f in fields(self):
            value, rng = getattr(self, f.name), f.metadata["range"]
            if not rng.ok(value):
                raise ValueError(f"{f.name} must be {rng.expected}, got {value!r}")
