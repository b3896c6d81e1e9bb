"""UTF-8 text reads that name the file on a bad byte, and the atomic file
writes shared by the corpus, vocabulary and checkpoint writers."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator


class OutputError(OSError):
    """A path cannot be written. The command line reads any other OSError as an input's."""


@contextmanager
def reading(path: str) -> Iterator[IO[str]]:
    """``path`` opened as UTF-8 text; a byte that does not decode, wherever
    the block reads it, raises a ValueError naming ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


@contextmanager
def writing(path: str) -> Iterator[None]:
    """Raise an OSError of the block as an OutputError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def check_writable(*paths: str | None) -> None:
    """Raise an OutputError naming the first of ``paths`` (None skipped)
    that is a directory or lies in no writable directory. A command that
    writes several files checks them all before its first write, so a bad
    later path leaves no earlier output behind."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path) or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise OutputError(f"cannot write {path}: a directory, or in no writable directory")


@contextmanager
def atomic_open(path: str, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside ``path`` for writing; when the block
    ends without an exception it replaces ``path``, otherwise it is
    removed. A write that fails part-way leaves any previous file at
    ``path`` intact. Nothing is fsynced, so this guards failed or
    interrupted writes, not power loss."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with writing(path):
            with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
                yield fh
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
