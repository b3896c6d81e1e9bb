"""Atomic file writes shared by the corpus, vocabulary and checkpoint writers."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator


class OutputError(OSError):
    """A path cannot be written. The command line reads any other OSError as an input's."""


@contextmanager
def writing(path: str) -> Iterator[None]:
    """Raise an OSError of the block as an OutputError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
