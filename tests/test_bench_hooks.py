"""The benchmark's tracer wraps functions of the program by name and reads
some of their arguments by position. A rename or a shifted parameter here
must fail this test, not only a traced benchmark run."""

import importlib.util
import inspect
import os

import pytest

from triples2text import nn
from triples2text.generation import ModelScorer
from triples2text.model import Seq2Seq

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = load_tracing()
    targets = tracing._targets(tracing.Tracer())
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in [*targets, (nn.Tape, "record", None, None)]
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced functions not found: {missing}"


@pytest.mark.parametrize("function, positions", [
    (Seq2Seq.batch_loss, {"tape": 1, "batch": 2, "max_timestep": 4}),
    (Seq2Seq.save, {"path": 1}),
    (ModelScorer.step, {"states": 1, "tokens": 2}),
], ids=["Seq2Seq.batch_loss", "Seq2Seq.save", "ModelScorer.step"])
def test_traced_argument_positions(function, positions):
    # the tracer reads these arguments by position (self at 0); a shifted
    # parameter would feed it another argument and corrupt its figures
    names = list(inspect.signature(function).parameters)
    assert {name: names.index(name) for name in positions if name in names} == positions
