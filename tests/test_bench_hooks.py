"""The benchmark's tracer wraps functions of the program by name. A rename
here must fail this test, not only a traced benchmark run."""

import importlib.util
import os

from triples2text import nn

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

