"""Each config field owns its range: the config refuses every value the
command line refuses for the field's flag, and the flag and the field agree
at the edges of each range, because both read the field's declaration."""

import argparse
import dataclasses
import math

import pytest

from triples2text import cli
from triples2text.model import ModelConfig
from triples2text.pipeline import PipelineConfig
from triples2text.training import TrainConfig

NAN, INF = math.nan, math.inf

# (config class, field, values): each value is one the command line
# refuses for the field's flag or config key (tests/test_cli.py), as the
# value it denotes, or the text itself where the text does not parse;
# ModelConfig's are the corrupt checkpoint headers of test_cli.py.
REFUSED = [
    (TrainConfig, "m", [0, -1]),
    (TrainConfig, "e_max", [0]),
    (TrainConfig, "batch_size", [0, 1]),
    (TrainConfig, "epochs", [0, -1, "abc"]),
    (TrainConfig, "learning_rate", [0.0, -1.0, NAN, INF]),
    (TrainConfig, "decay_factor", [0.0, 1.0, 1.5, NAN]),
    (TrainConfig, "decay_start_epoch", [-5]),
    (TrainConfig, "patience", [-1]),
    (TrainConfig, "l2", [-1.0, INF]),
    (TrainConfig, "clip_norm", [NAN]),
    (TrainConfig, "max_timestep", [0, -1]),
    (TrainConfig, "seed", [-1]),
    (TrainConfig, "cell_kind", ["xyz"]),
    (ModelConfig, "m", ["16", 0, True]),
    (ModelConfig, "e_max", [-1, 8.0]),
    (ModelConfig, "cell_kind", ["gsu"]),
    (ModelConfig, "mode", ["words"]),
    (ModelConfig, "bound_lower", [None]),
    (ModelConfig, "bound_upper", ["7"]),
    (PipelineConfig, "mode", ["words"]),
    (PipelineConfig, "target_vocab_size", [-3, 0]),
    (PipelineConfig, "target_vocab_min_count", [-5, "x"]),
    (PipelineConfig, "year_min", ["abc"]),
    (PipelineConfig, "year_max", [1.5]),
]


@pytest.mark.parametrize("cls, name, value", [
    (cls, name, value) for cls, name, values in REFUSED for value in values],
    ids=lambda v: getattr(v, "__name__", repr(v)))
def test_config_refuses_what_the_command_line_refuses(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {value!r}$"):
        cls(**{name: value})


@pytest.mark.parametrize("values", [{"year_min": 3000}, {"year_max": 999},
                                    {"year_min": 2001, "year_max": 2000}])
def test_pipeline_config_refuses_year_min_above_year_max(values):
    with pytest.raises(ValueError, match="^year_min must be at most year_max"):
        PipelineConfig(**values)


def test_model_config_refuses_bound_lower_above_bound_upper():
    # a model whose bounds are [12, 8] would refuse every input it is given
    for cls in (ModelConfig, TrainConfig):
        with pytest.raises(ValueError, match=r"^bound_lower must be at most bound_upper \(8\), "
                                             r"got 12$"):
            cls(bound_lower=12, bound_upper=8)
        assert cls(bound_lower=8, bound_upper=8).bound_upper == 8
        assert cls(bound_lower=12, bound_upper=None).bound_lower == 12


@pytest.mark.parametrize("year_min, exit_code", [(2100, 2), (2101, 1)])
def test_year_range_flags_and_config_agree_at_the_edge(tmp_path, year_min, exit_code, capsys):
    # the default year_max is 2100; a year range the config refuses is a
    # usage error, one it takes fails later on the missing inputs
    assert builds(PipelineConfig, "year_min", year_min) == (exit_code == 2)
    missing = str(tmp_path / "missing")
    assert cli.main(["build-corpus", "--triples", missing, "--summaries", missing,
                     "--out", missing, f"--year-min={year_min}"]) == exit_code
    assert ("--year-min" in capsys.readouterr().err) == (exit_code == 1)


def test_configs_are_frozen():
    for config in (ModelConfig(), TrainConfig(), PipelineConfig()):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.mode = "uri"


def flag_check(command, flag):
    """The check argparse runs on ``flag`` of ``command``."""
    parser = cli.build_parser()
    commands, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    action, = [a for a in commands.choices[command]._actions if flag in a.option_strings]
    return action.type


def builds(cls, name, value):
    try:
        cls(**{name: value})
    except ValueError as exc:
        assert str(exc).startswith(f"{name} must be"), exc
        return False
    return True


TINY, HUGE = 5e-324, 1.7e308

# (command, flag, config class, field, [(text, value it denotes)]): the
# values on both sides of each edge of the field's range
EDGES = [
    *[("train", flag, TrainConfig, name, [(str(low - 1), low - 1), (str(low), low)])
      for flag, name, low in (("--m", "m", 1), ("--e-max", "e_max", 1),
                              ("--batch-size", "batch_size", 2), ("--epochs", "epochs", 1),
                              ("--max-timestep", "max_timestep", 1),
                              ("--decay-start", "decay_start_epoch", 0),
                              ("--seed", "seed", 0), ("--patience", "patience", 0))],
    ("train", "--lr", TrainConfig, "learning_rate",
     [("0", 0.0), (str(TINY), TINY), (str(HUGE), HUGE), ("inf", INF), ("nan", NAN)]),
    ("train", "--decay-factor", TrainConfig, "decay_factor",
     [("0", 0.0), (str(TINY), TINY), ("0.9999999999999999", 0.9999999999999999),
      ("1", 1.0), ("nan", NAN)]),
    ("train", "--l2", TrainConfig, "l2",
     [(str(-TINY), -TINY), ("0", 0.0), (str(HUGE), HUGE), ("inf", INF), ("nan", NAN)]),
    # 0 or below as text turns clipping off: the value None
    ("train", "--clip-norm", TrainConfig, "clip_norm",
     [("-1", None), ("0", None), (str(TINY), TINY), ("inf", INF), ("nan", NAN)]),
    ("train", "--cell", TrainConfig, "cell_kind",
     [("gru", "gru"), ("lstm", "lstm"), ("GRU", "GRU"), ("xyz", "xyz")]),
    *[("gradcheck", flag, ModelConfig, name, [("0", 0), ("1", 1)])
      for flag, name in (("--m", "m"), ("--e-max", "e_max"))],
    ("gradcheck", "--cell", ModelConfig, "cell_kind", [("gru", "gru"), ("gsu", "gsu")]),
    ("build-corpus", "--mode", PipelineConfig, "mode",
     [("uri", "uri"), ("surface_form_tuple", "surface_form_tuple"), ("words", "words")]),
    *[(command, flag, PipelineConfig, name, [("0", 0), ("1", 1)])
      for command, flag, name in (
          ("build-corpus", "--target-vocab-size", "target_vocab_size"),
          ("build-corpus", "--target-vocab-min-count", "target_vocab_min_count"),
          ("build-vocab", "--target-max-size", "target_vocab_size"),
          ("build-vocab", "--target-min-count", "target_vocab_min_count"))],
    # any integer, within the other end's default (1000 to 2100)
    *[("build-corpus", flag, PipelineConfig, name, [(str(v), v), ("1.5", 1.5), ("abc", "abc")])
      for flag, name, v in (("--year-min", "year_min", -5), ("--year-max", "year_max", 2500))],
]


@pytest.mark.parametrize("command, flag, cls, name, cases", EDGES,
                         ids=[f"{e[0]}{e[1]}" for e in EDGES])
def test_flag_and_field_agree_at_each_edge(command, flag, cls, name, cases):
    check = flag_check(command, flag)
    verdicts = []
    for text, value in cases:
        try:
            parsed, flag_ok = check(text), True
        except cli.UsageError as exc:
            assert str(exc).startswith(f"{flag} must be"), exc
            parsed, flag_ok = None, False
        field_ok = builds(cls, name, value)
        assert flag_ok == field_ok, (text, value)
        if flag_ok:
            assert parsed == value and type(parsed) is type(value), (text, parsed, value)
        verdicts.append(flag_ok)
    assert True in verdicts and False in verdicts  # both sides of an edge
