"""Benchmark self-tests: smoke-sized runs of every workload, the tracer's
install/restore discipline, the input generator, and the exit codes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from triples2text import demo, nn, pipeline  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(capsys, workload, trace, profile=workloads.SMOKE, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace)], profile=profile)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_named_metric(capsys, workload, trace):
    code, report, result = _run(capsys, workload, trace)
    assert code == 0, report["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert report["named"] and report["environment"]["nproc"] >= 1
        w = workloads.WORKLOADS[workload]
        assert len(report["setup_s_each"]) == \
            w.setup_repeats + (report["rounds"] if w.setup_each_round else 0)


def _targets():
    return [(owner, attr) for owner, attr, _, _ in tracing._targets(tracing.Tracer())] \
        + [(nn.Tape, "record")]


def test_wrappers_absent_untraced_and_restored_after_traced(capsys, monkeypatch):
    originals = {key: inspect.getattr_static(*key) for key in _targets()}
    seen = []
    train_round = workloads.Train.round

    def spying_round(self):
        seen.append(all(inspect.getattr_static(*key) is raw for key, raw in originals.items()))
        return train_round(self)

    monkeypatch.setattr(workloads.Train, "round", spying_round)
    code, _, _ = _run(capsys, "train-desk", 0)
    assert code == 0 and seen and all(seen)  # untraced: the program's own functions

    seen.clear()
    code, _, result = _run(capsys, "train-desk", 1)
    assert code == 0 and False in seen  # the traced rounds ran under wrappers
    assert result["metrics"]["nn.tape_ops"]["value"] > 0
    assert all(inspect.getattr_static(*key) is raw for key, raw in originals.items())


def test_failed_output_check_exits_nonzero(capsys):
    code, report, result = _run(capsys, "generate", 0,
                                replace(workloads.SMOKE, bleu4_floor=101.0))
    assert code == 1 and result["correct"] is False
    assert any("BLEU-4" in f for f in report["failures"])


def test_inputs_pass_the_name_cap_and_build_without_exclusions(tmp_path):
    info = inputs.write_inputs(5, 3, str(tmp_path / "a"), shard_size=40)
    again = inputs.write_inputs(5, 3, str(tmp_path / "b"), shard_size=40)
    paths = info["paths"]
    for key, path in paths.items():
        with open(path, "rb") as fa, open(again["paths"][key], "rb") as fb:
            assert fa.read() == fb.read(), key
    # shard 0 is the demo corpus itself
    demo_paths = demo.demo_corpus(inputs.shard_seed(5, 0), 40, str(tmp_path / "demo"))
    with open(demo_paths["summaries"], encoding="utf-8") as fh:
        first_shard = fh.read().splitlines()
    with open(paths["summaries"], encoding="utf-8") as fh:
        summaries = fh.read().splitlines()
    assert [json.loads(s) for s in summaries[:40]] == [json.loads(s) for s in first_shard]
    mains = {json.loads(s)["main_entity"] for s in summaries}
    assert info["articles"] == 120 and len(mains) == 120

    types = pipeline.read_tsv_map(paths["instance_types"])
    genders = pipeline.read_tsv_map(paths["genders"])
    for mode in (pipeline.MODE_URI, pipeline.MODE_TUPLES):
        cfg = workloads.pipeline_config(info["config"], mode, genders)
        articles = pipeline.read_articles(paths["triples"], paths["summaries"])
        examples, stats, _ = pipeline.build_corpus(articles, types, cfg)
        assert len(examples) == 120 and stats.exclusions == {}, mode


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "corpus",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0 and out.stdout == ""


def test_harrell_davis_quantiles_are_smooth_and_match_percentiles():
    samples = np.random.default_rng(0).normal(size=2001)
    for p in (0.5, 0.9):
        assert workloads.hd_quantile(samples, p) == pytest.approx(np.percentile(samples, 100 * p),
                                                                  abs=0.01)
    assert workloads.hd_quantile([7.0], 0.9) == 7.0
    # one operation of eight moving from the fast to the slow level moves
    # the estimate part of the way, not all of it
    fast, slow = [1.0] * 4 + [2.0] * 4, [1.0] * 3 + [2.0] * 5
    assert 1.0 < workloads.hd_quantile(fast, 0.5) < workloads.hd_quantile(slow, 0.5) < 2.0
    # Lentz's continued fraction against the closed form I_x(2, 1) = x^2
    assert workloads._betainc(2.0, 1.0, 0.3) == pytest.approx(0.09)
