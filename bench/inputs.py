"""Benchmark inputs: synthetic corpora past the 480-name cap of demo_corpus.

``write_inputs`` concatenates ``demo_corpus`` shards made with different
seeds into one raw corpus (N-Triples dump, annotated summaries and the
two lexicons). Shard 0 is the demo corpus exactly as ``demo_corpus``
writes it; in every later shard k the person and work URIs, which are
the only subjects of the dump, get the suffix ``_s<k>``, so no two
shards share a main entity. Cities, countries and occupations stay
shared, as they would in a real dump. The demo's own output for a given
seed is left untouched.
"""

from __future__ import annotations

import json
import os

from triples2text import cli, demo, pipeline

SHARD_SIZE = 480  # the demo's distinct-name cap


def shard_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _rename_line(line: str, rename: dict[str, str]) -> str:
    subject, predicate, rest = line.split(" ", 2)
    if not rest.startswith('"'):  # an entity object, not a literal
        obj, tail = rest.split(" ", 1)
        rest = f"{rename.get(obj, obj)} {tail}"
    return f"{rename.get(subject, subject)} {predicate} {rest}"


def write_inputs(seed: int, n_shards: int, out_dir: str,
                 shard_size: int = SHARD_SIZE) -> dict:
    """Write the raw corpus of ``n_shards * shard_size`` articles under out_dir.

    Returns the paths (``triples``, ``summaries``, ``instance_types``,
    ``genders``), the article count and the demo's pipeline settings
    (``config``, parsed from the ``demo.cfg`` it writes).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    shard_dir = os.path.join(out_dir, "shard")
    triples: list[str] = []
    summaries: list[str] = []
    types: dict[str, str] = {}
    genders: dict[str, str] = {}
    config: dict[str, str] = {}
    for k in range(n_shards):
        paths = demo.demo_corpus(shard_seed(seed, k), shard_size, shard_dir)
        if k == 0:
            config = cli.load_config(paths["config"])
        with open(paths["triples"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        subjects = {line.split(" ", 1)[0] for line in lines} if k else set()
        rename = {uri: f"{uri}_s{k}" for uri in subjects}
        triples.extend(_rename_line(line, rename) for line in lines)
        with open(paths["summaries"], encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                rec["main_entity"] = rename.get(rec["main_entity"], rec["main_entity"])
                for ann in rec["annotations"]:
                    ann["uri"] = rename.get(ann["uri"], ann["uri"])
                summaries.append(json.dumps(rec, ensure_ascii=False))
        for uri, tag in pipeline.read_tsv_map(paths["instance_types"]).items():
            types[rename.get(uri, uri)] = tag
        for uri, tag in pipeline.read_tsv_map(paths["genders"]).items():
            genders[rename.get(uri, uri)] = tag

    out = {
        "triples": os.path.join(out_dir, "triples.nt"),
        "summaries": os.path.join(out_dir, "summaries.jsonl"),
        "instance_types": os.path.join(out_dir, "instance_types.tsv"),
        "genders": os.path.join(out_dir, "genders.tsv"),
    }
    with open(out["triples"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(triples) + "\n")
    with open(out["summaries"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(summaries) + "\n")
    for key, table in (("instance_types", types), ("genders", genders)):
        with open(out[key], "w", encoding="utf-8") as fh:
            fh.writelines(f"{uri}\t{table[uri]}\n" for uri in sorted(table))
    return {"paths": out, "articles": len(summaries), "config": config}
