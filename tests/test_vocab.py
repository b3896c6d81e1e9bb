import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triples2text.pipeline import AlignedExample, SummaryToken, Triple
from triples2text import tokens as tk
from triples2text.vocab import (KIND_ENTITY, KIND_PLACEHOLDER, KIND_WORD, Vocabulary,
                                build_source_vocab, build_target_vocab)


def example_from_tokens(token_specs, triples=()):
    toks = [SummaryToken(kind, text) for kind, text in token_specs]
    return AlignedExample("dbr:Main", list(triples), toks, [t for _, t in token_specs], "uri")


def words(*texts):
    return [(KIND_WORD, t) for t in texts]


def test_specials_have_fixed_smallest_indices():
    v = build_target_vocab([], max_size=10, min_count=1)
    assert v.tokens[:len(tk.SPECIAL_TOKENS)] == list(tk.SPECIAL_TOKENS)
    assert v.index[tk.PAD] == 0


def test_target_vocab_empty_corpus_is_specials_only():
    v = build_target_vocab([], max_size=10, min_count=1)
    assert len(v) == len(tk.SPECIAL_TOKENS)


def test_target_vocab_max_size_cut_and_order():
    ex = example_from_tokens(words(*(["a"] * 5 + ["b"] * 2 + ["c"])))
    v = build_target_vocab([ex], max_size=3, min_count=1)
    non_special = v.tokens[len(tk.SPECIAL_TOKENS):]
    assert non_special == ["a", "b", "c"]
    v2 = build_target_vocab([ex], max_size=2, min_count=1)
    assert v2.tokens[len(tk.SPECIAL_TOKENS):] == ["a", "b"]


def test_target_vocab_ties_break_lexicographically():
    ex = example_from_tokens(words("zz", "aa", "mm"))
    v = build_target_vocab([ex], max_size=2, min_count=1)
    assert v.tokens[len(tk.SPECIAL_TOKENS):] == ["aa", "mm"]


def test_target_vocab_placeholders_always_included():
    specs = words(*(["w"] * 9)) + [(KIND_PLACEHOLDER, "p__subj__T")]
    v = build_target_vocab([example_from_tokens(specs)], max_size=1, min_count=1)
    assert "p__subj__T" in v
    assert "w" in v


def test_frequency_monotonicity():
    specs = (words(*(["x"] * 7 + ["y"] * 3 + ["z"]))
             + [(KIND_PLACEHOLDER, "p__obj__T")] * 5
             + [(KIND_ENTITY, "dbr:E")] * 4)
    v = build_target_vocab([example_from_tokens(specs)], max_size=100, min_count=1)
    freqs = [v.frequencies[t] for t in v.tokens[len(tk.SPECIAL_TOKENS):]]
    assert freqs == sorted(freqs, reverse=True)


def test_encode_decode_roundtrip_and_fallbacks():
    ex = example_from_tokens(words("alpha", "beta"))
    v = build_target_vocab([ex], max_size=10, min_count=1)
    for t in ("alpha", "beta", tk.START):
        assert v.decode(v.encode(t)) == t
    assert v.encode("zzz-unknown-word") == v.index[tk.RARE]
    with pytest.raises(ValueError):
        v.decode(-1)
    with pytest.raises(ValueError):
        v.decode(len(v))


def triple_example(triples):
    return AlignedExample("dbr:Main", triples, [], [], "uri")


def test_source_vocab_type_fallback_paths():
    # frequent entity, rare entity with frequent type, rare with rare type,
    # rare without type
    triples = []
    for _ in range(25):
        triples.append(Triple(tk.ITEM, "dbo:genre", "dbr:Pop", "entity",
                              object_type="dbo:MusicGenre"))
    for _ in range(19):
        triples.append(Triple(tk.ITEM, "dbo:basedOn", "dbr:Mamma", "entity",
                              object_type="dbo:Musical"))
        triples.append(Triple(tk.ITEM, "dbo:related", "dbr:Obscure", "entity",
                              object_type="dbo:OneOff"))
    # two rare entities share dbo:Musical, lifting its induced total past the
    # threshold; dbo:OneOff stays at 19 -> its entity maps to <resource>
    for _ in range(10):
        triples.append(Triple(tk.ITEM, "dbo:basedOn", "dbr:Chess", "entity",
                              object_type="dbo:Musical"))
    triples.append(Triple(tk.ITEM, "dbo:knows", "dbr:NoType", "entity"))
    v = build_source_vocab([triple_example(triples)], min_count=20)
    assert "dbr:Pop" in v
    assert v.fallbacks["dbr:Mamma"] == "dbo:Musical"
    assert v.encode("dbr:Mamma") == v.index["dbo:Musical"]
    assert v.fallbacks["dbr:Obscure"] == tk.RESOURCE
    assert v.fallbacks["dbr:NoType"] == tk.UNK
    assert v.encode("dbr:NeverSeen") == v.index[tk.UNK]


def test_source_vocab_rare_predicate_not_included():
    triples = [Triple(tk.ITEM, "dbo:common", "dbr:X", "entity")] * 20
    triples += [Triple(tk.ITEM, "dbo:rare", "dbr:X", "entity")] * 5
    v = build_source_vocab([triple_example(triples)], min_count=20)
    assert "dbo:common" in v
    assert "dbo:rare" not in v
    assert "dbo:rare" not in v.fallbacks


def test_source_vocab_entity_roles_recorded():
    triples = [Triple("dbr:A", "dbo:p", "dbr:B", "entity")] * 20
    v = build_source_vocab([triple_example(triples)], min_count=20)
    assert "dbr:A" in v.entity_tokens and "dbr:B" in v.entity_tokens
    assert "dbo:p" not in v.entity_tokens


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["red", "green", "blue", "cyan", "plum"]),
                min_size=0, max_size=40),
       st.integers(min_value=1, max_value=6))
def test_serialization_roundtrip(words_list, max_size):
    ex = example_from_tokens(words(*words_list))
    v = build_target_vocab([ex], max_size=max_size, min_count=1)
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "v.vocab")
        v.save(path)
        loaded = Vocabulary.load(path)
    assert loaded.tokens == v.tokens
    assert loaded.index == v.index
    assert loaded.frequencies == v.frequencies
    assert loaded.content_hash() == v.content_hash()


def test_source_serialization_keeps_fallbacks(tmp_path):
    triples = [Triple(tk.ITEM, "dbo:p", "dbr:Rare", "entity",
                      object_type="dbo:T")] * 5
    triples += [Triple(tk.ITEM, "dbo:p", "dbr:Common", "entity")] * 25
    v = build_source_vocab([triple_example(triples)], min_count=20)
    path = str(tmp_path / "src.vocab")
    v.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.fallbacks == v.fallbacks
    assert loaded.entity_tokens == v.entity_tokens
    assert loaded.content_hash() == v.content_hash()


def test_failed_save_keeps_previous_files(tmp_path, monkeypatch):
    triples = [Triple(tk.ITEM, "dbo:p", "dbr:Rare", "entity", object_type="dbo:T")] * 5
    v = build_source_vocab([triple_example(triples)], min_count=20)
    path = str(tmp_path / "src.vocab")
    v.save(path)
    main, meta = v.to_bytes(stamp=True)
    # the main file's write raises after the meta file is written; then the meta file's
    for failing in ((None, meta), (main, "not bytes")):
        monkeypatch.setattr(Vocabulary, "to_bytes", lambda self, stamp=False, f=failing: f)
        with pytest.raises(TypeError):
            v.save(path)
    monkeypatch.undo()
    loaded = Vocabulary.load(path)
    assert loaded.content_hash() == v.content_hash() and loaded.fallbacks == v.fallbacks
    assert sorted(os.listdir(tmp_path)) == ["src.vocab", "src.vocab.meta.json"]


def test_meta_file_of_another_token_list_is_refused(tmp_path, monkeypatch, capsys):
    # the meta file is written first; a main write that fails after it
    # leaves w's meta file beside v's token list, the mixed pair of
    # test_failed_save_keeps_previous_files, and load refuses it
    import json
    from triples2text import cli, fileio
    rare = [Triple(tk.ITEM, "dbo:p", "dbr:Rare", "entity", object_type="dbo:T")] * 5
    v = build_source_vocab([triple_example(rare)], min_count=20)
    w = build_source_vocab([triple_example(rare + [Triple(tk.ITEM, "dbo:q", "dbr:B")] * 20)],
                           min_count=20)
    path = str(tmp_path / "src.vocab")
    v.save(path)
    replace = os.replace

    def failing_replace(src, dst):
        if dst == path:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(fileio.os, "replace", failing_replace)
    with pytest.raises(OSError):
        w.save(path)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["src.vocab", "src.vocab.meta.json"]
    assert (tmp_path / "src.vocab").read_bytes() == v.to_bytes()[0]
    meta = json.loads((tmp_path / "src.vocab.meta.json").read_text())
    assert set(meta["entity_tokens"]) == w.entity_tokens != v.entity_tokens
    with pytest.raises(ValueError, match="another token list"):
        Vocabulary.load(path)
    target = str(tmp_path / "tgt.vocab")
    build_target_vocab([example_from_tokens(words("a"))], max_size=5, min_count=1).save(target)
    assert cli.main(["neighbors", "--checkpoint", str(tmp_path / "ckpt"), "--source-vocab",
                     path, "--target-vocab", target, "--token", "dbr:B", "--k", "1"]) == 2
    assert "another token list" in capsys.readouterr().err
    # a meta file without the hash, as older saves wrote it, still loads
    v.save(path)
    (tmp_path / "src.vocab.meta.json").write_bytes(v.to_bytes()[1])
    assert Vocabulary.load(path).content_hash() == v.content_hash()
    w.save(path)
    assert Vocabulary.load(path).content_hash() == w.content_hash()
