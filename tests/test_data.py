import json

import numpy as np
import pytest

from coex.autograd import Rng
from coex.data import (
    CLS,
    PAD,
    CLS_ID,
    PAD_ID,
    SEP,
    SEP_ID,
    UNK_ID,
    AlignmentError,
    CorpusError,
    RawExample,
    RawTriple,
    SynthConfig,
    Vocab,
    build_vocab,
    default_schema,
    encode_example,
    generate_synthetic_corpus,
    has_overlap,
    load_corpus,
    load_schema,
    sample_negatives,
    save_corpus,
    save_schema,
    tokenize,
)
from coex.tagger import SchemaError, Span
from oracles import triples_from_labels


def test_tokenize_cjk_chars_and_specials():
    tokens, offsets = tokenize("丹芍主治头痛。")
    assert tokens == [CLS, "丹", "芍", "主", "治", "头", "痛", "。", SEP]
    assert offsets[0] == (0, 0) and offsets[-1] == (7, 7)
    for t, (s, e) in zip(tokens[1:-1], offsets[1:-1]):
        assert "丹芍主治头痛。"[s:e] == t


def test_tokenize_latin_digit_runs():
    text = "维生素B12含量45-55%左右"
    tokens, _ = tokenize(text)
    assert tokens == [CLS, "维", "生", "素", "B12", "含", "量", "45", "-", "55", "%", "左", "右", SEP]


def test_tokenize_drops_whitespace_but_keeps_offsets():
    text = "甘草 3g  口服"
    tokens, offsets = tokenize(text)
    assert tokens == [CLS, "甘", "草", "3g", "口", "服", SEP]
    for t, (s, e) in zip(tokens[1:-1], offsets[1:-1]):
        assert text[s:e] == t


def test_tokenize_empty_text():
    tokens, offsets = tokenize("")
    assert tokens == [CLS, SEP]
    assert offsets == [(0, 0), (0, 0)]


def test_vocab_reserved_ids_and_unknowns():
    v = Vocab.from_tokens(["药", "草"])
    assert v.encode([CLS, "药", "草", SEP]).tolist() == [CLS_ID, 4, 5, SEP_ID]
    assert v.encode(["新"]).tolist() == [UNK_ID]
    assert PAD_ID == 0 and UNK_ID == 1 and CLS_ID == 2 and SEP_ID == 3


def test_build_vocab_orders_by_freq_then_token():
    corpus = [
        RawExample("乙甲甲", []),
        RawExample("丙乙", []),
    ]
    v = build_vocab(corpus)
    # 甲 and 乙 both occur twice; tie breaks lexicographically, 丙 occurs once
    assert v.tokens[4:] == ["乙", "甲", "丙"]


def test_vocab_save_load_round_trip(tmp_path):
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=20, seed=3))
    v = build_vocab(corpus)
    p = tmp_path / "vocab.txt"
    v.save(p)
    v2 = Vocab.load(p)
    assert v.tokens == v2.tokens
    assert v2.encode(["苦"]).tolist() == v.encode(["苦"]).tolist()


def test_corpus_save_load_round_trip(tmp_path):
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=25, seed=4))
    p = tmp_path / "corpus.jsonl"
    save_corpus(corpus, p)
    loaded = load_corpus(p, schema=default_schema())
    assert len(loaded) == len(corpus)
    for a, b in zip(corpus, loaded):
        assert a.text == b.text
        assert [(t.subject, t.predicate, t.object, t.subject_start, t.object_start) for t in a.triples] == [
            (t.subject, t.predicate, t.object, t.subject_start, t.object_start) for t in b.triples
        ]


def test_load_corpus_names_bad_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    good = json.dumps({"text": "甲主治乙。", "spo_list": []}, ensure_ascii=False)
    p.write_text(good + "\n" + "{not json}\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(p)
    assert "line 2" in str(err.value)


def test_load_corpus_validates_schema(tmp_path):
    p = tmp_path / "c.jsonl"
    rec = {"text": "甲主治乙。", "spo_list": [{"subject": "甲", "predicate": "nope", "object": "乙"}]}
    p.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_corpus(p, schema=default_schema())


def test_schema_file_round_trip(tmp_path):
    p = tmp_path / "schema.json"
    save_schema(default_schema(), p)
    loaded = load_schema(p)
    assert loaded.predicates == default_schema().predicates
    p2 = tmp_path / "bad.json"
    p2.write_text('{"a": 1}', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_schema(p2)


def _vocab_for(*texts):
    return build_vocab([RawExample(t, []) for t in texts])


@pytest.mark.parametrize(
    "text", ["[PAD]", "甲[PAD]乙", "[CLS][SEP][UNK]", " [PAD] x[PAD]y ", "", " \t\n "]
)
def test_no_text_encodes_to_pad_id(text):
    # [PAD] ids mark padding: literal specials split into pieces, and a vocab
    # cannot hold a reserved token twice
    tokens, _ = tokenize(text)
    assert tokens[0] == CLS and tokens[-1] == SEP
    for vocab in (Vocab.from_tokens([]), build_vocab([RawExample(text, [])])):
        ids = vocab.encode(tokens)
        assert PAD_ID not in ids.tolist()
    with pytest.raises(CorpusError):
        Vocab.from_tokens(["[", PAD, "]"])


def test_encode_example_pointer_positions():
    text = "丹芍主治头痛。"
    raw = RawExample(text, [RawTriple("丹芍", "treats", "头痛")])
    enc = encode_example(raw, _vocab_for(text), default_schema())
    # tokens: [CLS] 丹 芍 主 治 头 痛 。 [SEP]
    assert len(enc.subjects) == 1
    sub = enc.subjects[0]
    assert sub.span == Span(1, 2)
    assert sub.objects == [(default_schema().index("treats"), Span(5, 6))]
    assert enc.dropped_triples == 0


def test_encode_example_first_occurrence_alignment():
    # subject string also occurs inside an earlier mention; first occurrence wins
    text = "海马丸含海马。"
    raw = RawExample(text, [RawTriple("海马", "composition", "海马")])
    enc = encode_example(raw, _vocab_for(text), default_schema())
    assert enc.subjects[0].span == Span(1, 2)


def test_encode_example_explicit_offsets_override_search():
    text = "海马丸含海马。"
    raw = RawExample(
        text, [RawTriple("海马", "composition", "海马", subject_start=4, object_start=4)]
    )
    enc = encode_example(raw, _vocab_for(text), default_schema())
    assert enc.subjects[0].span == Span(5, 6)


def test_encode_example_alignment_errors():
    text = "丹芍主治头痛。"
    vocab = _vocab_for(text)
    with pytest.raises(AlignmentError) as err:
        encode_example(RawExample(text, [RawTriple("人参", "treats", "头痛")]), vocab, default_schema())
    assert "人参" in str(err.value)
    with pytest.raises(AlignmentError):
        encode_example(
            RawExample(text, [RawTriple("丹芍", "treats", "头痛", subject_start=3)]),
            vocab,
            default_schema(),
        )


def test_encode_example_rejects_mid_run_boundary():
    text = "VC45片主治坏血病。"
    raw = RawExample(text, [RawTriple("45", "treats", "坏血病")])
    with pytest.raises(AlignmentError) as err:
        encode_example(raw, _vocab_for(text), default_schema())
    assert "45" in str(err.value)


def test_encode_example_unknown_predicate():
    text = "丹芍主治头痛。"
    raw = RawExample(text, [RawTriple("丹芍", "cures", "头痛")])
    with pytest.raises(SchemaError):
        encode_example(raw, _vocab_for(text), default_schema())


def test_encode_example_truncation_drops_and_counts():
    text = "丹芍主治头痛。甘草生长于山谷。"
    raw = RawExample(
        text,
        [
            RawTriple("丹芍", "treats", "头痛"),
            RawTriple("甘草", "habitat", "山谷"),
        ],
    )
    enc = encode_example(raw, _vocab_for(text), default_schema(), max_seq_len=9)
    assert len(enc.input_ids) == 9
    assert enc.dropped_triples == 1
    assert len(enc.subjects) == 1 and enc.subjects[0].span == Span(1, 2)


def test_encode_example_merges_shared_subject():
    text = "丹芍主治头痛,产于山谷。"
    raw = RawExample(
        text,
        [RawTriple("丹芍", "treats", "头痛"), RawTriple("丹芍", "origin", "山谷")],
    )
    enc = encode_example(raw, _vocab_for(text), default_schema())
    schema = default_schema()
    assert len(enc.subjects) == 1
    assert enc.subjects[0].objects == [
        (schema.index("treats"), Span(5, 6)), (schema.index("origin"), Span(10, 11))
    ]


def test_sample_negatives_pool_rules():
    text = "丹芍主治头痛。"
    raw = RawExample(text, [RawTriple("丹芍", "treats", "头痛")])
    enc = encode_example(raw, _vocab_for(text), default_schema())
    n = len(enc.input_ids)
    sample_negatives(enc, k=1000, rng=Rng(0), max_span=3)
    gold = {s.span for s in enc.subjects}
    seen = set()
    for sp in enc.negative_spans:
        assert sp not in gold
        assert 1 <= sp.start <= sp.end <= n - 2
        assert len(sp) <= 3
        assert sp not in seen
        seen.add(sp)
    # full pool minus the gold span
    content = n - 2
    pool = sum(max(0, content - l + 1) for l in range(1, 4)) - 1
    assert len(enc.negative_spans) == pool


def test_sample_negatives_k_limits_and_determinism():
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=5, seed=9))
    vocab = build_vocab(corpus)
    enc1 = encode_example(corpus[0], vocab, default_schema())
    enc2 = encode_example(corpus[0], vocab, default_schema())
    sample_negatives(enc1, k=7, rng=Rng(11))
    sample_negatives(enc2, k=7, rng=Rng(11))
    assert enc1.negative_spans == enc2.negative_spans
    assert len(enc1.negative_spans) == 7
    enc3 = encode_example(corpus[0], vocab, default_schema())
    sample_negatives(enc3, k=7, rng=Rng(12))
    assert enc3.negative_spans != enc1.negative_spans


def test_has_overlap():
    assert not has_overlap(RawExample("x", [RawTriple("甲", "treats", "乙")]))
    assert has_overlap(
        RawExample("x", [RawTriple("甲", "treats", "乙"), RawTriple("甲", "origin", "丙")])
    )
    assert has_overlap(
        RawExample("x", [RawTriple("甲", "treats", "乙"), RawTriple("丙", "treats", "乙")])
    )


def test_synthetic_corpus_deterministic():
    a = generate_synthetic_corpus(SynthConfig(n_sentences=40, seed=21))
    b = generate_synthetic_corpus(SynthConfig(n_sentences=40, seed=21))
    assert [e.text for e in a] == [e.text for e in b]
    c = generate_synthetic_corpus(SynthConfig(n_sentences=40, seed=22))
    assert [e.text for e in a] != [e.text for e in c]


def test_synthetic_corpus_shape_and_encodability():
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=120, overlap_fraction=0.3, seed=2))
    vocab = build_vocab(corpus)
    schema = default_schema()
    for ex in corpus:
        assert 1 <= len(ex.triples) <= 6
        for t in ex.triples:
            assert t.subject_start is not None and t.object_start is not None
            assert ex.text[t.subject_start : t.subject_start + len(t.subject)] == t.subject
            assert ex.text[t.object_start : t.object_start + len(t.object)] == t.object
        enc = encode_example(ex, vocab, schema)
        assert enc.dropped_triples == 0
        gold = {(t.subject, t.predicate, t.object) for t in ex.triples}
        assert {t.key() for t in triples_from_labels(enc, schema)} == gold


def test_synthetic_corpus_overlap_rate_near_target():
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=2000, overlap_fraction=0.3, seed=1))
    rate = sum(has_overlap(e) for e in corpus) / len(corpus)
    assert 0.25 <= rate <= 0.35


def test_synthetic_corpus_rejects_foreign_schema():
    from coex.tagger import RelationSchema

    with pytest.raises(SchemaError):
        generate_synthetic_corpus(SynthConfig(n_sentences=1, schema=RelationSchema(("p1",))))
