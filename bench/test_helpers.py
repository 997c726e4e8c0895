"""Tests for the benchmark's own helpers: the p99 sample floor, spans, self time,
the wrapping of coex, and the correctness checks. Run from the repository
root:

    python -m pytest bench/test_helpers.py
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracing import (  # noqa: E402
    Instrumentation,
    Span,
    Tracer,
    full_sites,
    graph_nodes,
    layer_self_per_request,
    load_trace,
    self_times,
    step_sites,
    total_by_name,
)
from workloads import exact_f1, payload_rows, triple_rows  # noqa: E402


def test_p99_has_ten_samples_beyond_it_at_1000():
    # the sample floor MIN_TAIL_SAMPLES rests on this
    xs = list(range(1000))
    p = np.percentile(xs, 99)
    assert sum(x > p for x in xs) == 10


def _span(id, parent, start, end, name="x", req=1):
    return Span(id, parent, name, start, end, req)


def test_self_time_subtracts_children():
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 3.0), _span(3, 1, 5.0, 9.0)]
    st = self_times(spans)
    assert st == {1: pytest.approx(4.0), 2: pytest.approx(2.0), 3: pytest.approx(4.0)}


def test_self_time_counts_overlapping_children_once_and_clips():
    # children from two threads overlap; one pokes past the parent's end
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 2.0, 6.0), _span(3, 1, 4.0, 12.0)]
    assert self_times(spans)[1] == pytest.approx(2.0)


def test_total_by_name_inclusive_and_self():
    spans = [
        _span(1, 0, 0.0, 10.0, name="a"),
        _span(2, 1, 1.0, 4.0, name="b"),
        _span(3, 0, 20.0, 22.0, name="a"),
    ]
    assert total_by_name(spans, "a") == pytest.approx(12.0)
    assert total_by_name(spans, "a", self_only=True) == pytest.approx(9.0)


def test_self_times_sum_to_root_duration():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 6.0),
        _span(4, 2, 2.0, 3.0),
        _span(3, 1, 7.0, 9.5),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_wrapped_calls_nest_and_share_request_ids():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap(leaf, "leaf")

    def root(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_root = tracer.wrap(root, "root", new_request=True)
    assert traced_root(1) == 4
    assert traced_root(2) == 6
    roots = [s for s in tracer.spans if s.name == "root"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(roots) == 2 and len(leaves) == 4
    for r in roots:
        kids = [s for s in leaves if s.parent == r.id]
        assert len(kids) == 2
        assert all(k.req == r.req for k in kids)
        assert all(r.start <= k.start <= k.end <= r.end for k in kids)
    assert roots[0].req != roots[1].req
    assert all(r.parent == 0 for r in roots)


def test_span_stacks_are_per_thread():
    tracer = Tracer()
    gate = threading.Barrier(2)

    def inner():
        gate.wait(timeout=10)

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(lambda: traced_inner(), "outer", new_request=True)
    threads = [threading.Thread(target=traced_outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    outers = {s.id: s for s in tracer.spans if s.name == "outer"}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 2
    # each inner span hangs off the outer span of its own thread
    assert {s.parent for s in inners} == set(outers)
    assert all(outers[s.parent].req == s.req for s in inners)


def test_disabled_tracer_calls_through_unless_always():
    tracer = Tracer()
    tracer.enabled = False
    f = tracer.wrap(lambda: 1, "f")
    g = tracer.wrap(lambda: 2, "g", always=True)
    assert (f(), g()) == (1, 2)
    assert [s.name for s in tracer.spans] == ["g"]


def test_exception_still_closes_span():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom")()
    assert [s.name for s in tracer.spans] == ["boom"]
    assert tracer._state().stack == []


def test_layer_self_per_request_selects_by_root():
    spans = [
        Span(1, 0, "runtime.extract", 0.0, 4.0, 1),
        Span(2, 1, "encoder.encode", 1.0, 3.0, 1),
        Span(3, 0, "runtime.extract", 10.0, 12.0, 2),
        Span(4, 3, "encoder.encode", 10.5, 11.5, 2),
        Span(5, 0, "trainer.eval", 20.0, 30.0, 3),
    ]
    per, n = layer_self_per_request(spans, "runtime.extract")
    assert n == 2
    assert per["runtime.extract"] == pytest.approx((2.0 + 1.0) / 2)
    assert per["encoder.encode"] == pytest.approx((2.0 + 1.0) / 2)
    assert "trainer.eval" not in per


def test_dump_and_load_round_trip(tmp_path):
    tracer = Tracer()
    tracer.wrap(lambda: None, "a", new_request=True)()
    tracer.count("c", 3)
    tracer.dump(tmp_path / "t.jsonl", {"k": 1})
    back = load_trace(tmp_path / "t.jsonl")
    assert back.spans == tracer.spans
    assert back.counts == {"c": [3]}


def test_instrumentation_wraps_lookup_sites_and_restores():
    import coex.runtime
    import coex.tagger

    before = (coex.tagger.encode, coex.runtime.extract_triples)
    tracer = Tracer()
    with Instrumentation(tracer, full_sites(tracer)):
        assert coex.tagger.encode is not before[0]
        assert coex.tagger.encode.__wrapped__ is before[0]
        assert coex.runtime.extract_triples.__wrapped__ is before[1]
    assert (coex.tagger.encode, coex.runtime.extract_triples) == before


def test_traced_extraction_names_every_layer():
    from coex.autograd import Rng
    from coex.data import SynthConfig, build_vocab, default_schema, generate_synthetic_corpus
    from coex.runtime import inference_model
    from coex.tagger import init_model_params
    from coex.trainer import TrainConfig
    from dataclasses import replace

    corpus = generate_synthetic_corpus(SynthConfig(5, seed=3))
    vocab = build_vocab(corpus)
    config = TrainConfig()
    config = replace(config, encoder=replace(config.encoder, vocab_size=len(vocab)))
    params = init_model_params(config.encoder, len(default_schema()), Rng(0))
    model = inference_model(params, config, vocab, default_schema())
    plain = model.extract(corpus[0].text)
    tracer = Tracer()
    with Instrumentation(tracer, full_sites(tracer)):
        assert model.extract(corpus[0].text) == plain
    names = {s.name for s in tracer.spans}
    assert {
        "runtime.extract", "data.tokenize", "encoder.encode", "encoder.embed",
        "encoder.layer0.attn", "encoder.layer0.ffn", "encoder.layer1.attn",
        "encoder.layer1.ffn", "tagger.subject_head", "tagger.decode",
    } <= names
    assert len({s.req for s in tracer.spans}) == 1
    root = next(s for s in tracer.spans if s.name == "runtime.extract")
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.end - root.start)


def test_step_sites_alternate_traced_and_untraced_batches():
    tracer = Tracer()
    sites = {attr: make for _, attr, make in step_sites(tracer, alternate=True)}

    class Parts:
        class total:
            @staticmethod
            def item():
                return 1.0

    loss = sites["joint_loss"](tracer, lambda *a: Parts)
    step = sites["adagrad_step"](tracer, lambda *a: None)
    for _ in range(4):
        loss()
        step()
    assert [s.name for s in tracer.spans] == [
        "untraced.joint_loss", "untraced.adagrad",
        "tagger.joint_loss", "trainer.adagrad",
    ] * 2


def test_graph_nodes_counts_reachable_tensors():
    from coex.autograd import Tensor, add, mul

    a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    b = add(a, a)
    c = mul(b, b)
    assert graph_nodes(c) == 3


def test_exact_f1():
    assert exact_f1([[("a", "p", "b")]], [[("a", "p", "b")]]) == 1.0
    assert exact_f1([[]], [[("a", "p", "b")]]) == 0.0
    # one right, one wrong, one missed: P = 1/2, R = 1/2
    got = exact_f1([[("a", "p", "b"), ("a", "p", "c")]], [[("a", "p", "b"), ("d", "p", "e")]])
    assert got == pytest.approx(0.5)


def test_payload_rows_match_triple_rows():
    from coex.evaluator import triples_to_payload
    from coex.tagger import Span as TSpan, Triple

    triples = [Triple("s", "p", "o", TSpan(1, 2), TSpan(4, 4))]
    assert payload_rows(triples_to_payload(triples)) == triple_rows(triples)
