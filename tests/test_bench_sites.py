"""The benchmark's tracer wraps coex functions by module and name; each one
must exist, or every traced benchmark run fails on lookup, and each one must
be reached, or its per-layer metric silently reads 0."""

import importlib
import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

from coex.data import SynthConfig, default_schema, generate_synthetic_corpus
from coex.encoder import EncoderConfig
from coex.runtime import inference_model
from coex.trainer import TrainConfig, train

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = _tracing()
    tracer = tracing.Tracer()
    sites = tracing.full_sites(tracer) + tracing.step_sites(tracer, alternate=False)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert sites and not missing, missing


def test_every_traced_site_is_reached(monkeypatch):
    # Under each site's wrapper sits a shim that counts its calls: a caller
    # that reaches a function through a name of its own bypasses both.
    tracing = _tracing()
    tracer = tracing.Tracer()
    sites = tracing.full_sites(tracer)
    calls = Counter()

    def counting(key, fn):
        def shim(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return shim

    for module, attr, _ in sites:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counting(f"{module}.{attr}", getattr(mod, attr)))

    corpus = generate_synthetic_corpus(SynthConfig(12, seed=3))
    schema = default_schema()
    encoder = EncoderConfig(
        vocab_size=0, model_dim=16, num_heads=2, ffn_dim=24, num_layers=1, max_seq_len=64
    )
    config = TrainConfig(epochs=1, batch_size=4, negatives_per_positive=4, encoder=encoder)
    with tracing.Instrumentation(tracer, sites):
        # one batch of joint_loss and backward per 4 sentences, then eval
        result = train(config, corpus[:8], schema, eval_corpus=corpus[8:])
        # a threshold this low decodes subjects, so extraction runs the relation head
        model = inference_model(
            result.params, replace(result.config, threshold=0.01), result.vocab, schema
        )
        assert any(model.extract(ex.text) for ex in corpus[8:])
        assert not model.truncates(corpus[8].text)
    unreached = [f"{m}.{a}" for m, a, _ in sites if not calls[f"{m}.{a}"]]
    assert unreached == ["coex.tagger.condition_on_subject"]
    recorded = {s.name for s in tracer.spans} | set(tracer.counts)
    assert {
        "runtime.extract", "trainer.eval", "data.tokenize", "data.encode_corpus",
        "data.sample_negatives", "encoder.encode", "encoder.embed", "encoder.layer0.attn",
        "encoder.layer0.ffn", "tagger.subject_head", "tagger.condition", "tagger.relation_head",
        "tagger.decode", "tagger.subjects_per_text", "tagger.decode_calls",
        "autograd.backward", "autograd.nodes_per_batch",
    } <= recorded
    # the head conditions itself: every condition span sits inside a head span
    heads = {s.id for s in tracer.spans if s.name == "tagger.relation_head"}
    conditions = [s for s in tracer.spans if s.name == "tagger.condition"]
    assert conditions and all(s.parent in heads for s in conditions)
