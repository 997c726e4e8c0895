import contextlib
import http.client
import json
import socket
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from coex.autograd import Rng
from coex.data import (
    SynthConfig,
    build_vocab,
    default_schema,
    encode_corpus,
    generate_synthetic_corpus,
)
from coex.encoder import EncoderConfig
from coex.tagger import extract_triples, init_model_params, joint_loss
from coex.trainer import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    TrainConfig,
    read_checkpoint,
)
from coex.runtime import (
    InferenceModel,
    _close_with_self_byte_count,
    create_server,
    export_model,
    inference_model,
    load_inference_model,
    model_fingerprint,
)
from oracles import subnormal_count

SMALL_ENCODER = dict(
    model_dim=16, num_heads=2, ffn_dim=24, num_layers=1, max_seq_len=32, dropout_p=0.1
)


def small_setup(seed=5, n=30):
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=n, seed=seed))
    vocab = build_vocab(corpus)
    schema = default_schema()
    cfg = TrainConfig(encoder=EncoderConfig(vocab_size=len(vocab), **SMALL_ENCODER))
    params = init_model_params(cfg.encoder, len(schema), Rng(seed))
    return corpus, vocab, schema, cfg, params


def test_fingerprint_stable_and_sensitive():
    _, _, schema, cfg, params = small_setup()
    a = model_fingerprint(params)
    assert a == model_fingerprint(params)
    assert len(a) == 12 and int(a, 16) >= 0
    params.subject_w.data[0, 0] += 1e-3
    assert model_fingerprint(params) != a


def test_inference_model_freezes_and_is_deterministic():
    corpus, vocab, schema, cfg, params = small_setup()
    model = inference_model(params, cfg, vocab, schema)
    assert all(not t.requires_grad for _, t in model.params.named_tensors())
    text = corpus[0].text
    first = model.extract(text)
    for _ in range(3):
        assert model.extract(text) == first


def test_inference_model_drops_gradients_left_by_training():
    corpus, vocab, schema, cfg, params = small_setup()
    batch = encode_corpus(corpus[:2], vocab, schema, cfg.encoder.max_seq_len)
    joint_loss(batch, params, cfg.encoder, Rng(1)).total.backward()
    assert all(t.grad is not None for _, t in params.named_tensors())
    model = inference_model(params, cfg, vocab, schema)
    for name, t in model.params.named_tensors():
        assert t.requires_grad is False, name
        assert t.grad is None, name


def test_infer_matches_library_extraction():
    corpus, vocab, schema, cfg, params = small_setup(seed=9)
    direct = [
        extract_triples(ex.text, params, cfg.encoder, vocab, schema, cfg.threshold)
        for ex in corpus[:10]
    ]
    model = inference_model(params, cfg, vocab, schema)
    assert [model.extract(ex.text) for ex in corpus[:10]] == direct


def test_infer_empty_text():
    _, vocab, schema, cfg, params = small_setup()
    model = inference_model(params, cfg, vocab, schema)
    assert model.extract("") == []


def test_export_load_round_trip(tmp_path):
    corpus, vocab, schema, cfg, params = small_setup(seed=2)
    path = tmp_path / "model.bin"
    export_model(params, cfg, vocab, schema, path)
    model = load_inference_model(path)
    assert model.vocab.tokens == vocab.tokens
    assert model.schema.predicates == schema.predicates
    assert model.threshold == cfg.threshold
    assert model.model_version == model_fingerprint(params)
    for ex in corpus[:20]:
        assert model.extract(ex.text) == extract_triples(
            ex.text, params, cfg.encoder, vocab, schema, cfg.threshold
        )


def test_export_flushes_subnormal_weights(tmp_path):
    corpus, vocab, schema, cfg, params = small_setup(seed=4)
    # a threshold just under the untrained squared-sigmoid score of 0.25 makes
    # the random model emit triples, so the comparison below has content
    cfg = replace(cfg, threshold=0.24)
    rng = np.random.default_rng(4)
    for _, t in params.named_tensors():
        planted = rng.uniform(size=t.data.shape) < 0.3
        t.data[planted] = (rng.uniform(-1e-39, 1e-39, t.data.shape)[planted]).astype(np.float32)
    before = subnormal_count(t.data for _, t in params.named_tensors())
    assert before > 1000

    path = tmp_path / "model.bin"
    export_model(params, cfg, vocab, schema, path)
    header, tensors = read_checkpoint(path)
    assert subnormal_count(tensors.values()) == 0
    assert subnormal_count(t.data for _, t in params.named_tensors()) == before
    model = load_inference_model(path)
    assert model.model_version == header["model_version"]
    texts = [ex.text for ex in corpus[:20]]
    served = [model.extract(text) for text in texts]
    assert any(served)
    assert served == [
        extract_triples(text, params, cfg.encoder, vocab, schema, cfg.threshold) for text in texts
    ]


def test_load_requires_vocab_and_schema_sections(tmp_path):
    from coex.trainer import save_checkpoint

    _, vocab, schema, cfg, params = small_setup()
    bare = tmp_path / "bare.bin"
    save_checkpoint(params, cfg, bare)
    with pytest.raises(CheckpointFormatError):
        load_inference_model(bare)
    missing_schema = tmp_path / "half.bin"
    save_checkpoint(params, cfg, missing_schema, extra={"vocab": vocab.tokens[4:]})
    with pytest.raises(CheckpointFormatError):
        load_inference_model(missing_schema)


def test_load_rejects_tampered_tensor_payload(tmp_path):
    _, vocab, schema, cfg, params = small_setup()
    path = tmp_path / "model.bin"
    export_model(params, cfg, vocab, schema, path)
    blob = bytearray(path.read_bytes())
    blob[-2] ^= 0xFF  # inside the last tensor's data
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointIntegrityError):
        load_inference_model(path)


def test_response_byte_count_fixed_point():
    # the count participates in its own serialization; force digit growth
    for pad in range(0, 40, 7):
        body = _close_with_self_byte_count('{"triples": [], "filler": "' + "x" * pad + '"')
        parsed = json.loads(body.decode("utf-8"))
        assert parsed["response_bytes"] == len(body)
        assert list(parsed) == ["triples", "filler", "response_bytes"]


# ---------------------------------------------------------------------------
# service


@contextlib.contextmanager
def running(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def served():
    corpus, vocab, schema, cfg, params = small_setup(seed=13)
    model = inference_model(params, cfg, vocab, schema)
    with running(create_server(model, ("127.0.0.1", 0))) as address:
        yield model, address, corpus


def _post(address, path, body: bytes):
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _get(address, path):
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def test_healthz(served):
    model, address, _ = served
    status, body = _get(address, "/healthz")
    assert status == 200
    obj = json.loads(body)
    assert obj == {"status": "ok", "model_version": model.model_version}


def test_internal_error_answers_500_and_keeps_connection():
    def broken(text):
        raise RuntimeError("extract failed")

    stub = SimpleNamespace(model_version="stub", extract=broken)
    with running(create_server(stub, ("127.0.0.1", 0))) as address:
        conn = http.client.HTTPConnection(*address, timeout=10)
        try:
            conn.request("POST", "/extract", body=b'{"text": "x"}')
            resp = conn.getresponse()
            assert resp.status == 500
            assert json.loads(resp.read()) == {"error": "internal error"}
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read()) == {"status": "ok", "model_version": "stub"}
        finally:
            conn.close()


def test_unknown_paths(served):
    _, address, _ = served
    assert _get(address, "/nope")[0] == 404
    assert _post(address, "/nope", b'{"text": ""}')[0] == 404


def test_extract_contract(served):
    model, address, corpus = served
    text = corpus[0].text
    request = json.dumps({"text": text}, ensure_ascii=False).encode("utf-8")
    status, body = _post(address, "/extract", request)
    assert status == 200
    obj = json.loads(body.decode("utf-8"))
    want = [
        {
            "subject": t.subject,
            "predicate": t.predicate,
            "object": t.object,
            "subject_span": [t.subject_span.start, t.subject_span.end],
            "object_span": [t.object_span.start, t.object_span.end],
        }
        for t in model.extract(text)
    ]
    assert obj["triples"] == want
    assert list(obj) == [
        "triples", "truncated", "model_version", "request_bytes", "latency_ms", "response_bytes"
    ]
    assert obj["model_version"] == model.model_version
    assert obj["request_bytes"] == len(request)
    assert obj["response_bytes"] == len(body)
    assert obj["truncated"] is False
    assert obj["latency_ms"] >= 0.0


def test_extract_empty_text(served):
    _, address, _ = served
    status, body = _post(address, "/extract", b'{"text": ""}')
    assert status == 200
    assert json.loads(body)["triples"] == []


def test_extract_malformed_bodies(served):
    _, address, _ = served
    for bad in (b"", b"not json", b"[1, 2]", b'{"no_text": 1}', b'{"text": 5}'):
        status, body = _post(address, "/extract", bad)
        assert status == 400
        assert "error" in json.loads(body)


def test_extract_sets_truncation_flag(served):
    model, address, _ = served
    text = "甲" * (SMALL_ENCODER["max_seq_len"] + 10)
    status, body = _post(address, "/extract", json.dumps({"text": text}).encode())
    assert status == 200
    obj = json.loads(body)
    assert obj["truncated"] is True


def test_concurrent_requests_match_sequential(served):
    model, address, corpus = served
    text = corpus[1].text
    request = json.dumps({"text": text}, ensure_ascii=False).encode("utf-8")
    sequential = json.loads(_post(address, "/extract", request)[1])["triples"]

    results = [None] * 8
    def worker(i):
        results[i] = json.loads(_post(address, "/extract", request)[1])["triples"]
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert all(r == sequential for r in results)


def test_no_outbound_connections(served, monkeypatch):
    # every connect observed during serving must target the service itself
    _, address, corpus = served
    seen = []
    real_connect = socket.socket.connect
    def recording_connect(sock, addr):
        seen.append(addr)
        return real_connect(sock, addr)
    monkeypatch.setattr(socket.socket, "connect", recording_connect)
    request = json.dumps({"text": corpus[2].text}, ensure_ascii=False).encode("utf-8")
    for _ in range(3):
        _post(address, "/extract", request)
    assert seen, "expected the test client itself to connect"
    assert all(addr[:2] == (address[0], address[1]) for addr in seen)
