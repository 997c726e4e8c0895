import contextlib
import http.client
import json
import socket
import threading
import time
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
from coex.tagger import Span, Triple, extract_triples, init_model_params, joint_loss
from coex.trainer import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    TrainConfig,
    read_checkpoint,
)
from coex.runtime import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
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


def test_load_refuses_tensors_the_config_does_not_imply(tmp_path):
    # each artifact carries a valid fingerprint over its tensors; before the
    # shape check, the first loaded and then failed on every extract, and the
    # second loaded and served with an FFN wider than its config's ffn_dim
    from coex.autograd import Tensor
    from coex.data import RESERVED
    from coex.trainer import save_checkpoint

    rng = np.random.default_rng(0)

    def narrow_w_q(layer):
        layer.w_q = Tensor(layer.w_q.data[:, :15].copy())

    def wide_ffn(layer):
        d, f = 16, 32  # ffn_dim is 24
        for name, shape in (("ffn_w1", (d, f)), ("ffn_b1", (f,)), ("ffn_w2", (f, d))):
            setattr(layer, name, Tensor(rng.uniform(-0.02, 0.02, shape).astype(np.float32)))

    for corrupt in (narrow_w_q, wide_ffn):
        _, vocab, schema, cfg, params = small_setup()
        corrupt(params.encoder.layers[0])
        path = tmp_path / f"{corrupt.__name__}.bin"
        extra = {
            "vocab": list(vocab.tokens[len(RESERVED) :]),
            "schema": list(schema.predicates),
            "model_version": model_fingerprint(params),
        }
        save_checkpoint(params, cfg, path, extra=extra)
        with pytest.raises(CheckpointIntegrityError, match="layer0"):
            load_inference_model(path)


def test_vocab_or_schema_disagreeing_with_tensors_is_refused(tmp_path):
    # before the check, both artifacts loaded: the first then failed each
    # extract that met the extra token, the second each extract that decoded
    # an object past the schema's second predicate
    from coex.data import RESERVED, Vocab
    from coex.tagger import RelationSchema
    from coex.trainer import save_checkpoint

    _, vocab, schema, cfg, params = small_setup()
    longer = Vocab.from_tokens(vocab.tokens[len(RESERVED) :] + ["extra"])
    shorter = RelationSchema(schema.predicates[:2])
    for v, s in ((longer, schema), (vocab, shorter)):
        refused = tmp_path / "refused.bin"
        with pytest.raises(CheckpointIntegrityError, match="vocab and schema sizes"):
            export_model(params, cfg, v, s, refused)
        assert not refused.exists()
        path = tmp_path / "written.bin"
        extra = {"vocab": v.tokens[len(RESERVED) :], "schema": list(s.predicates)}
        save_checkpoint(params, cfg, path, extra=extra)
        with pytest.raises(CheckpointIntegrityError, match="vocab and schema sizes"):
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
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
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


def _stub_model(extract):
    return SimpleNamespace(model_version="stub", extract=extract, truncates=lambda text: False)


def _until_eof(address, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection; a
    server that keeps it open fails the read by timeout."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _responses(data: bytes) -> list[tuple[int, bytes, bytes]]:
    """Status, lower-cased head and body of each response in `data`, which
    must hold nothing but responses framed by their Content-Length."""
    found = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        fields = dict(line.lower().split(b":", 1) for line in head.split(b"\r\n")[1:])
        length = int(fields[b"content-length"])
        assert sep and len(rest) >= length, data
        found.append((int(head.split()[1]), head.lower(), rest[:length]))
        data = rest[length:]
    return found


def _only_response(data: bytes) -> tuple[int, bytes, bytes]:
    """Status, lower-cased head and body of `data`, which must hold exactly
    one response framed by its Content-Length."""
    (only,) = _responses(data)
    return only


def test_each_response_leaves_in_one_send(monkeypatch):
    many = [
        Triple("主体" * 4, "功效", f"客体{i}", Span(1, 8), Span(10 + i, 12 + i))
        for i in range(80)
    ]

    def extract(text):
        if text == "boom":
            raise RuntimeError("extract failed")
        return many if text == "many" else many[:1]

    with running(create_server(_stub_model(extract), ("127.0.0.1", 0))) as address:
        sends = []

        def recording(real):
            # record before sending: the client may read the bytes before
            # the call returns
            def call(sock, data, *args):
                mine = sock.getsockname() == address
                if mine:
                    sends.append(bytes(data))
                n = real(sock, data, *args)
                if mine and n is not None:  # send, not sendall: keep what left
                    sends[-1] = sends[-1][:n]
                return n
            return call

        monkeypatch.setattr(socket.socket, "send", recording(socket.socket.send))
        monkeypatch.setattr(socket.socket, "sendall", recording(socket.socket.sendall))
        conn = http.client.HTTPConnection(*address, timeout=10)
        try:
            exchanges = [
                ("POST", "/extract", b'{"text": "ok"}', 200),
                ("POST", "/extract", b"not json", 400),
                ("POST", "/nope", b'{"text": ""}', 404),
                ("GET", "/healthz", None, 200),
                ("POST", "/extract", b'{"text": "boom"}', 500),
            ]
            sock = None
            for method, path, request, status in exchanges:
                before = len(sends)
                conn.request(method, path, body=request)
                resp = conn.getresponse()
                body = resp.read()
                assert resp.status == status
                sock = sock or conn.sock
                assert conn.sock is sock and not resp.will_close
                assert len(sends) == before + 1, (method, path, sends[before:])
                head, _, sent_body = sends[-1].partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 %d " % status)
                assert sent_body == body

            # a body over 8 KiB leaves in the same one send, so its keep-alive
            # round trip does not wait ~40 ms for the client's delayed ACK
            round_trips = []
            for _ in range(5):
                before = len(sends)
                start = time.perf_counter()
                conn.request("POST", "/extract", body=b'{"text": "many"}')
                resp = conn.getresponse()
                body = resp.read()
                round_trips.append(time.perf_counter() - start)
                obj = json.loads(body)
                assert resp.status == 200 and len(body) > 8192
                assert obj["response_bytes"] == len(body)
                assert len(obj["triples"]) == len(many)
                assert conn.sock is sock
                assert len(sends) == before + 1
                assert sends[-1].partition(b"\r\n\r\n")[2] == body
            assert sorted(round_trips)[2] < 0.020, round_trips
        finally:
            conn.close()


@pytest.mark.parametrize(
    "framing, status",
    [
        (b"", 411),
        (b"Transfer-Encoding: chunked\r\n", 411),
        (b"Content-Length: -13\r\n", 400),
        (b"Content-Length: 13x\r\n", 400),
        (b"Content-Length: 13\r\nContent-Length: 13\r\n", 400),
    ],
    ids=["no-length", "chunked", "negative", "non-numeric", "two-lengths"],
)
def test_unframed_body_gets_one_answer_then_eof(served, framing, status):
    _, address, _ = served
    body = b'{"text": "x"}'
    if b"chunked" in framing:
        body = b"d\r\n" + body + b"\r\n0\r\n\r\n"
    data = _until_eof(
        address, b"POST /extract HTTP/1.1\r\nHost: coex\r\n" + framing + b"\r\n" + body
    )
    got, head, answer = _only_response(data)
    assert got == status
    assert b"\r\nconnection: close" in head
    assert "error" in json.loads(answer)


def test_get_body_is_framed_before_the_next_request(served):
    model, address, _ = served
    data = _until_eof(
        address,
        b"GET /healthz HTTP/1.1\r\nHost: coex\r\nContent-Length: 12\r\n\r\n"
        b'{"a": "bcd"}'
        b"GET /healthz HTTP/1.1\r\nHost: coex\r\nConnection: close\r\n\r\n",
    )
    answers = _responses(data)
    assert [status for status, _, _ in answers] == [200, 200]
    health = {"status": "ok", "model_version": model.model_version}
    assert all(json.loads(body) == health for _, _, body in answers)


@pytest.mark.parametrize(
    "head, status",
    [
        (b"POST /extract\r\nHost: coex\r\n", 400),
        (b"POST /extract HTTP/1.1\r\nHost coex\r\n", 400),
        (b"POST /extract HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES + b"\r\n", 431),
        (b"POST /extract HTTP/1.1\r\n" + b"X-Pad: aaaaaaaa\r\n" * 4000, 431),
        (b"DELETE /extract HTTP/1.1\r\nHost: coex\r\n", 501),
        (b"POST /extract HTTP/2.0\r\nHost: coex\r\n", 505),
    ],
    ids=["request-line", "header-line", "long-line", "many-lines", "method", "version"],
)
def test_malformed_head_gets_one_answer_then_eof(served, head, status):
    _, address, _ = served
    got, answer_head, answer = _only_response(_until_eof(address, head + b"\r\n"))
    assert got == status
    assert b"\r\nconnection: close" in answer_head
    assert "error" in json.loads(answer)


@pytest.fixture()
def short_timeout(monkeypatch):
    monkeypatch.setattr("coex.runtime.REQUEST_TIMEOUT_S", 0.2)


@pytest.mark.parametrize(
    "partial",
    [
        b"POST /extract HTTP/1.1\r\nHost: coex\r\n",
        b"POST /extract HTTP/1.1\r\nHost: coex\r\nContent-Length: 100\r\n\r\n{\"",
    ],
    ids=["head", "body"],
)
def test_stalled_request_is_answered_408_and_closed(served, short_timeout, partial):
    _, address, _ = served
    start = time.perf_counter()
    status, head, answer = _only_response(_until_eof(address, partial))
    assert time.perf_counter() - start < 2.0
    assert status == 408
    assert b"\r\nconnection: close" in head
    assert "error" in json.loads(answer)


def test_idle_connection_is_closed_without_an_answer(served, short_timeout):
    _, address, _ = served
    start = time.perf_counter()
    assert _until_eof(address, b"") == b""
    data = _until_eof(address, b"GET /healthz HTTP/1.1\r\nHost: coex\r\n\r\n")
    assert time.perf_counter() - start < 2.0
    status, head, _ = _only_response(data)
    assert status == 200 and b"connection:" not in head


@pytest.mark.parametrize("expect", [b"", b"Expect: 100-continue\r\n"], ids=["plain", "expect-100"])
def test_oversized_body_is_refused_before_it_is_read(served, expect):
    _, address, _ = served
    start = time.perf_counter()
    data = _until_eof(
        address,
        b"POST /extract HTTP/1.1\r\nHost: coex\r\n%sContent-Length: %d\r\n\r\n"
        % (expect, MAX_BODY_BYTES + 1),
    )
    assert time.perf_counter() - start < 2.0
    status, head, answer = _only_response(data)
    assert status == 413
    assert b"\r\nconnection: close" in head
    assert "error" in json.loads(answer)


def test_expect_100_continue_is_answered_before_the_body(served):
    _, address, corpus = served
    request = json.dumps({"text": corpus[0].text}, ensure_ascii=False).encode("utf-8")
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(
            b"POST /extract HTTP/1.1\r\nHost: coex\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(request)
        )
        interim = b""
        while b"\r\n\r\n" not in interim:
            interim += sock.recv(4096)
        assert interim.startswith(b"HTTP/1.1 100 ")
        sock.sendall(request)
        final = interim.partition(b"\r\n\r\n")[2]
        while b"\r\n\r\n" not in final:
            final += sock.recv(4096)
        assert final.startswith(b"HTTP/1.1 200 ")


def test_extraction_runs_one_request_at_a_time():
    inside, most = [0], [0]
    count = threading.Lock()

    def slow_extract(text):
        with count:
            inside[0] += 1
            most[0] = max(most[0], inside[0])
        time.sleep(0.02)
        with count:
            inside[0] -= 1
        return []

    with running(create_server(_stub_model(slow_extract), ("127.0.0.1", 0))) as address:
        statuses = []

        def client():
            for _ in range(3):
                statuses.append(_post(address, "/extract", b'{"text": "x"}')[0])

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert statuses == [200] * 12
        assert most[0] == 1

        # a client stalled mid-body holds only its own connection
        with socket.create_connection(address, timeout=5) as stalled:
            stalled.sendall(
                b"POST /extract HTTP/1.1\r\nHost: coex\r\nContent-Length: 100\r\n\r\n{\""
            )
            time.sleep(0.05)
            start = time.perf_counter()
            assert _post(address, "/extract", b'{"text": "x"}')[0] == 200
            assert time.perf_counter() - start < 1.0


def test_shutdown_with_clients_connected_leaves_no_thread():
    before = set(threading.enumerate())
    server = create_server(_stub_model(lambda text: []), ("127.0.0.1", 0))
    address = server.server_address
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    with socket.create_connection(address, timeout=5) as idle, socket.create_connection(
        address, timeout=5
    ) as mid_body:
        idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: coex\r\n\r\n")
        assert idle.recv(65536).startswith(b"HTTP/1.1 200 ")
        mid_body.sendall(b"POST /extract HTTP/1.1\r\nHost: coex\r\nContent-Length: 100\r\n\r\n{\"")
        time.sleep(0.05)
        start = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - start < 1.0
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert set(threading.enumerate()) <= before
        assert idle.recv(65536) == b"" and mid_body.recv(65536) == b""
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=5).close()
