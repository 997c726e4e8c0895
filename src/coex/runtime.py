"""Forward-only inference runtime: self-contained artifacts, local service.

The export artifact reuses the checkpoint container; its header additionally
carries the vocabulary, the predicate schema, and a fingerprint of the tensor
payload, so a single file restores everything inference needs. The HTTP
service answers every request from shared read-only weights and never opens
an outbound connection, so text stays on the machine it arrived at.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .data import RESERVED, Vocab, tokenize
from .encoder import EncoderConfig
from .evaluator import triples_to_payload
from .tagger import ModelParams, RelationSchema, Triple, extract_triples
from .trainer import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    TrainConfig,
    _params_from_tensors,
    flush_small_weights,
    read_checkpoint,
    save_checkpoint,
)


def model_fingerprint(params: ModelParams) -> str:
    """12-hex-digit digest over tensor names, shapes, and 32-bit payloads."""
    h = hashlib.sha256()
    for name, t in params.named_tensors():
        h.update(name.encode("utf-8"))
        h.update(repr(tuple(t.data.shape)).encode("ascii"))
        h.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    return h.hexdigest()[:12]


@dataclass
class InferenceModel:
    """Frozen parameters plus everything needed to turn text into triples.

    Tensors carry requires_grad=False, so extraction builds no Tensor: every
    op unwraps them and returns plain arrays. The instance is safe to share
    across threads.
    """

    params: ModelParams
    config: EncoderConfig
    vocab: Vocab
    schema: RelationSchema
    threshold: float
    model_version: str

    def extract(self, text: str) -> list[Triple]:
        """Deterministic extraction; equals the training forward with dropout off."""
        return extract_triples(
            text, self.params, self.config, self.vocab, self.schema, self.threshold
        )

    def truncates(self, text: str) -> bool:
        tokens, _ = tokenize(text)
        return len(tokens) > self.config.max_seq_len


def inference_model(
    params: ModelParams, config: TrainConfig, vocab: Vocab, schema: RelationSchema
) -> InferenceModel:
    """Freeze params for extraction. Export and load both pass through here, so
    neither accepts a vocab or schema whose size disagrees with the tensors."""
    implied = (params.encoder.token_emb.shape[0], params.num_relations)
    if (len(vocab), len(schema)) != implied:
        raise CheckpointIntegrityError(
            f"vocab and schema sizes {len(vocab), len(schema)}, the tensors imply {implied}"
        )
    return InferenceModel(
        params=params.freeze(),
        config=config.encoder,
        vocab=vocab,
        schema=schema,
        threshold=config.threshold,
        model_version=model_fingerprint(params),
    )


def export_model(
    params: ModelParams, config: TrainConfig, vocab: Vocab, schema: RelationSchema, path
):
    """Write one artifact holding weights, config, vocab, and schema.

    The written weights are float32 copies flushed by the optimizer's rule
    (flush_small_weights), so a model trained without that flush still
    serves at full speed; `params` is left as it was.
    """
    flushed = params.map(lambda a: flush_small_weights(a.astype(np.float32)))
    model = inference_model(flushed, config, vocab, schema)
    extra = {
        "vocab": list(vocab.tokens[len(RESERVED) :]),
        "schema": list(schema.predicates),
        "model_version": model.model_version,
    }
    save_checkpoint(model.params, config, path, extra=extra)


def load_inference_model(path) -> InferenceModel:
    header, tensors = read_checkpoint(path)
    for section in ("vocab", "schema"):
        if not isinstance(header.get(section), list):
            raise CheckpointFormatError(f"artifact header lacks {section} section")
    params, config = _params_from_tensors(header, tensors)
    model = inference_model(
        params,
        config,
        Vocab.from_tokens(header["vocab"]),
        RelationSchema(tuple(header["schema"])),
    )
    declared = header.get("model_version")
    if declared is not None and declared != model.model_version:
        raise CheckpointIntegrityError(
            f"tensor payload fingerprint {model.model_version} != declared {declared}"
        )
    return model


# ---------------------------------------------------------------------------
# HTTP service

MAX_BODY_BYTES = 1 << 20  # the largest POST body the service reads


def _close_with_self_byte_count(head: str) -> bytes:
    """Close the JSON object `head` (open, at least one member) with a last
    member, response_bytes, equal to the final body length.

    The count participates in the body, so iterate to a fixed point; the
    length only changes while the digit count grows, which caps the loop.
    """
    head = (head + ', "response_bytes": ').encode("utf-8")
    n = len(head) + 2
    while n != len(head) + len(str(n)) + 1:
        n = len(head) + len(str(n)) + 1
    return head + b"%d}" % n


def _error(message: str) -> bytes:
    return json.dumps({"error": message}).encode("utf-8")


def _extract_response(model: InferenceModel, raw: bytes) -> tuple[int, bytes]:
    start = time.perf_counter()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return 400, _error("body is not valid JSON")
    if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
        return 400, _error('body must be {"text": "..."}')
    text = obj["text"]
    triples = json.dumps(triples_to_payload(model.extract(text)), ensure_ascii=False)
    trailer = {
        "truncated": model.truncates(text),
        "model_version": model.model_version,
        "request_bytes": len(raw),
        # parsing, extraction, the truncation check and serializing the
        # triples; formatting this trailer, the transfer and the wait for
        # the extraction lock are excluded
        "latency_ms": round((time.perf_counter() - start) * 1000.0, 3),
    }
    head = '{"triples": ' + triples + ", " + json.dumps(trailer, ensure_ascii=False)[1:-1]
    return 200, _close_with_self_byte_count(head)


def _refuse_body(headers) -> tuple[int, str] | None:
    """Status and message for a POST body that cannot be read safely, else None.

    The body is framed by one decimal Content-Length of at most
    MAX_BODY_BYTES. Chunked bodies are not decoded. A refused body is never
    read, so the connection closes after the answer.
    """
    if "Transfer-Encoding" in headers:
        return 411, "chunked bodies are not accepted; send Content-Length"
    lengths = headers.get_all("Content-Length", [])
    if not lengths:
        return 411, "Content-Length is required"
    value = lengths[0].strip()
    if len(lengths) > 1 or not (value.isascii() and value.isdigit()):
        return 400, "Content-Length must be one non-negative integer"
    if int(value) > MAX_BODY_BYTES:
        return 413, f"body exceeds {MAX_BODY_BYTES} bytes"
    return None


def _make_handler(model: InferenceModel, quiet: bool = True):
    """A handler class bound to one model and one extraction lock.

    Every response leaves in one send: `wbufsize = -1` buffers `wfile`, and
    `handle_one_request` flushes it once per request. Were the body sent
    apart from the headers, Nagle's algorithm would hold it until the
    client's delayed ACK, ~40 ms per keep-alive request. A body over the
    8 KiB buffer still takes a second send, and that wait.

    The lock lets one thread extract at a time, so concurrent requests do not
    interleave inside `extract`. It is taken after the body has been read and
    released before the response is written, so it is never held across
    socket I/O, and a slow client stalls only its own thread.
    """
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        wbufsize = -1

        def log_message(self, fmt, *args):
            if not quiet:
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

        def handle_expect_100(self):
            # never ask for a body that do_POST refuses; and the interim
            # answer must not wait in the buffer for the final one
            if _refuse_body(self.headers) is None:
                BaseHTTPRequestHandler.handle_expect_100(self)
                self.wfile.flush()
            return True

        def _send(self, status: int, body: bytes, close: bool = False):
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/healthz":
                body = json.dumps(
                    {"status": "ok", "model_version": model.model_version}
                ).encode("utf-8")
                self._send(200, body)
            else:
                self._send(404, _error("unknown path"))

        def do_POST(self):
            # frame the body before routing, so that a keep-alive connection
            # never reads a left-over body as its next request
            refusal = _refuse_body(self.headers)
            if refusal is not None:
                status, message = refusal
                self._send(status, _error(message), close=True)
                return
            length = int(self.headers["Content-Length"])
            raw = self.rfile.read(length)
            if len(raw) < length:  # the client closed mid-body
                self.close_connection = True
                return
            if self.path != "/extract":
                self._send(404, _error("unknown path"))
                return
            try:
                with lock:
                    status, body = _extract_response(model, raw)
            except Exception:
                # answer and keep the connection; the traceback goes to stderr
                # even when quiet
                BaseHTTPRequestHandler.log_message(
                    self, "internal error on %s:\n%s", self.path, traceback.format_exc()
                )
                status, body = 500, _error("internal error")
            self._send(status, body)

    return Handler


def create_server(
    model: InferenceModel, address: tuple[str, int] = ("127.0.0.1", 0), quiet: bool = True
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server; the caller drives serve_forever.

    A thread per connection reads requests and writes responses
    concurrently; extraction runs one request at a time (see
    `_make_handler`). A POST needs a Content-Length of at most MAX_BODY_BYTES:
    a missing length or a chunked body is answered 411, an invalid length
    400 and a larger one 413, each without reading the body and with
    `Connection: close`.
    """
    server = ThreadingHTTPServer(address, _make_handler(model, quiet))
    server.daemon_threads = True
    return server
