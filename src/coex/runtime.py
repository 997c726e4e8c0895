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
    _header_dict,
    _params_from_tensors,
    flush_subnormals,
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

    Tensors carry requires_grad=False, so extraction never allocates graph
    nodes; the instance is safe to share across threads.
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

    The written weights are float32 copies with subnormals flushed to zero, so
    a model trained without the optimizer's flush still serves at full speed;
    `params` is left as it was.
    """
    flushed = {
        name: flush_subnormals(t.data.astype(np.float32)) for name, t in params.named_tensors()
    }
    params = _params_from_tensors(_header_dict(params, config), flushed)[0]
    extra = {
        "vocab": list(vocab.tokens[len(RESERVED) :]),
        "schema": list(schema.predicates),
        "model_version": model_fingerprint(params),
    }
    save_checkpoint(params, config, path, extra=extra)


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


def _extract_response(model: InferenceModel, raw: bytes) -> tuple[int, bytes]:
    start = time.perf_counter()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return 400, json.dumps({"error": "body is not valid JSON"}).encode("utf-8")
    if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
        return 400, json.dumps({"error": 'body must be {"text": "..."}'}).encode("utf-8")
    text = obj["text"]
    triples = json.dumps(triples_to_payload(model.extract(text)), ensure_ascii=False)
    trailer = {
        "truncated": model.truncates(text),
        "model_version": model.model_version,
        "request_bytes": len(raw),
        # parsing, extraction, the truncation check and serializing the
        # triples; formatting this trailer and the transfer are excluded
        "latency_ms": round((time.perf_counter() - start) * 1000.0, 3),
    }
    head = '{"triples": ' + triples + ", " + json.dumps(trailer, ensure_ascii=False)[1:-1]
    return 200, _close_with_self_byte_count(head)


def _make_handler(model: InferenceModel, quiet: bool = True):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):
            if not quiet:
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

        def _send(self, status: int, body: bytes):
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/healthz":
                body = json.dumps(
                    {"status": "ok", "model_version": model.model_version}
                ).encode("utf-8")
                self._send(200, body)
            else:
                self._send(404, json.dumps({"error": "unknown path"}).encode("utf-8"))

        def do_POST(self):
            if self.path != "/extract":
                self._send(404, json.dumps({"error": "unknown path"}).encode("utf-8"))
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = 0
            raw = self.rfile.read(max(length, 0))
            try:
                status, body = _extract_response(model, raw)
            except Exception:
                # answer and keep the connection; the traceback goes to stderr
                # even when quiet
                BaseHTTPRequestHandler.log_message(
                    self, "internal error on %s:\n%s", self.path, traceback.format_exc()
                )
                status, body = 500, json.dumps({"error": "internal error"}).encode("utf-8")
            self._send(status, body)

    return Handler


def create_server(
    model: InferenceModel, address: tuple[str, int] = ("127.0.0.1", 0), quiet: bool = True
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server; the caller drives serve_forever."""
    server = ThreadingHTTPServer(address, _make_handler(model, quiet))
    server.daemon_threads = True
    return server


def serve(model: InferenceModel, address: tuple[str, int], quiet: bool = True):
    """Serve until interrupted; data never leaves the process."""
    server = create_server(model, address, quiet)
    try:
        server.serve_forever()
    finally:
        server.server_close()
