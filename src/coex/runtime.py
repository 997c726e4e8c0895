"""Forward-only inference runtime: self-contained artifacts, local service.

The export artifact reuses the checkpoint container; its header additionally
carries the vocabulary, the predicate schema, and a fingerprint of the tensor
payload, so a single file restores everything inference needs. The HTTP
service answers every request from shared read-only weights and never opens
an outbound connection, so text stays on the machine it arrived at.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from http import HTTPStatus

import numpy as np

from . import __version__
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
MAX_HEAD_BYTES = 1 << 16  # request line and headers together; the stream reader's limit
REQUEST_TIMEOUT_S = 30.0  # an idle keep-alive wait, and a request's first byte to its last

_SERVER = "coex/%s Python/%d.%d.%d" % (__version__, *sys.version_info[:3])
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


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
        # triples; formatting this trailer and the transfer are excluded
        "latency_ms": round((time.perf_counter() - start) * 1000.0, 3),
    }
    head = '{"triples": ' + triples + ", " + json.dumps(trailer, ensure_ascii=False)[1:-1]
    return 200, _close_with_self_byte_count(head)


def _response(status: int, body: bytes, close: bool) -> bytes:
    """Status line, headers and body in one buffer, so that one write sends
    them together: a body sent apart would wait ~40 ms for the client's
    delayed ACK on a keep-alive connection."""
    t = time.gmtime()
    date = "%s, %02d %s %d %02d:%02d:%02d GMT" % (
        _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year,
        t.tm_hour, t.tm_min, t.tm_sec,
    )
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Server: {_SERVER}\r\nDate: {date}\r\n"
        "Content-Type: application/json; charset=utf-8\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + body


class _Refusal(Exception):
    """A request answered with `status` and `Connection: close`, its body unread."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_head(reader: asyncio.StreamReader, first: bytes) -> list[bytes] | None:
    """The lines of a request head, `first` byte included, up to the blank
    line that ends it; None when the client closed mid-head."""
    lines, size = [], 0
    try:
        line = first + await reader.readline()
        while line not in (b"\r\n", b"\n"):
            size += len(line)
            if size > MAX_HEAD_BYTES:
                raise ValueError
            if not line.endswith(b"\n"):
                return None
            lines.append(line)
            line = await reader.readline()
    except ValueError:  # past MAX_HEAD_BYTES, or one line past the reader's limit
        raise _Refusal(431, f"request head exceeds {MAX_HEAD_BYTES} bytes") from None
    return lines


def _parse_head(lines: list[bytes]) -> tuple[str, str, str, dict[str, list[str]]]:
    """Method, path, version and lower-cased header name -> values."""
    words = lines[0].decode("latin-1").split() if lines else []
    if len(words) != 3:
        raise _Refusal(400, "malformed request line")
    method, path, version = words
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        major, _, minor = version[5:].partition(".")
        if version[:5] != "HTTP/" or not (major.isdecimal() and minor.isdecimal()):
            raise _Refusal(400, "malformed request line")
        raise _Refusal(505, "only HTTP/1.0 and HTTP/1.1 are served")
    if method not in ("GET", "POST"):
        raise _Refusal(501, f"method {method} is not served")
    headers: dict[str, list[str]] = {}
    for line in lines[1:]:
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise _Refusal(400, "malformed header line")
        headers.setdefault(name.lower(), []).append(value.strip())
    return method, path, version, headers


def _refuse_body(method: str, headers: dict[str, list[str]]) -> tuple[int, str] | None:
    """Status and message for a request body that cannot be framed safely,
    else None.

    A body is framed by one decimal Content-Length of at most MAX_BODY_BYTES;
    a GET may omit it and then has none. Chunked bodies are not decoded. A
    refused body is never read, so the connection closes after the answer.
    """
    if "transfer-encoding" in headers:
        return 411, "chunked bodies are not accepted; send Content-Length"
    lengths = headers.get("content-length", [])
    if not lengths:
        return (411, "Content-Length is required") if method == "POST" else None
    value = lengths[0]
    if len(lengths) > 1 or not (value.isascii() and value.isdigit()):
        return 400, "Content-Length must be one non-negative integer"
    if int(value) > MAX_BODY_BYTES:
        return 413, f"body exceeds {MAX_BODY_BYTES} bytes"
    return None


class ExtractionServer:
    """The HTTP service on one asyncio event loop, driven like a socketserver
    server: `serve_forever` on one thread, `shutdown` from another, then
    `server_close`.

    Each connection is a coroutine on the loop's thread, and each request's
    extraction runs inline in it, so requests are extracted one at a time
    without a lock and no thread is started per connection. Every request
    body is framed before routing (`_refuse_body`), so a keep-alive
    connection never reads a left-over body as its next request.
    """

    def __init__(self, model: InferenceModel, sock: socket.socket, quiet: bool = True):
        self.server_address = sock.getsockname()
        self._model = model
        self._sock = sock
        self._quiet = quiet
        self._health = json.dumps(
            {"status": "ok", "model_version": model.model_version}
        ).encode("utf-8")
        self._loop = asyncio.new_event_loop()
        self._stop = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        self._returned = threading.Event()
        self._returned.set()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until `shutdown`. `poll_interval` keeps socketserver's
        signature and is unused: `shutdown` wakes the loop itself."""
        self._returned.clear()
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._returned.set()

    def shutdown(self) -> None:
        """Stop accepting and return once `serve_forever` has returned; call it
        from another thread. Open connections stay until `server_close`."""
        self._loop.call_soon_threadsafe(self._stop.set)
        self._returned.wait()

    def server_close(self) -> None:
        """Close every connection, the listening socket and the loop, once
        `serve_forever` has returned or if it never ran."""
        if self._loop.is_closed():
            return
        # ends _serve if KeyboardInterrupt left it pending, and turns away
        # connections accepted but not yet started
        self._stop.set()
        # an aborted connection's coroutine reads EOF and returns; a
        # cancelled one would make 3.11's streams log the CancelledError
        for writer in self._writers:
            writer.transport.abort()
        while pending := asyncio.all_tasks(self._loop):
            self._loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        self._loop.close()
        self._sock.close()

    async def _serve(self):
        server = await asyncio.start_server(
            self._connection, sock=self._sock, limit=MAX_HEAD_BYTES
        )
        try:
            await self._stop.wait()
        finally:
            server.close()

    async def _connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        """Answer the connection's requests in order until one closes it.

        A timer bounds each wait: an idle connection, or a client that does
        not read its answers, is dropped without an answer; a request whose
        head and body have not arrived REQUEST_TIMEOUT_S after its first byte
        is answered 408 and closed.
        """
        if self._stop.is_set():
            writer.close()
            return
        self._writers.add(writer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                timer = loop.call_later(REQUEST_TIMEOUT_S, writer.transport.abort)
                try:
                    await writer.drain()
                    first = await reader.read(1)
                finally:
                    timer.cancel()
                if not first or writer.is_closing():
                    return
                timer = loop.call_later(REQUEST_TIMEOUT_S, self._time_out, writer)
                try:
                    request = await self._read_request(reader, writer, first)
                except _Refusal as refusal:
                    self._answer(writer, refusal.status, _error(str(refusal)), True, "-")
                    return
                finally:
                    timer.cancel()
                if request is None or writer.is_closing():
                    return
                method, path, version, keep_alive, raw = request
                status, body = self._route(method, path, raw)
                self._answer(
                    writer, status, body, not keep_alive, f"{method} {path} {version}"
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away, or the timer closed the connection
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _read_request(self, reader, writer, first: bytes):
        """Method, path, version, keep-alive and body of one request; None if
        the client closed mid-head. Raises _Refusal for a request that is
        answered without reading its body."""
        lines = await _read_head(reader, first)
        if lines is None:
            return None
        method, path, version, headers = _parse_head(lines)
        connection = headers.get("connection", [""])[0].lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        refusal = _refuse_body(method, headers)
        if refusal is not None:
            raise _Refusal(*refusal)
        length = int(headers.get("content-length", ["0"])[0])
        expect = headers.get("expect", [""])[0].lower()
        if length and version == "HTTP/1.1" and expect == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = await reader.readexactly(length)
        return method, path, version, keep_alive, raw

    def _route(self, method: str, path: str, raw: bytes) -> tuple[int, bytes]:
        if method == "GET" and path == "/healthz":
            return 200, self._health
        if method != "POST" or path != "/extract":
            return 404, _error("unknown path")
        try:
            return _extract_response(self._model, raw)
        except Exception:
            # answer and keep the connection; the traceback goes to stderr
            # even when quiet
            sys.stderr.write(f"internal error on {path}:\n{traceback.format_exc()}")
            return 500, _error("internal error")

    def _time_out(self, writer: asyncio.StreamWriter):
        self._answer(writer, 408, _error("request timed out"), True, "-")
        writer.close()

    def _answer(self, writer, status: int, body: bytes, close: bool, request: str):
        writer.write(_response(status, body, close))
        if not self._quiet:
            peer = writer.get_extra_info("peername") or ("-",)
            when = time.strftime("%d/%b/%Y %H:%M:%S")
            sys.stderr.write(f'{peer[0]} - - [{when}] "{request}" {status} -\n')


def create_server(
    model: InferenceModel, address: tuple[str, int] = ("127.0.0.1", 0), quiet: bool = True
) -> ExtractionServer:
    """Bind the service's socket; the caller drives serve_forever.

    `POST /extract` answers with triples and `GET /healthz` with the model
    version. A POST needs a Content-Length of at most MAX_BODY_BYTES: a
    missing length or a chunked body is answered 411, an invalid length 400
    and a larger one 413. A head over MAX_HEAD_BYTES is answered 431, a
    malformed one 400, a method other than GET and POST 501 and a version
    other than HTTP/1.0 and 1.1 505. Each of these answers carries
    `Connection: close` and is sent without reading the body.
    """
    return ExtractionServer(model, socket.create_server(address), quiet)
