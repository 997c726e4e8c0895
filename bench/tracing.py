"""Spans recorded from outside the program, by wrapping coex's functions.

A span is (id, parent, name, start, end, req). Spans nest per thread: a
wrapped call opened while another is open on the same thread becomes its
child. `req` groups the spans of one request or training batch: a site marked
`new_request` starts a fresh id, and every span opened after it on that thread
carries the id until the next such site. Spans stay in memory and are written
out once, when the run ends.

Functions are wrapped where their callers look them up. `coex.tagger` imports
`encode` by name, so the encoder is wrapped as `coex.tagger.encode`, not
`coex.encoder.encode`; `coex.trainer` and `coex.runtime` hold their own
references to `extract_triples`, and so on (see full_sites).
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    req: int  # 0 outside any request or batch


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._reqs = itertools.count(1)
        self._local = threading.local()
        self.enabled = True

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.req = 0
        return st

    def count(self, name: str, value: float = 1.0):
        self.counts[name].append(value)

    def wrap(
        self, fn, name, new_request: bool = False, on_call=None, on_result=None,
        always: bool = False,
    ):
        """Return fn timed as a span. `name` is a string or a function of the
        call's positional arguments; on_call(args) runs before the clock
        starts, on_result(result) after it stops. While `enabled` is false
        the wrapper only calls through, unless `always` is set."""
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            if not (always or self.enabled):
                return fn(*args, **kwargs)
            st = self._state()
            if on_call is not None:
                on_call(args)
            if new_request:
                st.req = next(self._reqs)
            sid = next(ids)
            parent = st.stack[-1] if st.stack else 0
            st.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                label = name if isinstance(name, str) else name(args)
                spans.append(Span(sid, parent, label, start, end, st.req))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path, meta: dict):
        """Write one JSON header line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "counts": self.counts}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def load_trace(path) -> Tracer:
    """Read back what Tracer.dump wrote."""
    tracer = Tracer()
    with open(path, encoding="utf-8") as fh:
        tracer.counts.update(json.loads(fh.readline())["counts"])
        tracer.spans = [Span(*json.loads(line)) for line in fh]
    return tracer


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = (s.end - s.start) - _union_length(clipped)
    return out


def request_roots(spans) -> dict[int, str]:
    """req id -> name of the span that opened it (the earliest span of the req)."""
    first: dict[int, Span] = {}
    for s in spans:
        if s.req and (s.req not in first or s.start < first[s.req].start):
            first[s.req] = s
    return {req: s.name for req, s in first.items()}


def layer_self_per_request(spans, root: str) -> tuple[dict[str, float], int]:
    """Mean self seconds per request, by span name, over the requests that
    `root` opened; also returns the number of those requests."""
    roots = request_roots(spans)
    reqs = {req for req, name in roots.items() if name == root}
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.req in reqs:
            totals[s.name] += selfs[s.id]
    n = len(reqs)
    return {k: v / n for k, v in totals.items()} if n else {}, n


def total_by_name(spans, name: str, self_only: bool = False) -> float:
    """Seconds spent in every span called `name`, inclusive of its children
    unless self_only."""
    picked = [s for s in spans if s.name == name]
    if self_only:
        selfs = self_times(spans)
        return sum(selfs[s.id] for s in picked)
    return sum(s.end - s.start for s in picked)


# ---------------------------------------------------------------------------
# where coex is wrapped


def graph_nodes(loss) -> int:
    """Tensors reachable from loss through recorded graph edges."""
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


class Instrumentation:
    """Installs wrappers at the lookup sites and restores them on exit."""

    def __init__(self, tracer: Tracer, sites):
        self.tracer = tracer
        self.sites = sites
        self._saved = []

    def __enter__(self):
        for module_name, attr, make in self.sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(self.tracer, original))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _span(name, **kw):
    return lambda tracer, fn: tracer.wrap(fn, name, **kw)


def _counter(name):
    def make(tracer, fn):
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    return make


class _LayerIndex:
    """Maps LayerParams objects to their index in the encoder stack; the
    encode wrapper refreshes it, so attention and FFN spans can be named
    per layer."""

    def __init__(self):
        self.index: dict[int, int] = {}

    def encode_site(self, tracer, fn):
        def learn(args):
            for i, layer in enumerate(args[1].layers):
                self.index[id(layer)] = i

        return tracer.wrap(fn, "encoder.encode", on_call=learn)

    def named(self, suffix, layer_arg):
        return _span(lambda args: f"encoder.layer{self.index.get(id(args[layer_arg]), '?')}.{suffix}")


def step_sites(tracer: Tracer, alternate: bool):
    """Two spans per training batch that time each optimizer step (forward
    through update) and catch a non-finite loss. They are the only wrappers
    in an untraced training run. With `alternate`, each batch start switches
    the other wrappers on for odd batches and off for even ones, so one run
    yields both traced and untraced steps; the step spans of untraced
    batches are named "untraced.*"."""
    batches = itertools.count()

    def start_batch(args):
        if alternate:
            tracer.enabled = next(batches) % 2 == 1

    def check(parts):
        if not math.isfinite(parts.total.item()):
            tracer.count("train.nonfinite_loss")

    def named(label):
        return lambda args: label if tracer.enabled else "untraced." + label.split(".")[1]

    return [
        ("coex.trainer", "joint_loss", _span(
            named("tagger.joint_loss"), new_request=True, on_call=start_batch,
            on_result=check, always=True,
        )),
        ("coex.trainer", "adagrad_step", _span(named("trainer.adagrad"), always=True)),
    ]


def full_sites(tracer: Tracer):
    """Every layer boundary. Per-epoch evaluation in training is always
    traced."""
    layers = _LayerIndex()

    def subjects(result):
        tracer.count("tagger.subjects_per_text", len(result))

    def nodes(args):
        tracer.count("autograd.nodes_per_batch", graph_nodes(args[0]))

    def enable(args):
        tracer.enabled = True

    return [
        ("coex.runtime", "extract_triples", _span("runtime.extract", new_request=True)),
        ("coex.trainer", "extract_triples", _span(
            "trainer.eval", new_request=True, on_call=enable, always=True,
        )),
        ("coex.data", "tokenize", _span("data.tokenize")),
        ("coex.runtime", "tokenize", _span("data.tokenize")),
        ("coex.trainer", "encode_corpus", _span("data.encode_corpus")),
        ("coex.trainer", "sample_negatives", _span("data.sample_negatives")),
        ("coex.tagger", "encode", layers.encode_site),
        ("coex.encoder", "embed_inputs", _span("encoder.embed")),
        ("coex.encoder", "multi_head_attention", layers.named("attn", 2)),
        ("coex.encoder", "feed_forward", layers.named("ffn", 1)),
        ("coex.tagger", "subject_scores", _span("tagger.subject_head")),
        ("coex.tagger", "condition_on_subject", _span("tagger.condition")),
        ("coex.tagger", "condition_on_spans", _span("tagger.condition")),
        ("coex.tagger", "relation_object_scores", _span("tagger.relation_head")),
        ("coex.tagger", "decode_subject_spans", _span("tagger.decode", on_result=subjects)),
        ("coex.tagger", "decode_objects", _span("tagger.decode")),
        ("coex.tagger", "decode_spans", _counter("tagger.decode_calls")),
        ("coex.autograd", "backward", _span("autograd.backward", on_call=nodes)),
    ]
