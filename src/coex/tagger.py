"""Cascade binary pointer tagging for joint triple extraction.

One shared encoder feeds two heads. The subject head tags start/end pointers
per token. The relation-object head, conditioned on a subject span by adding
the span's mean hidden vector to every position, tags start/end pointers per
token per relation. Being linear, it is computed factorized, (h + m)·W + b =
h·W + m·W + b, and never forms the conditioned rows. Both heads squash logits
through a squared sigmoid and the same squared scores are thresholded at
decode time.

Training uses teacher forcing: gold subject spans (plus sampled negative
spans, which carry all-zero object labels) condition the relation head, and
the two binary cross-entropy terms are summed into one joint loss.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .autograd import (
    DEFAULT_DTYPE,
    Rng,
    Tensor,
    add,
    dropout,
    matmul,
    sigmoid,
    square,
    _make,
)
from .encoder import (
    EncodedInput,
    EncoderConfig,
    EncoderParams,
    LayerParams,
    encode,
    init_encoder_params,
    pad_batch,
)


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class Span:
    """Inclusive token span [start, end]."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Triple:
    subject: str
    predicate: str
    object: str
    subject_span: Span | None = None
    object_span: Span | None = None

    def key(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)


@dataclass(frozen=True)
class RelationSchema:
    predicates: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(self.predicates))
        if not self.predicates:
            raise SchemaError("schema must list at least one predicate")
        if len(set(self.predicates)) != len(self.predicates):
            raise SchemaError("schema predicates must be unique")
        if any(not p for p in self.predicates):
            raise SchemaError("schema predicates must be non-empty strings")
        object.__setattr__(
            self, "_index", {p: i for i, p in enumerate(self.predicates)}
        )

    def index(self, predicate: str) -> int:
        try:
            return self._index[predicate]
        except KeyError:
            raise SchemaError(f"predicate {predicate!r} not in schema") from None

    def __len__(self) -> int:
        return len(self.predicates)


@dataclass
class ModelParams:
    """Encoder weights plus both head projections, named for serialization."""

    encoder: EncoderParams
    subject_w: Tensor
    subject_b: Tensor
    relation_w: Tensor
    relation_b: Tensor

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [
            ("token_emb", self.encoder.token_emb),
            ("segment_emb", self.encoder.segment_emb),
            ("position_emb", self.encoder.position_emb),
        ]
        for i, layer in enumerate(self.encoder.layers):
            out += [(f"layer{i}.{f.name}", getattr(layer, f.name)) for f in fields(LayerParams)]
        out.extend(
            [
                ("subject_w", self.subject_w),
                ("subject_b", self.subject_b),
                ("relation_w", self.relation_w),
                ("relation_b", self.relation_b),
            ]
        )
        return out

    @property
    def num_relations(self) -> int:
        return self.relation_b.shape[0] // 2

    def zero_grads(self):
        for _, t in self.named_tensors():
            t.zero_grad()

    def freeze(self):
        """Drop every tensor out of autograd: no grad flag, no held gradient."""
        for _, t in self.named_tensors():
            t.requires_grad = False
            t.grad = None
        return self


def init_model_params(
    config: EncoderConfig, num_relations: int, rng: Rng, dtype=DEFAULT_DTYPE
) -> ModelParams:
    if num_relations <= 0:
        raise ValueError("num_relations must be positive")
    enc = init_encoder_params(config, rng, dtype=dtype)
    d = config.model_dim
    return ModelParams(
        encoder=enc,
        subject_w=Tensor(rng.uniform(-0.02, 0.02, (d, 2), dtype=dtype), requires_grad=True),
        subject_b=Tensor(np.zeros(2, dtype=dtype), requires_grad=True),
        relation_w=Tensor(
            rng.uniform(-0.02, 0.02, (d, 2 * num_relations), dtype=dtype), requires_grad=True
        ),
        relation_b=Tensor(np.zeros(2 * num_relations, dtype=dtype), requires_grad=True),
    )


@dataclass
class PointerScores:
    """Pointer logits per token; `logits` keeps the grad path. The
    squared-sigmoid scores are computed on first read, so training, which
    reads only the logits, never computes them."""

    logits: Tensor

    @cached_property
    def scores(self) -> Tensor:
        return square(sigmoid(self.logits))


class SubjectScores(PointerScores):
    """Columns 0 = start, 1 = end."""

    start = property(lambda self: self.scores.data[:, 0])
    end = property(lambda self: self.scores.data[:, 1])


class RelationObjectScores(PointerScores):
    """Columns [0:R] = starts, [R:2R] = ends."""

    start = property(lambda self: self.scores.data[:, : self.logits.shape[1] // 2])
    end = property(lambda self: self.scores.data[:, self.logits.shape[1] // 2 :])


def subject_scores(
    hidden: Tensor,
    params: ModelParams,
    dropout_p: float = 0.0,
    training: bool = False,
    rng: Rng | None = None,
) -> SubjectScores:
    h = dropout(hidden, dropout_p, training, rng)
    return SubjectScores(add(matmul(h, params.subject_w), params.subject_b))


def relation_object_scores(
    hidden: Tensor,
    means: Tensor,
    spans: list[list[Span]],
    lengths: list[int],
    params: ModelParams,
) -> RelationObjectScores:
    """Logits [sum of len(spans[b]) * lengths[b], 2R]: per example, one block of
    its rows per span, each hidden·W plus that span's row of means·W, plus the
    bias. means is condition_on_spans(hidden, spans, lengths)."""
    tokens = matmul(hidden, params.relation_w)
    per_span = matmul(means, params.relation_w)
    return RelationObjectScores(
        add(_pack_span_blocks(tokens, per_span, spans, lengths), params.relation_b)
    )


def _pair_pointers(
    start: np.ndarray, end: np.ndarray, mask: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(column, start, end) index arrays for [n, C] pointer scores, in one pass.

    Each above-threshold start pairs with the nearest above-threshold end at or
    after it in the same column; unpaired starts are dropped. Masked positions
    can neither start nor end a span. Pairs come ordered by column, then start.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    n = start.shape[0]
    unmasked = (np.asarray(mask) == 1)[:, None]
    ends = (end >= threshold) & unmasked
    # nearest end at or after each position, n where there is none
    nearest = np.where(ends, np.arange(n)[:, None], n)
    nearest = np.minimum.accumulate(nearest[::-1], axis=0)[::-1]
    cols, starts = np.nonzero(((start >= threshold) & unmasked).T)
    stops = nearest[starts, cols]
    paired = stops < n
    return cols[paired], starts[paired], stops[paired]


def decode_spans(
    start: np.ndarray, end: np.ndarray, mask: np.ndarray, threshold: float = 0.5
) -> list[Span]:
    """Pair each above-threshold start with the nearest end at or after it.

    Unpaired starts are dropped. Masked positions can neither start nor end a
    span. Nested and overlapping spans are allowed.
    """
    _, starts, stops = _pair_pointers(start[:, None], end[:, None], mask, threshold)
    return [Span(int(s), int(e)) for s, e in zip(starts, stops)]


def decode_subject_spans(
    scores: SubjectScores, mask: np.ndarray, threshold: float = 0.5
) -> list[Span]:
    return decode_spans(scores.start, scores.end, mask, threshold)


def decode_objects(
    scores: RelationObjectScores, mask: np.ndarray, threshold: float = 0.5
) -> list[tuple[int, Span]]:
    """All (relation index, object span) pairs, ordered by relation then start;
    each relation column decodes as decode_spans does, all in one pass."""
    rels, starts, stops = _pair_pointers(scores.start, scores.end, mask, threshold)
    return [(int(r), Span(int(s), int(e))) for r, s, e in zip(rels, starts, stops)]


def condition_on_subject(hidden: Tensor, span: Span) -> Tensor:
    """Add the mean hidden vector over the span's rows to every position.

    Nothing in coex calls it any more; bench/tracing.py still wraps it by
    name, and ROADMAP item 3 deletes it."""
    n = hidden.shape[0]
    if span.end >= n:
        raise ValueError(f"span ({span.start}, {span.end}) exceeds sequence length {n}")
    m = np.zeros((1, n), dtype=hidden.dtype)
    m[0, span.start : span.end + 1] = 1.0 / len(span)
    return add(hidden, matmul(Tensor(m), hidden))


def _span_blocks(rows: int, spans: list[list[Span]], lengths: list[int]):
    """(first token row, length, first span row, spans) of each example that
    has spans, for [B·L] token rows and spans packed example by example."""
    if not lengths or len(spans) != len(lengths) or rows % len(lengths):
        raise ValueError(f"{len(spans)} span lists and {len(lengths)} lengths for {rows} rows")
    width = rows // len(lengths)
    blocks, first_span = [], 0
    for b, (ss, n) in enumerate(zip(spans, lengths)):
        if not ss:
            continue
        if n > width or max(sp.end for sp in ss) >= n:
            raise ValueError(f"a span of example {b} exceeds its sequence length {n}")
        blocks.append((b * width, n, first_span, ss))
        first_span += len(ss)
    return blocks


def condition_on_spans(
    hidden: Tensor, spans: list[list[Span]], lengths: list[int]
) -> Tensor:
    """Mean hidden row of every span of a padded batch: [sum of len(spans[b]), d].

    hidden is [B·L, d]; example b has spans[b] over its first lengths[b] rows.
    Rows follow the spans example by example. One matmul by a constant
    averaging matrix, so the gradient needs no backward of its own.
    """
    rows = hidden.shape[0]
    avg = np.zeros((sum(len(ss) for ss in spans), rows), dtype=hidden.dtype)
    for first, _, lo, ss in _span_blocks(rows, spans, lengths):
        for i, sp in enumerate(ss):
            avg[lo + i, first + sp.start : first + sp.end + 1] = 1.0 / len(sp)
    return matmul(Tensor(avg), hidden)


def _pack_span_blocks(
    tokens: Tensor, per_span: Tensor, spans: list[list[Span]], lengths: list[int]
) -> Tensor:
    """Per example b and each of its spans s, the block tokens[rows of b] +
    per_span[s], packed into [sum of len(spans[b]) * lengths[b], C]. Backward
    sums each block over its spans for the token rows, and over its tokens
    for the span rows."""
    t, s = tokens.data, per_span.data
    c = t.shape[1]
    # (first token row, length, first span row, span count, first packed row)
    blocks, pos = [], 0
    for first, n, lo, ss in _span_blocks(t.shape[0], spans, lengths):
        blocks.append((first, n, lo, len(ss), pos))
        pos += len(ss) * n
    out = np.empty((pos, c), dtype=t.dtype)
    for first, n, lo, k, at in blocks:
        np.add(t[None, first : first + n], s[lo : lo + k, None], out=out[at : at + k * n].reshape(k, n, c))

    def back(g):
        gt, gs = np.zeros_like(t), np.zeros_like(s)
        for first, n, lo, k, at in blocks:
            g3 = g[at : at + k * n].reshape(k, n, c)
            gt[first : first + n] = g3.sum(axis=0)
            gs[lo : lo + k] = g3.sum(axis=1)
        return gt, gs

    return _make(out, (tokens, per_span), back)


def pointer_bce(
    logits: Tensor, labels: np.ndarray, weights: np.ndarray, divisor: float
) -> Tensor:
    """Weighted sum of squared-sigmoid BCE terms over divisor, fused with the logits.

    With divisor = the weight total this is the weighted mean, equal to the
    unfused BCE of square(sigmoid(logits)) away from its clip rails; with
    divisor = 1.0 the caller encodes per-group normalizers in the weights.
    Fusion keeps it exact under float32 saturation: the per-entry gradient is
    the bounded closed form -2y(1-s) + (1-y)*2s^2/(1+s) with s = sigmoid(logit).
    """
    if divisor <= 0.0:
        raise ValueError(f"pointer_bce: divisor must be positive, got {divisor}")
    z = logits.data
    labels = np.asarray(labels, dtype=z.dtype)
    weights = np.broadcast_to(np.asarray(weights, dtype=z.dtype), z.shape)
    e = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(z.dtype, copy=False)
    # softplus(x) = log1p(exp(-|x|)) + max(x, 0), and |-z| = |z|:
    # -log(s^2) = 2*softplus(-z); -log(1-s^2) = softplus(z) - log1p(s)
    soft = np.log1p(e)
    per = labels * 2.0 * (soft + np.maximum(-z, 0.0)) + (1.0 - labels) * (
        soft + np.maximum(z, 0.0) - np.log1p(sig)
    )
    out = np.asarray((per * weights).sum() / divisor, dtype=z.dtype)

    def back(g):
        dz = -2.0 * labels * (1.0 - sig) + (1.0 - labels) * 2.0 * sig * sig / (1.0 + sig)
        return (g * weights * dz / divisor,)

    return _make(out, (logits,), back)


@dataclass
class SubjectAnnotation:
    """Gold subject span with its per-relation object pointer labels."""

    span: Span
    object_start: np.ndarray  # [n, R]
    object_end: np.ndarray  # [n, R]


@dataclass
class LossParts:
    total: Tensor
    subject: float
    relation: float


@dataclass(frozen=True)
class LossWeighting:
    """Per-cell weight boosts for the relation BCE.

    positive multiplies gold pointer cells. adjacent multiplies zero cells
    within two token positions of a gold cell in the same column. column
    multiplies zero cells sharing a token position with a gold cell but lying
    in a different column, and wins where both zero-cell rules apply. All ones
    recovers the unweighted per-group mean.
    """

    positive: float = 1.0
    adjacent: float = 1.0
    column: float = 1.0

    @property
    def neutral(self) -> bool:
        return self.positive == self.adjacent == self.column == 1.0


def relation_cell_weights(
    labels: np.ndarray, base: np.ndarray, weighting: LossWeighting
) -> np.ndarray:
    """Expand per-position base weights [s, n, 1] to cell weights [s, n, 2R].

    Gold cells take the positive boost; the adjacent boost dilates two
    positions along the token axis, truncating at block edges, within each
    span block and column; the column boost covers the remaining zero cells
    of gold token positions.
    """
    pos = labels > 0.5
    out = np.broadcast_to(base, labels.shape)
    if weighting.neutral or not pos.any():
        return out
    near = np.zeros_like(pos)
    for shift in (1, 2):
        near[:, :-shift] |= pos[:, shift:]
        near[:, shift:] |= pos[:, :-shift]
    cross = pos.any(axis=2, keepdims=True) & ~pos
    # index bits: adjacent 1, column 2, gold 4; gold wins, then column
    rule = near.view(np.uint8) | (cross.view(np.uint8) << 1) | (pos.view(np.uint8) << 2)
    adj, col, gold = weighting.adjacent, weighting.column, weighting.positive
    boost = np.array([1.0, adj, col, col, gold, gold, gold, gold], dtype=out.dtype)
    return out * np.take(boost, rule)


def joint_loss(
    batch,
    params: ModelParams,
    config: EncoderConfig,
    rng: Rng | None = None,
    training: bool = True,
    weighting: LossWeighting | None = None,
) -> LossParts:
    """Subject BCE plus relation BCE, averaged over a batch of encoded examples.

    Gold subject spans and each example's sampled negative spans condition the
    relation head; negatives carry all-zero object labels. Each BCE averages
    over unmasked positions (and, for the relation term, over relations). The
    relation term sums the per-span mean BCE over gold conditioning spans, and
    the negative spans together contribute the sample mean of their per-span
    BCEs, estimating the rejection loss under the negative-sampling draw.
    Optional weighting boosts relation cells around the gold pointers; the
    positive cells of sparse pointer rows otherwise contribute too little
    gradient against the mass of zero cells for the head to pull them over
    the decision threshold.

    The whole batch runs as one padded forward: one encoder pass, one subject
    head, every conditioning span packed into one relation-head call, and one
    pointer_bce per head. Each dropout site draws one keep mask on the padded
    [B·L, d] rows, straight from rng. The relation head's input rows share one
    mask, and each span mean averages those dropped rows.
    """
    if not batch:
        raise ValueError("joint_loss: empty batch")
    r = params.num_relations
    dtype = params.encoder.token_emb.dtype
    lengths = [len(ex.input.input_ids) for ex in batch]
    spans = [[sub.span for sub in ex.subjects] + list(ex.negative_spans) for ex in batch]
    for ex, n in zip(batch, lengths):
        if len(ex.subject_start) != n or len(ex.subject_end) != n:
            raise ValueError(f"subject labels length {len(ex.subject_start)} != tokens {n}")
        for sub in ex.subjects:
            if sub.object_start.shape != (n, r) or sub.object_end.shape != (n, r):
                raise ValueError(f"object labels shape {sub.object_start.shape} != ({n}, {r})")
    x = pad_batch([ex.input for ex in batch])
    width = x.input_ids.shape[1]
    hidden = encode(x, params.encoder, config, training, rng)
    # each example's unmasked positions share its 1/B of the loss
    w = x.input_mask.astype(dtype)
    unmasked = w.sum(axis=1, keepdims=True)
    if not unmasked.all():
        raise ValueError("joint_loss: an example has no unmasked position")
    w /= unmasked * len(batch)
    sc = subject_scores(hidden, params, config.dropout_p, training, rng)
    s_labels = np.zeros((len(batch), width, 2), dtype=dtype)
    for b, ex in enumerate(batch):
        s_labels[b, : lengths[b], 0] = ex.subject_start
        s_labels[b, : lengths[b], 1] = ex.subject_end
    l_subject = pointer_bce(
        sc.logits, s_labels.reshape(-1, 2), (w / 2).reshape(-1, 1), 1.0
    )

    # relation rows packed as relation_object_scores packs them: per example,
    # one block of its n rows per span, gold spans first
    labels = np.zeros((sum(len(ss) * n for ss, n in zip(spans, lengths)), 2 * r), dtype=dtype)
    weights = np.empty_like(labels)
    pos = 0
    for b, ex in enumerate(batch):
        n, s = lengths[b], len(spans[b])
        lab = labels[pos : pos + s * n].reshape(s, n, 2 * r)
        for i, sub in enumerate(ex.subjects):
            lab[i, :, :r] = sub.object_start
            lab[i, :, r:] = sub.object_end
        # each gold span's block weighs as much as the example's subject
        # term; the negative spans share one such weight
        per_span = np.full((s, 1, 1), 1.0 / max(len(ex.negative_spans), 1), dtype=dtype)
        per_span[: len(ex.subjects)] = 1.0
        base = per_span * (w[b, :n, None] / (2 * r))
        if weighting is not None:
            base = relation_cell_weights(lab, base, weighting)
        weights[pos : pos + s * n].reshape(s, n, 2 * r)[...] = base
        pos += s * n
    if len(labels):
        h = dropout(hidden, config.dropout_p, training, rng)
        means = condition_on_spans(h, spans, lengths)
        ro = relation_object_scores(h, means, spans, lengths, params)
        l_relation = pointer_bce(ro.logits, labels, weights, 1.0)
    else:
        l_relation = Tensor(np.asarray(0.0, dtype=dtype))
    return LossParts(
        total=add(l_subject, l_relation),
        subject=l_subject.item(),
        relation=l_relation.item(),
    )


def content_mask(input_ids: np.ndarray, input_mask: np.ndarray, cls_id: int, sep_id: int) -> np.ndarray:
    """Unmasked positions that may carry entity spans (specials excluded)."""
    m = np.asarray(input_mask).copy()
    ids = np.asarray(input_ids)
    m[(ids == cls_id) | (ids == sep_id)] = 0
    return m


def extract_triples(
    text: str,
    params: ModelParams,
    config: EncoderConfig,
    vocab,
    schema: RelationSchema,
    threshold: float = 0.5,
) -> list[Triple]:
    """Tokenize, encode, decode subjects, score every subject's relation block
    in one relation-head call, then decode objects per subject.

    Returns de-duplicated triples ordered by subject start, relation index,
    object start. Surface strings come from character offsets.
    """
    from .data import CLS_ID, SEP_ID, _truncate, tokenize

    tokens, offsets = _truncate(*tokenize(text), config.max_seq_len)
    ids = vocab.encode(tokens)
    x = EncodedInput(ids, np.ones(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=np.int64))
    hidden = encode(x, params.encoder, config)
    mask = content_mask(ids, x.input_mask, CLS_ID, SEP_ID)

    def surface(span: Span) -> str:
        return text[offsets[span.start][0] : offsets[span.end][1]]

    triples: list[Triple] = []
    seen: set[tuple[str, str, str]] = set()
    subj_spans = decode_subject_spans(subject_scores(hidden, params), mask, threshold)
    subj_spans = sorted(subj_spans, key=lambda sp: (sp.start, sp.end))
    if not subj_spans:
        return triples
    n = len(ids)
    means = condition_on_spans(hidden, [subj_spans], [n])
    logits = relation_object_scores(hidden, means, [subj_spans], [n], params).logits.data
    for i, s_span in enumerate(subj_spans):
        block = RelationObjectScores(Tensor(logits[i * n : (i + 1) * n]))
        for rel, o_span in decode_objects(block, mask, threshold):
            t = Triple(
                subject=surface(s_span),
                predicate=schema.predicates[rel],
                object=surface(o_span),
                subject_span=s_span,
                object_span=o_span,
            )
            if t.key() not in seen:
                seen.add(t.key())
                triples.append(t)
    return triples
