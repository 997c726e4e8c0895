"""Cascade binary pointer tagging for joint triple extraction.

One shared encoder feeds two heads. The subject head tags start/end pointers
per token. The relation-object head, conditioned on a subject span by adding
the span's mean hidden vector to every position, tags start/end pointers per
token per relation. Being linear, it is computed factorized, (h + m)·W + b =
h·W + m·W + b, and never forms the conditioned rows. A pointer's probability
is the squared sigmoid of its logit. The heads emit logits only: the loss
reads them fused, and decode compares them with one float32 cut-off per
threshold, the logit at which the float32 squared sigmoid reaches it.

Training uses teacher forcing: gold subject spans (plus sampled negative
spans, which carry all-zero object labels) condition the relation head, and
the two binary cross-entropy terms are summed into one joint loss.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .autograd import (
    DEFAULT_DTYPE,
    Rng,
    Tensor,
    add,
    dropout,
    matmul,
    _make,
    _sigmoid_exp,
)
from .encoder import (
    PAD_ID,
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


def subject_scores(
    hidden: Tensor,
    params: ModelParams,
    dropout_p: float = 0.0,
    training: bool = False,
    rng: Rng | None = None,
) -> Tensor:
    """Subject pointer logits [n, 2]: column 0 = start, 1 = end."""
    h = dropout(hidden, dropout_p, training, rng)
    return add(matmul(h, params.subject_w), params.subject_b)


def relation_object_scores(
    hidden: Tensor,
    means: Tensor,
    spans: list[list[Span]],
    lengths: list[int],
    params: ModelParams,
) -> Tensor:
    """Logits [sum of len(spans[b]) * lengths[b], 2R]: per example, one block of
    its rows per span, each hidden·W plus that span's row of means·W, plus the
    bias. Columns [0:R] are starts, [R:2R] ends. means is
    condition_on_spans(hidden, spans, lengths)."""
    tokens = matmul(hidden, params.relation_w)
    per_span = matmul(means, params.relation_w)
    return _pack_span_blocks(tokens, per_span, params.relation_b, spans, lengths)


@lru_cache(maxsize=32)
def pointer_cutoff(threshold: float) -> np.float32:
    """The float32 logit at which the float32 square(sigmoid(z)) reaches
    float32(threshold): it does there, and not at the float32 just below.

    Decode keeps the logits z >= cutoff. Wherever the float32 squared sigmoid
    is non-decreasing, at scores above about 0.3636, these are exactly the
    logits whose float32 squared score reaches the threshold. The exact
    logit(sqrt(threshold)) would not do: at 0.5 it lies 3 float32 ulps below
    the cut-off. Bisection runs over [-120, 40], where the float32 squared
    score goes from 0 to 1; a threshold that rounds to float32 0 keeps every
    logit but NaN.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    t = np.float32(threshold)

    def reaches(z: np.float32) -> bool:
        s = _sigmoid_exp(np.array([z], dtype=np.float32))[0]
        return bool(s * s >= t)

    lo, hi = np.float32(-120.0), np.float32(40.0)
    if reaches(lo):
        return np.float32(-np.inf)
    while np.nextafter(lo, hi) != hi:
        mid = np.float32((float(lo) + float(hi)) / 2)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _pair_pointers(
    start: np.ndarray, end: np.ndarray, mask: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(column, start, end) index arrays for [n, C] pointer logits, in one pass.

    A pointer fires where its squared score reaches the threshold, that is,
    where its logit reaches pointer_cutoff(threshold). Each firing start pairs
    with the nearest firing end at or after it in the same column; unpaired
    starts are dropped. Masked positions can neither start nor end a span.
    Pairs come ordered by column, then start.
    """
    cut = pointer_cutoff(threshold)
    n = start.shape[0]
    unmasked = (np.asarray(mask) == 1)[:, None]
    ends = (end >= cut) & unmasked
    # nearest end at or after each position, n where there is none
    nearest = np.where(ends, np.arange(n)[:, None], n)
    nearest = np.minimum.accumulate(nearest[::-1], axis=0)[::-1]
    cols, starts = np.nonzero(((start >= cut) & unmasked).T)
    stops = nearest[starts, cols]
    paired = stops < n
    return cols[paired], starts[paired], stops[paired]


def decode_spans(
    start: np.ndarray, end: np.ndarray, mask: np.ndarray, threshold: float = 0.5
) -> list[Span]:
    """Pair each firing start logit with the nearest firing end at or after it.

    Unpaired starts are dropped. Masked positions can neither start nor end a
    span. Nested and overlapping spans are allowed.
    """
    _, starts, stops = _pair_pointers(start[:, None], end[:, None], mask, threshold)
    return [Span(int(s), int(e)) for s, e in zip(starts, stops)]


def decode_subject_spans(
    logits: np.ndarray, mask: np.ndarray, threshold: float = 0.5
) -> list[Span]:
    """Subject spans from [n, 2] subject logits."""
    return decode_spans(logits[:, 0], logits[:, 1], mask, threshold)


def decode_objects(
    logits: np.ndarray, mask: np.ndarray, threshold: float = 0.5
) -> list[tuple[int, Span]]:
    """All (relation index, object span) pairs of [n, 2R] relation logits,
    ordered by relation then start; each relation column decodes as
    decode_spans does, all in one pass."""
    r = logits.shape[1] // 2
    rels, starts, stops = _pair_pointers(logits[:, :r], logits[:, r:], mask, threshold)
    return [(int(c), Span(int(s), int(e))) for c, s, e in zip(rels, starts, stops)]


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
    tokens: Tensor, per_span: Tensor, bias: Tensor, spans: list[list[Span]], lengths: list[int]
) -> Tensor:
    """Per example b and each of its spans s, the block tokens[rows of b] +
    per_span[s], packed into [sum of len(spans[b]) * lengths[b], C], with bias
    added to every row in place. Backward sums each block over its spans for
    the token rows and over its tokens for the span rows, and sums every row
    for the bias."""
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
    out += bias.data

    def back(g):
        gt, gs = np.zeros_like(t), np.zeros_like(s)
        for first, n, lo, k, at in blocks:
            g3 = g[at : at + k * n].reshape(k, n, c)
            gt[first : first + n] = g3.sum(axis=0)
            gs[lo : lo + k] = g3.sum(axis=1)
        return gt, gs, g.sum(axis=0)

    return _make(out, (tokens, per_span, bias), back)


def pointer_bce(
    logits: Tensor,
    rows: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    row_weights: np.ndarray,
) -> Tensor:
    """Weighted sum of squared-sigmoid BCE terms, fused with the logits.

    labels and weights (broadcast to labels) cover the gold rows
    logits[rows] only. Every other row is all label 0 and weighs
    row_weights [P, 1]; it pays only for the label-0 term, and the full
    two-label form runs on the gold rows alone, whose results overwrite the
    same cells. Loss and gradient equal, bit for bit, the two-label form on
    every row with the gold rows' labels and weights filled in, for any
    finite logits. Normalizers live in the weights.

    Away from its clip rails this equals the unfused BCE of
    square(sigmoid(logits)). Fusion keeps it exact under float32 saturation:
    the per-entry gradient is the bounded closed form
    -2y(1-s) + (1-y)*2s^2/(1+s) with s = sigmoid(logit).
    """
    z = logits.data
    zg = z[rows]
    labels = np.asarray(labels, dtype=z.dtype)
    if labels.shape != zg.shape:
        raise ValueError(f"pointer_bce: labels {labels.shape} for logit rows {zg.shape}")
    weights = np.broadcast_to(np.asarray(weights, dtype=z.dtype), labels.shape)
    sig, soft = _sigmoid_exp(z)
    # softplus(x) = log1p(exp(-|x|)) + max(x, 0), and |-z| = |z|:
    # -log(s^2) = 2*softplus(-z); -log(1-s^2) = softplus(z) - log1p(s)
    np.log1p(soft, out=soft)
    label1 = soft[rows] + np.maximum(-zg, 0.0)
    per = np.maximum(z, 0.0)
    per += soft
    per -= np.log1p(sig, out=soft)
    per_g = labels * 2.0 * label1 + (1.0 - labels) * per[rows]
    per_g *= weights
    per *= row_weights
    per[rows] = per_g
    out = np.asarray(per.sum(), dtype=z.dtype)

    def back(g):
        # the label-0 form 2s^2/(1+s) everywhere, then the two-label form on the gold rows
        dz = sig * 2.0
        dz *= sig
        dz /= sig + 1.0
        dz *= g * row_weights
        sg = sig[rows]
        dz_g = -2.0 * labels * (1.0 - sg) + (1.0 - labels) * 2.0 * sg * sg / (1.0 + sg)
        dz[rows] = g * weights * dz_g
        return (dz,)

    return _make(out, (logits,), back)


@dataclass
class SubjectAnnotation:
    """Gold subject span with its gold (relation index, object span) pairs."""

    span: Span
    objects: list[tuple[int, Span]]


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
    weighting: LossWeighting = LossWeighting(),
) -> LossParts:
    """Subject BCE plus relation BCE, averaged over a batch of encoded examples.

    Gold subject spans and each example's sampled negative spans condition the
    relation head; negatives carry all-zero object labels. Each BCE averages
    over unmasked positions (and, for the relation term, over relations). The
    relation term sums the per-span mean BCE over gold conditioning spans, and
    the negative spans together contribute the sample mean of their per-span
    BCEs, estimating the rejection loss under the negative-sampling draw.
    The weighting boosts relation cells around the gold pointers; the
    positive cells of sparse pointer rows otherwise contribute too little
    gradient against the mass of zero cells for the head to pull them over
    the decision threshold.

    The whole batch runs as one padded forward: one encoder pass, one subject
    head, every conditioning span packed into one relation-head call, and one
    pointer_bce per head. Each dropout site draws one keep mask on the padded
    [B·L, d] rows, straight from rng. The relation head's input rows share one
    mask, and each span mean averages those dropped rows.

    joint_loss alone turns the examples' gold spans into pointer labels. Each
    pointer_bce gets one weight per row, and labels and weights for its gold
    rows only: the subject rows that hold a gold start or end, and the rows of
    the gold span blocks. No dense [B·L, 2] or [Σ s·n, 2R] label array is built.
    """
    if not batch:
        raise ValueError("joint_loss: empty batch")
    r = params.num_relations
    dtype = params.encoder.token_emb.dtype
    lengths = [len(ex.input_ids) for ex in batch]
    spans = [[sub.span for sub in ex.subjects] + list(ex.negative_spans) for ex in batch]
    ids = pad_batch([ex.input_ids for ex in batch])
    width = ids.shape[1]
    hidden = encode(ids, params.encoder, config, training, rng)
    # each example's unmasked positions share its 1/B of the loss
    w = (ids != PAD_ID).astype(dtype)
    unmasked = w.sum(axis=1, keepdims=True)
    if not unmasked.all():
        raise ValueError("joint_loss: an example has no unmasked position")
    w /= unmasked * len(batch)
    s_logits = subject_scores(hidden, params, config.dropout_p, training, rng)
    # the subject head's gold rows: those that hold a gold start or end pointer
    s_gold: dict[int, list[float]] = {}
    for b, ex in enumerate(batch):
        for sub in ex.subjects:
            s_gold.setdefault(b * width + sub.span.start, [0.0, 0.0])[0] = 1.0
            s_gold.setdefault(b * width + sub.span.end, [0.0, 0.0])[1] = 1.0
    s_rows = np.array(sorted(s_gold), dtype=np.intp)
    s_labels = np.array([s_gold[i] for i in s_rows], dtype=dtype).reshape(-1, 2)
    half = (w / 2).reshape(-1, 1)
    l_subject = pointer_bce(s_logits, s_rows, s_labels, half[s_rows], half)

    # relation rows packed as relation_object_scores packs them: per example,
    # one block of its n rows per span, gold spans first. Every row weighs its
    # block's base weight; only the gold blocks get labels and cell weights,
    # because a negative block's labels are all 0 and its boosts all 1.
    row_weights = np.empty((sum(len(ss) * n for ss, n in zip(spans, lengths)), 1), dtype=dtype)
    n_gold = sum(len(ex.subjects) * n for ex, n in zip(batch, lengths))
    labels = np.zeros((n_gold, 2 * r), dtype=dtype)
    weights = np.empty_like(labels)
    rows = np.empty(n_gold, dtype=np.intp)
    pos = at = 0
    for b, ex in enumerate(batch):
        n, s, g = lengths[b], len(spans[b]), len(ex.subjects)
        # each gold span's block weighs as much as the example's subject
        # term; the negative spans share one such weight
        per_span = np.full((s, 1, 1), 1.0 / max(len(ex.negative_spans), 1), dtype=dtype)
        per_span[:g] = 1.0
        base = per_span * (w[b, :n, None] / (2 * r))
        row_weights[pos : pos + s * n] = base.reshape(s * n, 1)
        lab = labels[at : at + g * n].reshape(g, n, 2 * r)
        for i, sub in enumerate(ex.subjects):
            for rel, o in sub.objects:
                lab[i, o.start, rel] = lab[i, o.end, r + rel] = 1.0
        cells = weights[at : at + g * n].reshape(g, n, 2 * r)
        cells[...] = relation_cell_weights(lab, base[:g], weighting)
        rows[at : at + g * n] = np.arange(pos, pos + g * n)
        pos += s * n
        at += g * n
    if pos:
        h = dropout(hidden, config.dropout_p, training, rng)
        means = condition_on_spans(h, spans, lengths)
        r_logits = relation_object_scores(h, means, spans, lengths, params)
        l_relation = pointer_bce(r_logits, rows, labels, weights, row_weights)
    else:
        l_relation = Tensor(np.asarray(0.0, dtype=dtype))
    return LossParts(
        total=add(l_subject, l_relation),
        subject=l_subject.item(),
        relation=l_relation.item(),
    )


def content_mask(input_ids: np.ndarray, cls_id: int, sep_id: int) -> np.ndarray:
    """1 where one sentence's token may carry entity spans, 0 at the specials."""
    ids = np.asarray(input_ids)
    return ((ids != cls_id) & (ids != sep_id)).astype(np.int64)


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
    hidden = encode(ids[None], params.encoder, config)
    mask = content_mask(ids, CLS_ID, SEP_ID)

    def surface(span: Span) -> str:
        return text[offsets[span.start][0] : offsets[span.end][1]]

    triples: list[Triple] = []
    seen: set[tuple[str, str, str]] = set()
    subj_spans = decode_subject_spans(subject_scores(hidden, params).data, mask, threshold)
    subj_spans = sorted(subj_spans, key=lambda sp: (sp.start, sp.end))
    if not subj_spans:
        return triples
    n = len(ids)
    means = condition_on_spans(hidden, [subj_spans], [n])
    logits = relation_object_scores(hidden, means, [subj_spans], [n], params).data
    for i, s_span in enumerate(subj_spans):
        for rel, o_span in decode_objects(logits[i * n : (i + 1) * n], mask, threshold):
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
