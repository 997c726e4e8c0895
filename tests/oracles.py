"""Reference implementations that only the tests use.

bce_mean is the unfused weighted-mean BCE that pointer_bce is checked
against; triples_from_labels decodes gold pointer labels back into triples;
spans_loop and objects_by_column are the per-start, per-relation decode that
the one-pass decode_spans and decode_objects are checked against;
subnormal_count counts float32 subnormals independently of the trainer;
joint_loss_loop is the per-example cascade loss that the batched joint_loss
is checked against, and MaskRecorder/MaskReplay hand both the same dropout
masks; relation_logits_ref and extract_triples_per_subject are the relation
head written unfactorized, (h + m_s)·W + b one span at a time;
layer_norm_ref and softmax_ref are the forwards that layer_norm and softmax
must equal bit for bit.
"""

from __future__ import annotations

import numpy as np

from coex.autograd import Tensor, _make, add, dropout, matmul, mul
from coex.data import CLS_ID, SEP_ID, _truncate, tokenize
from coex.encoder import EncodedInput, encode
from coex.tagger import (
    LossParts,
    RelationObjectScores,
    RelationSchema,
    Span,
    Triple,
    condition_on_spans,
    condition_on_subject,
    content_mask,
    decode_objects,
    decode_spans,
    decode_subject_spans,
    pointer_bce,
    relation_cell_weights,
    relation_object_scores,
    subject_scores,
)

BCE_CLIP = 1e-7


def bce_mean(scores: Tensor, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean binary cross-entropy with activations clipped to
    [1e-7, 1 - 1e-7]; gradient is zero where the clip binds."""
    labels = np.asarray(labels, dtype=scores.dtype)
    weights = np.broadcast_to(np.asarray(weights, dtype=scores.dtype), scores.shape)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("bce_mean: weights sum to zero")
    s = np.clip(scores.data, BCE_CLIP, 1.0 - BCE_CLIP)
    per = -(labels * np.log(s) + (1.0 - labels) * np.log1p(-s))
    out = np.asarray((per * weights).sum() / total, dtype=scores.dtype)

    def back(g):
        inside = (scores.data > BCE_CLIP) & (scores.data < 1.0 - BCE_CLIP)
        ds = weights * (s - labels) / (s * (1.0 - s)) / total
        return (g * ds * inside,)

    return _make(out, (scores,), back)


def spans_loop(start, end, mask, threshold: float = 0.5) -> list[Span]:
    """Pair each above-threshold unmasked start with the nearest such end at or after it."""
    mask = np.asarray(mask)
    starts = np.where((start >= threshold) & (mask == 1))[0]
    ends = np.where((end >= threshold) & (mask == 1))[0]
    spans = []
    for s in starts:
        after = ends[ends >= s]
        if after.size:
            spans.append(Span(int(s), int(after[0])))
    return spans


def objects_by_column(start, end, mask, threshold: float = 0.5) -> list[tuple[int, Span]]:
    """decode_objects over [n, R] scores, one relation column at a time."""
    return [
        (r, span)
        for r in range(start.shape[1])
        for span in spans_loop(start[:, r], end[:, r], mask, threshold)
    ]


def subnormal_count(arrays) -> int:
    """Elements with 0 < |x| < the smallest normal float32, over all arrays."""
    tiny = np.finfo(np.float32).tiny
    return sum(int(np.count_nonzero((np.abs(a) > 0) & (np.abs(a) < tiny))) for a in arrays)


def triples_from_labels(ex, schema: RelationSchema) -> list[Triple]:
    """Decode gold pointer labels back into triples (threshold semantics)."""
    mask = content_mask(ex.input.input_ids, ex.input.input_mask, CLS_ID, SEP_ID)

    def surface(span: Span) -> str:
        return ex.text[ex.char_offsets[span.start][0] : ex.char_offsets[span.end][1]]

    triples = []
    seen = set()
    for sub in ex.subjects:
        for rel in range(len(schema)):
            for o_span in decode_spans(sub.object_start[:, rel], sub.object_end[:, rel], mask):
                t = Triple(
                    subject=surface(sub.span),
                    predicate=schema.predicates[rel],
                    object=surface(o_span),
                    subject_span=sub.span,
                    object_span=o_span,
                )
                if t.key() not in seen:
                    seen.add(t.key())
                    triples.append(t)
    return triples


class MaskRecorder:
    """An Rng stand-in that draws from rng and keeps every keep mask it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.masks = []

    def keep_mask(self, shape, p, dtype):
        self.masks.append(self.rng.keep_mask(shape, p, dtype))
        return self.masks[-1]


class MaskReplay:
    """An Rng stand-in for a per-example forward: cuts each recorded batched
    [B·width, d] mask into the example's first n rows, and hands them out
    example by example, each example's sites in recorded order."""

    def __init__(self, masks, lengths, width):
        self._queue = [m[b * width : b * width + n] for b, n in enumerate(lengths) for m in masks]
        self._queue.reverse()

    def keep_mask(self, shape, p, dtype):
        keep = self._queue.pop()
        assert keep.shape == tuple(shape), (keep.shape, shape)
        return keep

    @property
    def exhausted(self) -> bool:
        return not self._queue


def joint_loss_loop(batch, params, config, rng=None, training=True, weighting=None) -> LossParts:
    """joint_loss one example at a time: encode, subject head, relation-input
    dropout, conditioning and relation head per example, each dropout drawing
    from rng as it runs, and the per-example terms summed over the batch."""
    r = params.num_relations
    subject_terms = []
    relation_terms = []
    for ex in batch:
        n = len(ex.input.input_ids)
        hidden = encode(ex.input, params.encoder, config, training, rng)
        dtype = hidden.dtype
        w = ex.input.input_mask.astype(dtype)[:, None]
        n_unmasked = float(w.sum())

        sc = subject_scores(hidden, params, config.dropout_p, training, rng)
        s_labels = np.stack([ex.subject_start, ex.subject_end], axis=1).astype(dtype)
        subject_terms.append(pointer_bce(sc.logits, s_labels, w, 2 * n_unmasked))

        h_rel = dropout(hidden, config.dropout_p, training, rng)
        spans = [sub.span for sub in ex.subjects] + list(ex.negative_spans)
        if not spans:
            continue
        labels = np.zeros((len(spans), n, 2 * r), dtype=dtype)
        for i, sub in enumerate(ex.subjects):
            labels[i, :, :r] = sub.object_start
            labels[i, :, r:] = sub.object_end
        means = condition_on_spans(h_rel, [spans], [n])
        ro = relation_object_scores(h_rel, means, [spans], [n], params)
        n_gold = len(ex.subjects)
        n_neg = len(ex.negative_spans)
        per_gold = 1.0 / (n_unmasked * 2 * r)
        per_neg = per_gold / max(n_neg, 1)
        rw = np.concatenate(
            [np.tile(w * per_gold, (n_gold, 1)), np.tile(w * per_neg, (n_neg, 1))]
        )
        if weighting is not None and not weighting.neutral:
            rw = relation_cell_weights(
                labels, rw.reshape(len(spans), n, 1), weighting
            ).reshape(len(spans) * n, 2 * r)
        relation_terms.append(
            pointer_bce(ro.logits, labels.reshape(len(spans) * n, 2 * r), rw, 1.0)
        )

    def average(terms):
        if not terms:
            return Tensor(np.asarray(0.0, dtype=params.subject_w.dtype))
        acc = terms[0]
        for t in terms[1:]:
            acc = add(acc, t)
        return mul(acc, 1.0 / len(batch))

    l_subject = average(subject_terms)
    l_relation = average(relation_terms)
    return LossParts(
        total=add(l_subject, l_relation),
        subject=l_subject.item(),
        relation=l_relation.item(),
    )


def relation_logits_ref(hidden: np.ndarray, spans, lengths, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relation logits packed as relation_object_scores packs them, each span
    block computed unfactorized in float64: (h + m_s)·W + b over the example's rows."""
    width = hidden.shape[0] // len(lengths)
    h = hidden.astype(np.float64)
    blocks = []
    for i, (ss, n) in enumerate(zip(spans, lengths)):
        rows = h[i * width : i * width + n]
        for sp in ss:
            blocks.append((rows + rows[sp.start : sp.end + 1].mean(axis=0)) @ w + b)
    return np.concatenate(blocks)


def extract_triples_per_subject(text, params, config, vocab, schema, threshold=0.5):
    """extract_triples the unfactorized way: for each decoded subject in turn,
    add its span mean to every hidden row, apply the relation head, decode.
    Returns (triples, [per-subject relation scores])."""
    tokens, offsets = _truncate(*tokenize(text), config.max_seq_len)
    ids = vocab.encode(tokens)
    x = EncodedInput(ids, np.ones(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=np.int64))
    hidden = encode(x, params.encoder, config)
    mask = content_mask(ids, x.input_mask, CLS_ID, SEP_ID)
    subjects = decode_subject_spans(subject_scores(hidden, params), mask, threshold)
    triples, seen, scores = [], set(), []
    for s_span in sorted(subjects, key=lambda sp: (sp.start, sp.end)):
        conditioned = condition_on_subject(hidden, s_span)
        ro = RelationObjectScores(add(matmul(conditioned, params.relation_w), params.relation_b))
        scores.append(ro.scores.data)
        for rel, o_span in decode_objects(ro, mask, threshold):
            t = Triple(
                subject=text[offsets[s_span.start][0] : offsets[s_span.end][1]],
                predicate=schema.predicates[rel],
                object=text[offsets[o_span.start][0] : offsets[o_span.end][1]],
                subject_span=s_span,
                object_span=o_span,
            )
            if t.key() not in seen:
                seen.add(t.key())
                triples.append(t)
    return triples, scores


def layer_norm_ref(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    """layer_norm's forward written with ndarray.mean."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return gamma * (centered * (1.0 / np.sqrt(var + eps))) + beta


def softmax_ref(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """softmax's forward written with ndarray.max and ndarray.sum."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)
