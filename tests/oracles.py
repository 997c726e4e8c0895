"""Reference implementations that only the tests use.

bce_mean is the unfused weighted-mean BCE that pointer_bce is checked
against; triples_from_labels writes the gold spans as pointer labels and
decodes them back into triples;
spans_loop and objects_by_column are the per-start, per-relation decode that
the one-pass decode_spans and decode_objects are checked against;
subnormal_count counts float32 subnormals and below_flush_count the weights
in (0, 2^-64), both independently of the trainer;
joint_loss_loop is the per-example cascade loss, with dense labels on
every row, that the batched joint_loss is checked against, and
MaskRecorder/MaskReplay hand both the same dropout masks;
relation_logits_ref and extract_triples_per_subject are the relation head
written unfactorized, (h + m_s)·W + b one span at a time, and
span_average_loop the averaging matrix condition_on_spans must build, filled
span by span; sample_negatives_ref is the pool of Span objects that
sample_negatives must draw from row for row;
layer_norm_ref and softmax_ref are the forwards that layer_norm and softmax
must equal bit for bit; sigmoid_where, pointer_bce_dense and adagrad_step_ref
are the sign-selected sigmoid, the dense pointer BCE and the out-of-place
Adagrad step that the sigmoid helper, pointer_bce and adagrad_step must equal
bit for bit; sigmoid and square are autograd ops for the tests, and
squared_score is the float32 square(sigmoid(z)) that decode's logit cut-off
must reproduce; init_model_params_reference draws every initial weight one
by one, in the order init_model_params must keep bit for bit.
"""

from __future__ import annotations

import numpy as np

from coex.autograd import Tensor, _make, _sigmoid_exp, add, dropout, matmul, mul, value
from coex.data import CLS_ID, NEGATIVE_MAX_SPAN, SEP_ID, _truncate, tokenize
from coex.encoder import PAD_ID, encode
from coex.tagger import (
    LossParts,
    LossWeighting,
    RelationSchema,
    Span,
    Triple,
    condition_on_subject,
    content_mask,
    decode_objects,
    decode_spans,
    decode_subject_spans,
    relation_cell_weights,
    relation_object_scores,
    span_rows,
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
    x = value(scores)
    s = np.clip(x, BCE_CLIP, 1.0 - BCE_CLIP)
    per = -(labels * np.log(s) + (1.0 - labels) * np.log1p(-s))
    out = np.asarray((per * weights).sum() / total, dtype=scores.dtype)

    def back(g):
        inside = (x > BCE_CLIP) & (x < 1.0 - BCE_CLIP)
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


# the optimizer's flush threshold: a weight with |w| below it is set to +0
FLUSH_BELOW = 2.0**-64


def below_flush_count(arrays) -> int:
    """Elements with 0 < |x| < FLUSH_BELOW, over all arrays."""
    return sum(int(np.count_nonzero((np.abs(a) > 0) & (np.abs(a) < FLUSH_BELOW))) for a in arrays)


def object_labels(sub, n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """A gold subject's [n, R] object start and end pointer labels."""
    start, end = np.zeros((n, r), dtype=np.float32), np.zeros((n, r), dtype=np.float32)
    for rel, o_span in sub.objects:
        start[o_span.start, rel] = end[o_span.end, rel] = 1.0
    return start, end


def triples_from_labels(ex, schema: RelationSchema) -> list[Triple]:
    """Write the gold spans as pointer labels and decode them back into
    triples (threshold semantics)."""
    mask = content_mask(ex.input_ids, CLS_ID, SEP_ID)

    def surface(span: Span) -> str:
        return ex.text[ex.char_offsets[span.start][0] : ex.char_offsets[span.end][1]]

    triples = []
    seen = set()
    for sub in ex.subjects:
        start, end = object_labels(sub, len(ex.input_ids), len(schema))
        for rel in range(len(schema)):
            for o_span in decode_spans(start[:, rel], end[:, rel], mask):
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
        n = len(ex.input_ids)
        hidden = encode(ex.input_ids[None], params.encoder, config, training, rng)
        dtype = hidden.dtype
        w = (ex.input_ids != PAD_ID).astype(dtype)[:, None]
        n_unmasked = float(w.sum())

        s_logits = subject_scores(hidden, params, config.dropout_p, training, rng)
        s_labels = np.zeros((n, 2), dtype=dtype)
        for sub in ex.subjects:
            s_labels[sub.span.start, 0] = s_labels[sub.span.end, 1] = 1.0
        subject_terms.append(pointer_bce_dense(s_logits, s_labels, w / (2 * n_unmasked)))

        h_rel = dropout(hidden, config.dropout_p, training, rng)
        spans = np.concatenate([span_rows(sub.span for sub in ex.subjects), ex.negative_spans])
        if not len(spans):
            continue
        labels = np.zeros((len(spans), n, 2 * r), dtype=dtype)
        for i, sub in enumerate(ex.subjects):
            labels[i, :, :r], labels[i, :, r:] = object_labels(sub, n, r)
        r_logits = relation_object_scores(h_rel, [spans], [n], params)
        n_gold = len(ex.subjects)
        n_neg = len(ex.negative_spans)
        per_gold = 1.0 / (n_unmasked * 2 * r)
        per_neg = per_gold / max(n_neg, 1)
        rw = np.concatenate(
            [np.tile(w * per_gold, (n_gold, 1)), np.tile(w * per_neg, (n_neg, 1))]
        )
        if weighting not in (None, LossWeighting()):
            rw = relation_cell_weights(
                labels, rw.reshape(len(spans), n, 1), weighting
            ).reshape(len(spans) * n, 2 * r)
        relation_terms.append(
            pointer_bce_dense(r_logits, labels.reshape(len(spans) * n, 2 * r), rw)
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
        for start, end in ss:
            blocks.append((rows + rows[start : end + 1].mean(axis=0)) @ w + b)
    return np.concatenate(blocks)


def span_average_loop(rows: int, spans, lengths, dtype) -> np.ndarray:
    """The [S, rows] averaging matrix of condition_on_spans, filled one span
    at a time with 1 / length over the span's rows of its padded example."""
    width = rows // len(lengths)
    avg = np.zeros((sum(len(ss) for ss in spans), rows), dtype=dtype)
    i = 0
    for b, ss in enumerate(spans):
        for start, end in ss:
            start, end = b * width + int(start), b * width + int(end)
            avg[i, start : end + 1] = 1.0 / (end - start + 1)
            i += 1
    return avg


def sample_negatives_ref(ex, k: int, rng, max_span: int = NEGATIVE_MAX_SPAN) -> list[Span]:
    """The negatives sample_negatives draws, as Span objects: the pool is every
    non-gold content span of length 1..max_span, built one Span at a time, and
    the same permutation draw picks from it, sorted by (start, end)."""
    n = len(ex.input_ids)
    first, last = 1, n - 2
    gold = {s.span for s in ex.subjects}
    pool = [
        Span(a, b)
        for a in range(first, last + 1)
        for b in range(a, min(a + max_span, last + 1))
        if Span(a, b) not in gold
    ]
    picks = rng.permutation(len(pool))[: min(k, len(pool))]
    return sorted((pool[i] for i in picks), key=lambda s: (s.start, s.end))


def extract_triples_per_subject(text, params, config, vocab, schema, threshold=0.5):
    """extract_triples the unfactorized way: for each decoded subject in turn,
    add its span mean to every hidden row, apply the relation head, decode.
    Returns (triples, [per-subject squared relation scores])."""
    tokens, offsets = _truncate(*tokenize(text), config.max_seq_len)
    ids = vocab.encode(tokens)
    hidden = encode(ids[None], params.encoder, config)
    mask = content_mask(ids, CLS_ID, SEP_ID)
    subjects = decode_subject_spans(value(subject_scores(hidden, params)), mask, threshold)
    triples, seen, scores = [], set(), []
    for s_span in sorted(subjects, key=lambda sp: (sp.start, sp.end)):
        conditioned = condition_on_subject(hidden, s_span)
        logits = value(add(matmul(conditioned, params.relation_w), params.relation_b))
        scores.append(squared_score(logits))
        for rel, o_span in decode_objects(logits, mask, threshold):
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


def sigmoid_where(z: np.ndarray) -> np.ndarray:
    """The sigmoid selected by the sign of z: 1/(1+e) or e/(1+e), e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(z.dtype, copy=False)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_exp(value(a))[0]

    def back(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), back)


def square(a: Tensor) -> Tensor:
    x = value(a)
    out = x * x

    def back(g):
        return (g * 2.0 * x,)

    return _make(out, (a,), back)


def squared_score(logits: np.ndarray) -> np.ndarray:
    """square(sigmoid(logits)) in the logits' dtype: a pointer's probability."""
    s = sigmoid_where(logits)
    return s * s


def pointer_bce_dense(logits: Tensor, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """pointer_bce with every cell's label and weight given: both label terms
    evaluated on every cell, out of place."""
    z = value(logits)
    labels = np.asarray(labels, dtype=z.dtype)
    weights = np.broadcast_to(np.asarray(weights, dtype=z.dtype), z.shape)
    e = np.exp(-np.abs(z))
    sig = sigmoid_where(z)
    soft = np.log1p(e)
    per = labels * 2.0 * (soft + np.maximum(-z, 0.0)) + (1.0 - labels) * (
        soft + np.maximum(z, 0.0) - np.log1p(sig)
    )
    out = np.asarray((per * weights).sum(), dtype=z.dtype)

    def back(g):
        dz = -2.0 * labels * (1.0 - sig) + (1.0 - labels) * 2.0 * sig * sig / (1.0 + sig)
        return (g * weights * dz,)

    return _make(out, (logits,), back)


def adagrad_step_ref(named_params, state, lr: float, weight_decay: float, eps: float = 1e-10):
    """adagrad_step out of place: g' = g + wd * w, acc += g'^2,
    w -= lr * g' / (sqrt(acc) + eps), then the flush of |w| < FLUSH_BELOW."""
    for name, p in named_params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if weight_decay:
            g = g + weight_decay * p.data
        acc = state.accumulators.get(name)
        if acc is None:
            acc = np.zeros_like(p.data)
            state.accumulators[name] = acc
        acc += g * g
        p.data -= (lr * g / (np.sqrt(acc) + eps)).astype(p.data.dtype, copy=False)
        p.data[np.abs(p.data) < FLUSH_BELOW] = 0


def init_model_params_reference(config, num_relations: int, rng, dtype=np.float32) -> dict:
    """Initial arrays by named_tensors name, each drawn explicitly: every
    layer's 2-D fields in LayerParams order, then token_emb, segment_emb,
    position_emb, then subject_w and relation_w. Biases and LayerNorm betas
    are zeros, gammas ones."""
    d, f, r2 = config.model_dim, config.ffn_dim, 2 * num_relations

    def draw(*shape):
        return rng.uniform(-0.02, 0.02, shape, dtype=dtype)

    out = {}
    for i in range(config.num_layers):
        layer = {name: draw(d, d) for name in ("w_q", "w_k", "w_v", "w_o")}
        layer["ffn_w1"], layer["ffn_w2"] = draw(d, f), draw(f, d)
        for name in ("b_q", "b_k", "b_v", "b_o", "ffn_b2", "ln1_beta", "ln2_beta"):
            layer[name] = np.zeros(d, dtype=dtype)
        layer["ffn_b1"] = np.zeros(f, dtype=dtype)
        layer["ln1_gamma"] = layer["ln2_gamma"] = np.ones(d, dtype=dtype)
        out.update({f"layer{i}.{name}": a for name, a in layer.items()})
    out["token_emb"] = draw(config.vocab_size, d)
    out["segment_emb"] = draw(2, d)
    out["position_emb"] = draw(config.max_seq_len, d)
    out["subject_w"], out["subject_b"] = draw(d, 2), np.zeros(2, dtype=dtype)
    out["relation_w"], out["relation_b"] = draw(d, r2), np.zeros(r2, dtype=dtype)
    return out
