import math
from types import SimpleNamespace

import numpy as np
import pytest

from coex.autograd import Rng, Tensor, grad_check, tensor
from coex.data import (
    RawExample,
    RawTriple,
    SynthConfig,
    build_vocab,
    default_schema,
    encode_corpus,
    generate_synthetic_corpus,
    sample_negatives,
)
from coex import tagger
from coex.encoder import PAD_ID, EncoderConfig
from coex.tagger import (
    LossWeighting,
    RelationSchema,
    SchemaError,
    Span,
    condition_on_spans,
    condition_on_subject,
    decode_objects,
    decode_spans,
    decode_subject_spans,
    extract_triples,
    init_model_params,
    joint_loss,
    model_shapes,
    pointer_bce,
    pointer_cutoff,
    relation_cell_weights,
    relation_object_scores,
    span_rows,
    subject_scores,
)
from oracles import (
    bce_mean,
    init_model_params_reference,
    object_labels,
    objects_by_column,
    spans_loop,
    squared_score,
)

LN075 = -math.log(0.75)  # BCE of a 0.25 score against a zero label
ON = 3.0  # a pointer logit whose squared score, 0.91, reaches the default 0.5


def span_array(*pairs):
    """Spans as the relation head takes them: an int64 [k, 2] array of
    (start, end) rows."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def bce_every_row(logits, labels, weights):
    """pointer_bce with every row of logits given as a gold row."""
    rows = np.arange(logits.shape[0])
    return pointer_bce(logits, rows, labels, weights, np.zeros((len(rows), 1), dtype=logits.dtype))


def small_config(**kw):
    defaults = dict(
        vocab_size=40, model_dim=8, num_heads=2, ffn_dim=12,
        num_layers=1, max_seq_len=16, dropout_p=0.0,
    )
    defaults.update(kw)
    return EncoderConfig(**defaults)


def test_span_validation_and_len():
    assert len(Span(2, 4)) == 3
    with pytest.raises(ValueError):
        Span(3, 2)
    with pytest.raises(ValueError):
        Span(-1, 0)


def test_schema_validation():
    with pytest.raises(SchemaError):
        RelationSchema(())
    with pytest.raises(SchemaError):
        RelationSchema(("a", "a"))
    s = RelationSchema(("a", "b"))
    assert s.index("b") == 1
    with pytest.raises(SchemaError):
        s.index("c")


def test_named_tensors_cover_everything_once():
    cfg = small_config(num_layers=2)
    params = init_model_params(cfg, num_relations=3, rng=Rng(0))
    names = [n for n, _ in params.named_tensors()]
    assert len(names) == len(set(names))
    assert len(names) == 3 + 2 * 16 + 4
    assert params.num_relations == 3
    assert [(n, t.shape) for n, t in params.named_tensors()] == list(model_shapes(cfg, 3).items())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_init_draws_in_the_pinned_order(dtype, num_layers):
    cfg = small_config(num_layers=num_layers)
    params = init_model_params(cfg, 3, Rng(4), dtype=dtype)
    reference = init_model_params_reference(cfg, 3, Rng(4), dtype=dtype)
    named = dict(params.named_tensors())
    assert sorted(named) == sorted(reference)
    for name, t in named.items():
        assert t.requires_grad, name
        assert (t.dtype, t.shape) == (reference[name].dtype, reference[name].shape), name
        assert t.data.tobytes() == reference[name].tobytes(), name


def test_decode_spans_nearest_end_and_unpaired():
    n = 8
    mask = np.ones(n)
    start = np.zeros(n)
    end = np.zeros(n)
    start[[1, 5]] = ON
    end[[3, 6]] = ON
    assert decode_spans(start, end, mask) == [Span(1, 3), Span(5, 6)]
    # subject logits: column 0 starts, column 1 ends
    assert decode_subject_spans(np.stack([start, end], axis=1), mask) == [Span(1, 3), Span(5, 6)]
    # a start with no end at or after it is dropped
    start2 = np.zeros(n)
    start2[7] = ON
    assert decode_spans(start2, end * 0, mask) == []


def test_decode_spans_tie_takes_earliest_end():
    mask = np.ones(6)
    start = np.zeros(6)
    end = np.zeros(6)
    start[1] = ON
    end[[2, 4]] = ON
    assert decode_spans(start, end, mask) == [Span(1, 2)]


def test_decode_spans_single_token_span():
    mask = np.ones(4)
    start = np.zeros(4)
    end = np.zeros(4)
    start[2] = ON
    end[2] = ON
    assert decode_spans(start, end, mask) == [Span(2, 2)]


def test_decode_spans_respects_mask():
    start = np.full(5, ON)
    end = np.full(5, ON)
    mask = np.array([0, 1, 1, 0, 0])
    assert decode_spans(start, end, mask) == [Span(1, 1), Span(2, 2)]


def test_decode_spans_allows_nested_and_overlapping():
    mask = np.ones(7)
    start = np.zeros(7)
    end = np.zeros(7)
    start[[1, 2]] = ON
    end[[4, 5]] = ON
    assert decode_spans(start, end, mask) == [Span(1, 4), Span(2, 4)]


def test_decode_spans_threshold_bounds():
    z = np.zeros(3)
    with pytest.raises(ValueError):
        decode_spans(z, z, np.ones(3), threshold=0.0)
    with pytest.raises(ValueError):
        decode_spans(z, z, np.ones(3), threshold=1.0)


def test_one_pass_decode_matches_per_column_loop():
    """decode_objects and decode_spans on logits against the per-column loop
    on the float32 squared scores, with cells a few ulps around the cut-off."""
    rng = np.random.default_rng(7)
    seen = {"masked": 0, "nested": 0, "unpaired": 0, "near_cut": 0}
    for _ in range(2000):
        n, r = int(rng.integers(0, 14)), int(rng.integers(1, 6))
        thr = float(rng.choice([0.2, 0.5, 0.8]))
        cut = pointer_cutoff(thr)
        logits = (cut + rng.normal(0.0, 2.0, (n, 2 * r))).astype(np.float32)
        near = rng.uniform(size=logits.shape) < 0.2
        ulps = rng.integers(-3, 4, size=logits.shape).astype(np.float32)
        logits[near] = (cut + ulps * np.spacing(cut))[near]
        mask = (rng.uniform(size=n) < 0.8).astype(np.int64)
        scores = squared_score(logits)
        want = objects_by_column(scores[:, :r], scores[:, r:], mask, thr)
        assert decode_objects(logits, mask, thr) == want
        for c in range(r):
            assert decode_spans(logits[:, c], logits[:, r + c], mask, thr) == spans_loop(
                scores[:, c], scores[:, r + c], mask, thr
            )
        fires = scores >= thr
        hits = fires[:, :r] & (mask == 1)[:, None]
        seen["masked"] += int((fires & (mask == 0)[:, None]).any())
        # two starts of one column sharing their end: nested or overlapping spans
        seen["nested"] += len({(c, sp.end) for c, sp in want}) < len(want)
        seen["unpaired"] += len(want) < int(hits.sum())
        seen["near_cut"] += int(fires[near].any() and not fires[near].all())
    assert min(seen.values()) > 100, seen


def _float32_around(x: np.float32, k: int) -> np.ndarray:
    """The k float32 values below x, x, and the k above, in order."""
    i = int(np.float32(x).view(np.int32))
    key = i if i >= 0 else -(i & 0x7FFFFFFF)  # monotone in the float's value
    keys = np.arange(key - k, key + k + 1)
    return np.where(keys >= 0, keys, -keys - 2**31).astype(np.int32).view(np.float32)


def test_threshold_on_squared_score_matches_logit_rule():
    """z >= pointer_cutoff(t) keeps exactly the float32 logits whose float32
    squared sigmoid is >= float32(t), on the 2^20 values on each side of the
    cut-off and on +-inf and NaN."""
    for thr in (0.2, 0.24, 0.3, 0.5, 0.8, 0.999):
        cut = pointer_cutoff(thr)
        z = np.concatenate([_float32_around(cut, 2**20), np.float32([np.inf, -np.inf, np.nan])])
        assert np.array_equal(z >= cut, squared_score(z) >= np.float32(thr)), thr
    # the exact logit(sqrt(0.5)), rounded to float32, lies 3 ulps below the cut-off
    root = math.sqrt(0.5)
    exact = np.float32(math.log(root) - math.log1p(-root))
    assert pointer_cutoff(0.5).view(np.int32) - exact.view(np.int32) == 3
    # a threshold that rounds to float32 0 keeps every logit but NaN
    assert pointer_cutoff(1e-50) == -np.inf


def test_subject_scores_are_squared_sigmoid():
    cfg = small_config()
    params = init_model_params(cfg, num_relations=2, rng=Rng(1))
    h = np.random.default_rng(1).normal(size=(5, cfg.model_dim)).astype(np.float32)
    logits = subject_scores(Tensor(h), params)
    expect = h @ params.subject_w.data + params.subject_b.data
    assert logits.shape == (5, 2)
    np.testing.assert_allclose(logits.data, expect, rtol=1e-6, atol=1e-7)
    scores = squared_score(logits.data)
    np.testing.assert_allclose(scores, (1.0 / (1.0 + np.exp(-expect.astype(np.float64)))) ** 2, atol=1e-6)
    assert np.all(scores > 0) and np.all(scores < 1)


def test_relation_scores_layout():
    cfg = small_config()
    r = 3
    params = init_model_params(cfg, num_relations=r, rng=Rng(2))
    h = Tensor(np.random.default_rng(2).normal(size=(4, cfg.model_dim)).astype(np.float32))
    spans = [span_array((0, 1), (2, 2))]
    ro = relation_object_scores(h, spans, [4], params)
    assert ro.shape == (8, 2 * r)
    # columns [0:R] are starts and [R:2R] ends
    block = np.zeros((4, 2 * r), dtype=np.float32)
    block[1, 2] = block[3, r + 2] = ON
    assert decode_objects(block, np.ones(4), 0.5) == [(2, Span(1, 3))]


def test_condition_on_subject_adds_span_mean():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(6, 4)).astype(np.float32)
    out = condition_on_subject(Tensor(h), Span(2, 4))
    mean = h[2:5].mean(axis=0)
    np.testing.assert_allclose(out, h + mean, rtol=1e-5)
    with pytest.raises(ValueError):
        condition_on_subject(Tensor(h), Span(4, 6))


def test_condition_on_spans_matches_per_span_loop():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(5, 3)).astype(np.float32)
    spans = [Span(1, 1), Span(0, 3), Span(2, 4)]
    means = condition_on_spans(Tensor(h), [span_rows(spans)], [5])
    for i, sp in enumerate(spans):
        single = condition_on_subject(Tensor(h), sp)
        np.testing.assert_allclose(means[i], (single - h)[0], rtol=1e-5, atol=1e-7)
    # a padded batch of three: example 1 has no spans, example 2 is 3 rows
    # long in a 5-row slot; one mean per span, example by example
    h3 = rng.normal(size=(15, 3)).astype(np.float32)
    spans3 = [span_array((0, 4), (2, 2)), span_array(), span_array((1, 2))]
    packed = condition_on_spans(Tensor(h3), spans3, [5, 4, 3])
    want = [h3[0:5].mean(axis=0), h3[2], h3[11:13].mean(axis=0)]
    np.testing.assert_allclose(packed, np.stack(want), rtol=1e-5)
    with pytest.raises(ValueError):
        condition_on_spans(Tensor(h3), [span_array((1, 3)), span_array(), span_array()], [3, 4, 5])


def test_condition_on_spans_gradient():
    rng = Rng(5)
    h = Tensor(rng.uniform(-1, 1, (10, 3), dtype=np.float64), requires_grad=True)
    spans = [span_array((1, 2), (0, 4), (3, 3)), span_array((0, 2), (2, 2))]

    def f(params):
        from coex.autograd import tsum
        from oracles import square

        return tsum(square(condition_on_spans(params[0], spans, [5, 3])))

    assert grad_check(f, [h], eps=1e-6) <= 1e-6


@pytest.mark.parametrize(
    "spans, lengths",
    [
        ([span_array((-1, 2))], [5]),  # start < 0
        ([span_array((1, 2), (3, 2))], [5]),  # end < start
        ([span_array((2, 5))], [5]),  # end >= n
        ([span_array((1, 1)), span_array((3, 4))], [5, 3]),  # past a shorter example's length
        ([span_array((1, 1))], [5, 5]),  # one span array for two lengths
        ([span_array((1, 1))], [12]),  # an example longer than its 10-row slot
    ],
    ids=["negative-start", "end-before-start", "end-past-n", "past-example-length", "count", "slot"],
)
def test_malformed_span_rows_are_refused(spans, lengths, monkeypatch):
    cfg = small_config()
    params = init_model_params(cfg, num_relations=2, rng=Rng(6))
    h = Tensor(np.ones((10, 3), dtype=np.float32))
    wide = Tensor(np.ones((10, cfg.model_dim), dtype=np.float32))
    # both averaging fills run every case: FEW_SPANS = 0 sends even one span
    # to the indexed fill
    for few in (tagger.FEW_SPANS, 0):
        monkeypatch.setattr(tagger, "FEW_SPANS", few)
        with pytest.raises(ValueError):
            condition_on_spans(h, spans, lengths)
        with pytest.raises(ValueError):
            relation_object_scores(wide, spans, lengths, params)


def _round_robin(spans: list[np.ndarray], count: int) -> list[np.ndarray]:
    """The first rows of each span array, count in total, taken one example
    at a time in turn."""
    taken = [0] * len(spans)
    while sum(taken) < count:
        for b, ss in enumerate(spans):
            if taken[b] < len(ss) and sum(taken) < count:
                taken[b] += 1
    return [ss[:k] for ss, k in zip(spans, taken)]


def _recipe_sized_spans(seed=7):
    """(spans, lengths) of 8 examples with the recipe's 128 negatives per
    positive: some 500 spans."""
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=8, overlap_fraction=0.3, seed=seed))
    examples = encode_corpus(corpus, build_vocab(corpus), default_schema(), 128)
    rng = Rng(seed)
    for ex in examples:
        sample_negatives(ex, 128, rng)
    spans = [
        np.concatenate([span_rows(sub.span for sub in ex.subjects), ex.negative_spans])
        for ex in examples
    ]
    return spans, [len(ex.input_ids) for ex in examples]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_condition_on_spans_matrix_equals_span_loop(dtype):
    # hidden = I reads the averaging matrix back exactly: each cell is one
    # product with 1 plus exact zeros. Up to FEW_SPANS spans take the
    # span-by-span fill, more the indexed one.
    from oracles import span_average_loop

    batch, _, _ = _mixed_length_batch()
    mixed_lengths = [len(ex.input_ids) for ex in batch] + [4]
    mixed = [
        np.concatenate([span_rows(sub.span for sub in ex.subjects), ex.negative_spans])
        for ex in batch
    ] + [span_array()]
    cases = {count: (_round_robin(mixed, count), mixed_lengths)
             for count in (1, tagger.FEW_SPANS, tagger.FEW_SPANS + 1)}
    cases["mixed"] = (mixed, mixed_lengths)
    cases["recipe"] = _recipe_sized_spans()
    for case, (spans, lengths) in cases.items():
        total = sum(len(ss) for ss in spans)
        assert total == case if isinstance(case, int) else total > 2 * tagger.FEW_SPANS
        rows = max(lengths) * len(lengths)
        got = condition_on_spans(Tensor(np.eye(rows, dtype=dtype)), spans, lengths)
        want = span_average_loop(rows, spans, lengths, dtype)
        assert got.dtype == want.dtype and got.shape == want.shape, case
        assert got.tobytes() == want.tobytes(), case


def test_relation_head_matches_unfactorized_oracle():
    from oracles import relation_logits_ref

    cfg = small_config()
    params = init_model_params(cfg, num_relations=3, rng=Rng(9))
    rng = np.random.default_rng(9)
    params.relation_b.data[:] = rng.normal(size=6)
    h = Tensor(rng.normal(size=(15, cfg.model_dim)).astype(np.float32))
    # padded B = 3: nested and overlapping spans, an example with none, and a
    # 3-row example in a 5-row slot
    spans = [span_array((0, 4), (1, 3), (2, 2), (2, 4)), span_array(), span_array((0, 1), (1, 2))]
    lengths = [5, 4, 3]
    ro = relation_object_scores(h, spans, lengths, params)
    want = relation_logits_ref(h.data, spans, lengths, params.relation_w.data, params.relation_b.data)
    assert ro.shape == want.shape == (4 * 5 + 2 * 3, 6)
    assert np.abs(ro.data - want).max() <= 1e-5 * np.abs(want).max()


def test_relation_head_gradient_check():
    # as many spans as rows in each example, so a backward that swaps its
    # span and token sums still runs, and must fail on its values
    spans = [span_array((0, 2), (1, 1), (0, 1)), span_array((0, 1), (1, 1))]
    lengths = [3, 2]
    rows = 3 * 3 + 2 * 2
    errors = {}
    for dtype, eps in ((np.float32, 1e-3), (np.float64, 1e-6)):
        rng = Rng(31)
        hidden = Tensor(rng.uniform(-1, 1, (6, 4), dtype=dtype), requires_grad=True)
        head = SimpleNamespace(
            relation_w=Tensor(rng.uniform(-0.5, 0.5, (4, 4), dtype=dtype), requires_grad=True),
            relation_b=Tensor(rng.uniform(-0.5, 0.5, (4,), dtype=dtype), requires_grad=True),
        )
        labels = (rng.random((rows, 4)) < 0.3).astype(dtype)
        weights = rng.uniform(0.5, 1.5, (rows, 1), dtype=dtype) / (rows * 4)  # loss near 1

        def f(ps):
            ro = relation_object_scores(ps[0], spans, lengths, head)
            return bce_every_row(ro, labels, weights)

        errors[dtype] = grad_check(f, [hidden, head.relation_w, head.relation_b], eps=eps)
    assert errors[np.float32] <= 1e-3 and errors[np.float64] <= 1e-6, errors


def test_bce_mean_hand_value():
    scores = tensor([[0.25, 0.25], [0.25, 0.25]])
    labels = np.array([[0.0, 0.0], [0.0, 0.0]])
    out = bce_mean(scores, labels, np.ones((2, 1)))
    assert out.item() == pytest.approx(LN075, rel=1e-6)
    # one positive label: -(ln 0.25) for that cell
    labels[1, 1] = 1.0
    out2 = bce_mean(tensor([[0.25, 0.25], [0.25, 0.25]]), labels, np.ones((2, 1)))
    expect = (3 * LN075 + math.log(4.0)) / 4
    assert out2.item() == pytest.approx(expect, rel=1e-6)


def test_bce_mean_weights_exclude_positions():
    scores = tensor([[0.9], [0.1]])
    labels = np.array([[1.0], [1.0]])
    out = bce_mean(scores, labels, np.array([[1.0], [0.0]]))
    assert out.item() == pytest.approx(-math.log(0.9), rel=1e-5)
    with pytest.raises(ValueError):
        bce_mean(scores, labels, np.zeros((2, 1)))


def test_bce_mean_clips_extreme_scores():
    scores = Tensor(np.array([[0.0], [1.0]], dtype=np.float32), requires_grad=True)
    labels = np.array([[1.0], [0.0]])
    out = bce_mean(scores, labels, np.ones((2, 1)))
    assert math.isfinite(out.item())
    # both activations sit on the clip rails, so the loss is about -ln(1e-7)
    assert 15.0 < out.item() < 17.0
    out.backward()
    np.testing.assert_allclose(scores.grad, 0.0)


def test_bce_mean_gradient():
    rng = Rng(6)
    raw = Tensor(rng.uniform(-2, 2, (4, 3), dtype=np.float64), requires_grad=True)
    labels = (np.arange(12).reshape(4, 3) % 2).astype(np.float64)
    weights = np.array([[1.0], [1.0], [0.0], [1.0]])

    def f(params):
        from oracles import sigmoid as sg, square as sq

        return bce_mean(sq(sg(params[0])), labels, weights)

    assert grad_check(f, [raw], eps=1e-6) <= 1e-6


def test_pointer_bce_matches_unfused_form():
    from oracles import sigmoid as sg, square as sq

    rng = Rng(14)
    labels = (np.arange(15).reshape(5, 3) % 2).astype(np.float64)
    weights = np.array([[1.0], [1.0], [0.0], [1.0], [1.0]])
    z_data = rng.uniform(-3, 3, (5, 3), dtype=np.float64)

    za = Tensor(z_data.copy(), requires_grad=True)
    a = bce_mean(sq(sg(za)), labels, weights)
    a.backward()
    zb = Tensor(z_data.copy(), requires_grad=True)
    b = bce_every_row(zb, labels, weights / 12.0)  # 4 unmasked rows x 3 columns
    b.backward()
    assert b.item() == pytest.approx(a.item(), rel=1e-12)
    np.testing.assert_allclose(zb.grad, za.grad, atol=1e-12)


def test_pointer_bce_hand_values_at_zero_logits():
    labels = np.zeros((2, 2))
    quarter = np.full((2, 1), 0.25)
    out = bce_every_row(tensor([[0.0, 0.0], [0.0, 0.0]]), labels, quarter)
    assert out.item() == pytest.approx(LN075, rel=1e-6)
    labels[1, 1] = 1.0
    out2 = bce_every_row(tensor([[0.0, 0.0], [0.0, 0.0]]), labels, quarter)
    assert out2.item() == pytest.approx((3 * LN075 + math.log(4.0)) / 4, rel=1e-6)


def test_pointer_bce_saturated_logits_keep_gradient():
    # float32 sigmoid saturates exactly at |z|=50; mislabeled entries must
    # still push back with the full-strength bounded gradient
    z = Tensor(np.array([[-50.0], [50.0]], dtype=np.float32), requires_grad=True)
    labels = np.array([[1.0], [0.0]])
    out = bce_every_row(z, labels, np.full((2, 1), 0.5))
    assert math.isfinite(out.item())
    # -ln(sig(-50)^2) = 100; -ln(1 - sig(50)^2) = 50 - ln 2
    assert out.item() == pytest.approx((100.0 + 50.0 - math.log(2.0)) / 2, rel=1e-5)
    out.backward()
    assert z.grad[0, 0] == pytest.approx(-2.0 / 2, rel=1e-6)
    assert z.grad[1, 0] == pytest.approx(1.0 / 2, rel=1e-3)


def test_pointer_bce_gradient_check():
    rng = Rng(15)
    raw = Tensor(rng.uniform(-4, 4, (4, 3), dtype=np.float64), requires_grad=True)
    labels = (np.arange(12).reshape(4, 3) % 3 == 0).astype(np.float64)
    weights = np.array([[1.0], [0.0], [1.0], [1.0]])

    def f(params):
        return bce_every_row(params[0], labels, weights / 9.0)

    assert grad_check(f, [raw], eps=1e-6) <= 1e-6


def _toy_batch(n_examples=2, negatives=6, seed=0):
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=n_examples, seed=seed))
    vocab = build_vocab(corpus)
    schema = default_schema()
    cfg = small_config(vocab_size=len(vocab), max_seq_len=64)
    batch = encode_corpus(corpus, vocab, schema, cfg.max_seq_len)
    rng = Rng(seed + 1)
    for ex in batch:
        sample_negatives(ex, negatives, rng)
    return batch, cfg, vocab, schema


def test_joint_loss_additivity_and_determinism():
    batch, cfg, _, schema = _toy_batch()
    params = init_model_params(cfg, len(schema), Rng(7))
    out1 = joint_loss(batch, params, cfg, Rng(3), training=True)
    out2 = joint_loss(batch, params, cfg, Rng(3), training=True)
    assert abs(out1.total.item() - (out1.subject + out1.relation)) < 1e-6
    assert out1.total.item() == out2.total.item()


def test_joint_loss_zero_params_hits_quarter_score_baseline():
    # zero weights force every activation to sigmoid(0)^2 = 0.25
    corpus = [RawExample("甲乙丙丁戊。", [])]
    vocab = build_vocab(corpus)
    cfg = small_config(vocab_size=len(vocab))
    schema = default_schema()
    batch = encode_corpus(corpus, vocab, schema, cfg.max_seq_len)
    sample_negatives(batch[0], 5, Rng(1))
    params = init_model_params(cfg, len(schema), Rng(8))
    for _, t in params.named_tensors():
        t.data[:] = 0.0
    out = joint_loss(batch, params, cfg, Rng(0), training=False)
    assert len(batch[0].subjects) == 0 and len(batch[0].negative_spans) == 5
    assert out.subject == pytest.approx(LN075, rel=1e-5)
    # no gold spans: the negatives' sample-mean BCE is the whole relation term
    assert out.relation == pytest.approx(LN075, rel=1e-5)
    assert out.total.item() == pytest.approx(2 * LN075, rel=1e-5)


def test_joint_loss_zero_params_span_group_weighting():
    # relation term = sum of gold-span mean BCEs + mean of negative-span BCEs
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=1, seed=3))
    vocab = build_vocab(corpus)
    cfg = small_config(vocab_size=len(vocab))
    schema = default_schema()
    batch = encode_corpus(corpus, vocab, schema, cfg.max_seq_len)
    sample_negatives(batch[0], 7, Rng(2))
    n_gold = len(batch[0].subjects)
    assert n_gold >= 1 and len(batch[0].negative_spans) == 7
    params = init_model_params(cfg, len(schema), Rng(8))
    for _, t in params.named_tensors():
        t.data[:] = 0.0
    out = joint_loss(batch, params, cfg, Rng(0), training=False)
    n_u = int((batch[0].input_ids != PAD_ID).sum())
    cells = n_u * 2 * len(schema)
    expect = LN075  # negatives' sample mean: all-zero labels at score 0.25
    for sub in batch[0].subjects:
        start, end = object_labels(sub, len(batch[0].input_ids), len(schema))
        pos = int(np.count_nonzero(start)) + int(np.count_nonzero(end))
        expect += ((cells - pos) * LN075 + pos * math.log(4.0)) / cells
    assert out.relation == pytest.approx(expect, rel=1e-5)


def test_relation_cell_weights_hand_oracle():
    # one span, 6 positions, 2 relations: gold start at (2, col 0) and
    # gold end at (4, col 2); base weight is 1 everywhere; cross-column
    # takes precedence over adjacency at (4, col 0) and (2, col 2)
    labels = np.zeros((1, 6, 4))
    labels[0, 2, 0] = 1.0
    labels[0, 4, 2] = 1.0
    base = np.ones((1, 6, 1))
    w = relation_cell_weights(labels, base, LossWeighting(60.0, 10.0, 7.0))
    expect = np.array(
        [
            [10, 1, 1, 1],
            [10, 1, 1, 1],
            [60, 7, 7, 7],
            [10, 1, 10, 1],
            [7, 7, 60, 7],
            [1, 1, 10, 1],
        ],
        dtype=float,
    )
    assert w.shape == (1, 6, 4)
    assert np.array_equal(w[0], expect)
    # dilation truncates at block edges instead of wrapping around
    one = np.zeros((1, 4, 2))
    one[0, 3, 1] = 1.0
    w2 = relation_cell_weights(one, np.ones((1, 4, 1)), LossWeighting(60.0, 10.0, 7.0))
    assert np.array_equal(w2[0], [[1, 1], [1, 10], [1, 10], [7, 60]])


def test_relation_cell_weights_rule_partition():
    # every cell obeys exactly one rule: gold, same-position cross-column,
    # within-two same column, or untouched base
    rng = np.random.default_rng(11)
    for _ in range(25):
        s, n, r2 = int(rng.integers(1, 4)), int(rng.integers(5, 14)), 2 * int(rng.integers(1, 4))
        labels = (rng.random((s, n, r2)) < 0.08).astype(float)
        base = rng.random((s, n, 1)) + 0.5
        wt = LossWeighting(31.0, 5.0, 3.0)
        got = relation_cell_weights(labels, base, wt)
        pos = labels > 0.5
        for i in range(s):
            for j in range(n):
                for k in range(r2):
                    b = base[i, j, 0]
                    if pos[i, j, k]:
                        want = b * 31.0
                    elif pos[i, j, :].any():
                        want = b * 3.0
                    else:
                        lo, hi = max(0, j - 2), min(n, j + 3)
                        want = b * 5.0 if pos[i, lo:hi, k].any() else b
                    assert got[i, j, k] == pytest.approx(want, rel=1e-12)


def test_relation_cell_weights_neutral_returns_base():
    labels = np.zeros((2, 5, 4))
    labels[0, 1, 0] = 1.0
    base = np.full((2, 5, 1), 0.25)
    out = relation_cell_weights(labels, base, LossWeighting())
    assert out.shape == (2, 5, 4)
    assert np.all(out == 0.25)


def test_joint_loss_weighting_zero_params_oracle():
    # zero params pin every activation at 0.25, so the weighted relation term
    # is a closed form over the label counts per weight class
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=1, seed=3))
    vocab = build_vocab(corpus)
    cfg = small_config(vocab_size=len(vocab))
    schema = default_schema()
    batch = encode_corpus(corpus, vocab, schema, cfg.max_seq_len)
    sample_negatives(batch[0], 7, Rng(2))
    params = init_model_params(cfg, len(schema), Rng(8))
    for _, t in params.named_tensors():
        t.data[:] = 0.0
    wt = LossWeighting(60.0, 10.0, 10.0)
    out = joint_loss(batch, params, cfg, Rng(0), training=False, weighting=wt)

    r = len(schema)
    ex = batch[0]
    n = len(ex.input_ids)
    n_u = int((ex.input_ids != PAD_ID).sum())
    n_neg = len(ex.negative_spans)
    per_gold = 1.0 / (n_u * 2 * r)
    expect = 0.0
    for sub in ex.subjects:
        lab = np.concatenate(object_labels(sub, n, r), axis=1)
        for j in range(n):
            for k in range(2 * r):
                if ex.input_ids[j] == PAD_ID:
                    continue
                if lab[j, k] > 0.5:
                    cls = 60.0
                elif lab[j, :].max() > 0.5:
                    cls = 10.0
                elif lab[max(0, j - 2) : j + 3, k].max() > 0.5:
                    cls = 10.0
                else:
                    cls = 1.0
                per_cell = math.log(4.0) if lab[j, k] > 0.5 else LN075
                expect += per_gold * cls * per_cell
    expect += LN075 * (n_u * 2 * r) * (per_gold / n_neg) * n_neg  # all-zero negatives
    assert out.relation == pytest.approx(expect, rel=1e-5)
    # subject term is untouched by the relation weighting
    base = joint_loss(batch, params, cfg, Rng(0), training=False)
    assert out.subject == pytest.approx(base.subject, rel=1e-12)


def test_joint_loss_neutral_weighting_matches_unweighted():
    batch, cfg, _, schema = _toy_batch()
    params = init_model_params(cfg, len(schema), Rng(7))
    a = joint_loss(batch, params, cfg, Rng(3), training=True)
    b = joint_loss(batch, params, cfg, Rng(3), training=True, weighting=LossWeighting())
    assert a.total.item() == b.total.item()


def _record_pointer_bce(monkeypatch) -> list[tuple]:
    """Patch joint_loss's pointer_bce to record each call's arguments."""
    import coex.tagger as tagger_module

    calls = []
    real = tagger_module.pointer_bce

    def recording(logits, rows, labels, weights, row_weights):
        calls.append((logits, rows, labels, weights, row_weights))
        return real(logits, rows, labels, weights, row_weights)

    monkeypatch.setattr(tagger_module, "pointer_bce", recording)
    return calls


def _dense_arguments(logits, rows, labels, weights, row_weights):
    """The [P, C] labels and cell weights a pointer_bce call with gold rows
    stands for: its row weights everywhere, its labels and weights on rows."""
    dense_labels = np.zeros(logits.shape, dtype=labels.dtype)
    dense_labels[rows] = labels
    dense_weights = np.broadcast_to(row_weights, logits.shape).copy()
    dense_weights[rows] = weights
    return dense_labels, dense_weights


@pytest.mark.parametrize(
    "weighting", [LossWeighting(), LossWeighting(60.0, 10.0, 10.0)], ids=["neutral", "boosted"]
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pointer_bce_gold_rows_equal_dense_oracle(monkeypatch, weighting, dtype):
    # both joint_loss calls, on a padded batch with gold and negative spans and
    # one example without a gold subject, against the dense two-label form
    from oracles import pointer_bce_dense

    batch, vocab, schema = _mixed_length_batch()
    bare = encode_corpus([RawExample("乙丙甲乙丙", [])], vocab, schema, 128)[0]
    sample_negatives(bare, 7, Rng(3))
    batch = [batch[0], bare, batch[1]]
    assert not bare.subjects and len(bare.negative_spans)
    cfg = small_config(vocab_size=len(vocab), max_seq_len=64)
    params = init_model_params(cfg, len(schema), Rng(13), dtype=dtype)
    calls = _record_pointer_bce(monkeypatch)
    joint_loss(batch, params, cfg, None, training=False, weighting=weighting)
    # the model's logits, then wide ones of both signs that saturate
    # the float32 sigmoid and make exp(-|z|) subnormal
    rng = Rng(5)
    for name, (logits, *call) in zip(("subject", "relation"), calls, strict=True):
        assert 0 < len(call[0]) < len(logits.data), name
        dense = _dense_arguments(logits, *call)
        wide = rng.uniform(-1.0, 1.0, logits.shape, dtype=dtype) ** 3 * 120.0
        for z in (logits.data, wide):
            for scale in (1.0, 0.37):
                zs = Tensor(z.copy(), requires_grad=True)
                zd = Tensor(z.copy(), requires_grad=True)
                got = pointer_bce(zs, *call)
                want = pointer_bce_dense(zd, *dense)
                (got * scale).backward()
                (want * scale).backward()
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got.data, want.data), name
                assert np.array_equal(zs.grad, zd.grad), name
    logits, rows, labels, *weights = calls[1]
    with pytest.raises(ValueError):
        pointer_bce(logits, rows, labels[1:], *weights)


@pytest.mark.parametrize(
    "weighting", [LossWeighting(), LossWeighting(60.0, 10.0, 10.0)], ids=["neutral", "boosted"]
)
def test_relation_weights_from_gold_blocks_equal_full_block_weights(monkeypatch, weighting):
    # joint_loss boosts only the gold span blocks; the oracle runs every
    # block, negatives included, through relation_cell_weights
    batch, vocab, schema = _mixed_length_batch()
    assert all(ex.subjects and len(ex.negative_spans) for ex in batch)
    cfg = small_config(vocab_size=len(vocab), max_seq_len=64)
    params = init_model_params(cfg, len(schema), Rng(13))
    calls = _record_pointer_bce(monkeypatch)
    joint_loss(batch, params, cfg, None, training=False, weighting=weighting)
    labels, weights = _dense_arguments(*calls[1])  # the relation head's call

    r2 = 2 * len(schema)
    lengths = [len(ex.input_ids) for ex in batch]
    mask = np.zeros((len(batch), max(lengths)), dtype=weights.dtype)
    for b, n in enumerate(lengths):
        mask[b, :n] = batch[b].input_ids != PAD_ID
    w = mask / (mask.sum(axis=1, keepdims=True) * len(batch))
    pos = 0
    for b, ex in enumerate(batch):
        n, g = lengths[b], len(ex.subjects)
        s = g + len(ex.negative_spans)
        per_span = np.full((s, 1, 1), 1.0 / len(ex.negative_spans), dtype=weights.dtype)
        per_span[:g] = 1.0
        base = per_span * (w[b, :n, None] / r2)
        lab = labels[pos : pos + s * n].reshape(s, n, r2)
        assert lab[:g].any() and not lab[g:].any()
        full = relation_cell_weights(lab, base, weighting)
        packed = weights[pos : pos + s * n].reshape(s, n, r2)
        assert np.array_equal(packed, full)
        boosted = not np.array_equal(packed[:g], np.broadcast_to(base[:g], (g, n, r2)))
        assert boosted != (weighting == LossWeighting())
        pos += s * n
    assert pos == len(weights)


def test_joint_loss_empty_batch_rejected():
    _, cfg, _, schema = _toy_batch()
    params = init_model_params(cfg, len(schema), Rng(10))
    with pytest.raises(ValueError):
        joint_loss([], params, cfg, Rng(0))


def test_joint_loss_gradients_small_model():
    batch, cfg16, _, schema = _toy_batch(n_examples=1, negatives=3, seed=4)
    cfg = EncoderConfig(
        vocab_size=cfg16.vocab_size, model_dim=4, num_heads=2, ffn_dim=6,
        num_layers=1, max_seq_len=64, dropout_p=0.0,
    )
    params = init_model_params(cfg, len(schema), Rng(11), dtype=np.float64)
    tensors = [t for _, t in params.named_tensors()]

    def f(_):
        return joint_loss(batch, params, cfg, rng=None, training=False).total

    assert grad_check(f, tensors, eps=1e-6) <= 1e-6


def _mixed_length_batch(negatives=61, seed=5):
    """A 5-token and a ~27-token sentence, the short one on both sides of the
    long one, with gold subjects and sampled negatives."""
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=400, overlap_fraction=0.3, seed=seed))
    short = RawExample("甲乙丙", [RawTriple("甲", "treats", "丙")])
    vocab = build_vocab(corpus + [short])
    schema = default_schema()
    examples = encode_corpus(corpus + [short], vocab, schema, 128)
    long = max(examples, key=lambda ex: (len(ex.input_ids), len(ex.subjects)))
    rng = Rng(seed)
    for ex in (examples[-1], long):
        sample_negatives(ex, negatives, rng)
    return [examples[-1], long, examples[-1]], vocab, schema


def test_batched_joint_loss_matches_per_example_loop():
    from oracles import MaskRecorder, MaskReplay, joint_loss_loop

    batch, vocab, schema = _mixed_length_batch()
    lengths = [len(ex.input_ids) for ex in batch]
    assert lengths[0] == 5 and lengths[1] >= 25 and batch[1].subjects
    cfg = EncoderConfig(vocab_size=len(vocab), model_dim=32, num_heads=4, ffn_dim=48,
                        num_layers=2, max_seq_len=64, dropout_p=0.1)
    params = init_model_params(cfg, len(schema), Rng(21))
    named = params.named_tensors()
    wt = LossWeighting(60.0, 10.0, 10.0)

    def run(loss_fn, rng, training):
        params.zero_grads()
        parts = loss_fn(batch, params, cfg, rng, training=training, weighting=wt)
        parts.total.backward()
        return parts, {n: t.grad.copy() for n, t in named}

    # dropout on: the loop replays, example by example, the rows of the masks
    # the batched forward drew on its padded layout
    recorder = MaskRecorder(Rng(17))
    batched_on = run(joint_loss, recorder, True)
    # embeddings, attention and FFN per layer, subject head, relation head
    assert len(recorder.masks) == 2 + 2 * cfg.num_layers + 1
    assert all(m.shape == (3 * lengths[1], cfg.model_dim) for m in recorder.masks)
    replay = MaskReplay(recorder.masks, lengths, lengths[1])
    loop_on = run(joint_loss_loop, replay, True)
    assert replay.exhausted
    off = (run(joint_loss, None, False), run(joint_loss_loop, None, False))
    assert batched_on[0].total.item() != pytest.approx(off[0][0].total.item(), rel=1e-3)
    for (a, ga), (b, gb) in (off, (batched_on, loop_on)):
        assert a.total.item() == pytest.approx(b.total.item(), rel=1e-5)
        assert a.subject == pytest.approx(b.subject, rel=1e-5)
        assert a.relation == pytest.approx(b.relation, rel=1e-5)
        largest = max(float(np.abs(g).max()) for g in gb.values())
        for n, _ in named:
            # softmax is shift-invariant per query, so d/d b_k is exactly zero and
            # both sides hold only rounding noise: judge it against the largest gradient
            scale = largest if n.endswith(".b_k") else float(np.abs(gb[n]).max())
            assert np.abs(ga[n] - gb[n]).max() <= 1e-4 * scale, n


def test_joint_loss_gradient_check_on_padded_batch():
    from oracles import joint_loss_loop

    batch, vocab, schema = _mixed_length_batch(negatives=3, seed=6)
    batch = batch[:2]
    cfg = EncoderConfig(vocab_size=len(vocab), model_dim=4, num_heads=2, ffn_dim=6,
                        num_layers=1, max_seq_len=32, dropout_p=0.0)
    errors = {}
    for dtype, eps in ((np.float32, 1e-3), (np.float64, 1e-6)):
        params = init_model_params(cfg, len(schema), Rng(12), dtype=dtype)
        tensors = [t for _, t in params.named_tensors()]

        def f(_):
            return joint_loss(batch, params, cfg, rng=None, training=False).total

        # the short example's padding reaches every layer; masked, it changes nothing
        loop = joint_loss_loop(batch, params, cfg, rng=None, training=False).total.item()
        assert f(None).item() == pytest.approx(loop, rel=1e-5 if dtype == np.float32 else 1e-12)
        errors[dtype] = grad_check(f, tensors, eps=eps)
    assert errors[np.float32] <= 1e-3 and errors[np.float64] <= 1e-6, errors


def _solved_model(text, subject_span, relation_idx, object_span, schema):
    """Build a model whose heads are least-squares solved to emit one triple."""
    from coex.data import tokenize
    from coex.encoder import encode

    tokens, _ = tokenize(text)
    corpus = [RawExample(text, [])]
    vocab = build_vocab(corpus)
    cfg = small_config(vocab_size=len(vocab), model_dim=8, num_heads=2, num_layers=2)
    params = init_model_params(cfg, len(schema), Rng(12))
    # strip attention and ffn so hidden states depend only on position
    for layer in params.encoder.layers:
        for name in ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_w2"):
            getattr(layer, name).data[:] = 0.0
    params.encoder.token_emb.data[:] = 0.0
    params.encoder.segment_emb.data[:] = 0.0

    ids = vocab.encode(tokens)
    n = len(ids)
    h = encode(ids[None], params.encoder, cfg).data.astype(np.float64)

    def solve(features, targets):
        w, *_ = np.linalg.lstsq(features, targets, rcond=None)
        return w.astype(np.float32)

    hi, lo = 4.0, -4.0
    subj_t = np.full((n, 2), lo)
    subj_t[subject_span.start, 0] = hi
    subj_t[subject_span.end, 1] = hi
    params.subject_w.data[:] = solve(h, subj_t)

    mean = h[subject_span.start : subject_span.end + 1].mean(axis=0)
    hc = h + mean
    r = len(schema)
    rel_t = np.full((n, 2 * r), lo)
    rel_t[object_span.start, relation_idx] = hi
    rel_t[object_span.end, r + relation_idx] = hi
    params.relation_w.data[:] = solve(hc, rel_t)
    return params, cfg, vocab


def test_extract_triples_end_to_end_with_solved_heads():
    schema = default_schema()
    text = "甲乙丙丁戊"
    params, cfg, vocab = _solved_model(text, Span(1, 2), schema.index("treats"), Span(4, 4), schema)
    triples = extract_triples(text, params, cfg, vocab, schema)
    assert len(triples) == 1
    t = triples[0]
    assert (t.subject, t.predicate, t.object) == ("甲乙", "treats", "丁")
    assert t.subject_span == Span(1, 2) and t.object_span == Span(4, 4)


def test_extract_triples_untrained_model_is_empty_and_quiet():
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=3, seed=6))
    vocab = build_vocab(corpus)
    schema = default_schema()
    cfg = small_config(vocab_size=len(vocab), max_seq_len=32)
    params = init_model_params(cfg, len(schema), Rng(13))
    assert extract_triples(corpus[0].text, params, cfg, vocab, schema) == []
    assert extract_triples("", params, cfg, vocab, schema) == []


def test_extract_triples_handles_overlong_text():
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=2, seed=7))
    vocab = build_vocab(corpus)
    schema = default_schema()
    cfg = small_config(vocab_size=len(vocab), max_seq_len=8)
    params = init_model_params(cfg, len(schema), Rng(14))
    long_text = corpus[0].text * 10
    assert extract_triples(long_text, params, cfg, vocab, schema) == []
    # untrained scores sit near 0.25, so a 0.2 threshold decodes spans across
    # the whole window: content tokens 1..6, before the [SEP] at position 7
    triples = extract_triples(long_text, params, cfg, vocab, schema, threshold=0.2)
    ends = {t.object_span.end for t in triples} | {t.subject_span.end for t in triples}
    assert max(ends) == cfg.max_seq_len - 2
    for t in triples:
        assert t.object == long_text[t.object_span.start - 1 : t.object_span.end]


def test_extract_triples_all_subjects_in_one_call_matches_per_subject_oracle(monkeypatch):
    from coex.trainer import TrainConfig, train
    from oracles import extract_triples_per_subject

    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=600, overlap_fraction=0.3, seed=8))
    config = TrainConfig(
        # a 0.3 threshold finds more subjects and objects in a model this briefly trained
        epochs=3, batch_size=8, negatives_per_positive=16, threshold=0.3,
        encoder=EncoderConfig(vocab_size=0, model_dim=32, num_heads=2, ffn_dim=48,
                              num_layers=1, max_seq_len=64, dropout_p=0.1),
    )
    result = train(config, corpus[:400], default_schema())
    params, cfg = result.params.freeze(), result.config.encoder
    blocks = []

    def recording(logits, mask, threshold=0.5):
        blocks.append(squared_score(logits))
        return decode_objects(logits, mask, threshold)

    monkeypatch.setattr(tagger, "decode_objects", recording)
    found = multi = 0
    args = (params, cfg, result.vocab, result.schema, config.threshold)
    for raw in corpus[400:]:
        blocks.clear()
        got = extract_triples(raw.text, *args)
        want, want_scores = extract_triples_per_subject(raw.text, *args)
        assert got == want, raw.text
        assert len(blocks) == len(want_scores)
        for a, b in zip(blocks, want_scores):
            assert np.abs(a - b).max() <= 1e-6
        found += len(got)
        multi += len(blocks) > 1
    # the model must find triples, and some sentences must hold several subjects
    assert found >= 100 and multi >= 5, (found, multi)
