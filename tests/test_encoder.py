from contextlib import contextmanager

import numpy as np
import pytest

from coex.autograd import Rng, Tensor, grad_check, mul, softmax, tensor, tsum
from coex.data import (
    SynthConfig,
    build_vocab,
    default_schema,
    encode_corpus,
    generate_synthetic_corpus,
    sample_negatives,
)
from coex.encoder import (
    PAD_ID,
    UNIFORM_LOGIT_BOUND,
    EncoderConfig,
    EncoderParams,
    embed_inputs,
    encode,
    encoder_layer,
    feed_forward,
    multi_head_attention,
    pad_batch,
)
from coex.tagger import LossWeighting, init_model_params, joint_loss
from oracles import square


def small_config(**kw):
    defaults = dict(
        vocab_size=11,
        model_dim=8,
        num_heads=2,
        ffn_dim=16,
        num_layers=2,
        max_seq_len=12,
        dropout_p=0.0,
    )
    defaults.update(kw)
    return EncoderConfig(**defaults)


def make_input(ids):
    """One sentence as the [1, n] id matrix the encoder takes."""
    return np.asarray(ids, dtype=np.int64)[None]


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(model_dim=10, num_heads=4)
    with pytest.raises(ValueError):
        small_config(max_seq_len=1)
    with pytest.raises(ValueError):
        small_config(dropout_p=1.0)
    assert small_config().head_dim == 4


def test_init_ranges_and_shapes():
    cfg = small_config()
    params = init_model_params(cfg, 1, Rng(0)).encoder
    assert params.token_emb.shape == (11, 8)
    assert params.segment_emb.shape == (2, 8)
    assert params.position_emb.shape == (12, 8)
    assert len(params.layers) == 2
    layer = params.layers[0]
    for w in (layer.w_q, layer.w_k, layer.w_v, layer.w_o, layer.ffn_w1, layer.ffn_w2):
        assert np.all(np.abs(w.data) <= 0.02)
        assert w.requires_grad
    for b in (layer.b_q, layer.b_k, layer.b_v, layer.b_o, layer.ffn_b1, layer.ffn_b2):
        assert np.all(b.data == 0.0)
    assert np.all(layer.ln1_gamma.data == 1.0)
    assert np.all(layer.ln2_beta.data == 0.0)
    assert params.token_emb.dtype == np.float32


def test_init_rejects_empty_vocab():
    with pytest.raises(ValueError):
        init_model_params(small_config(vocab_size=0), 1, Rng(0)).encoder


def test_embed_inputs_is_sum_of_three_tables():
    cfg = small_config()
    params = init_model_params(cfg, 1, Rng(1)).encoder
    x = make_input([2, 5, 7, 3])
    h = embed_inputs(x, params, cfg)
    manual = (
        params.token_emb.data[[2, 5, 7, 3]]
        + params.segment_emb.data[[0, 0, 0, 0]]
        + params.position_emb.data[:4]
    )
    np.testing.assert_allclose(h.data, manual, rtol=1e-6)


def test_embed_inputs_rejects_long_sequence():
    cfg = small_config(max_seq_len=3)
    params = init_model_params(cfg, 1, Rng(1)).encoder
    with pytest.raises(ValueError) as err:
        embed_inputs(make_input([1, 2, 3, 4]), params, cfg)
    assert "3" in str(err.value)


@pytest.mark.parametrize("seed", range(4))
def test_segment_gradient_is_the_row_scatter_bit_for_bit(seed):
    # every token reads segment row 0, broadcast: its gradient is a sum over
    # the B·L rows, padding included, and must equal the per-row scatter of
    # a segment-id lookup bit for bit, -0.0 included
    cfg = small_config()
    params = init_model_params(cfg, 1, Rng(seed)).encoder
    x = pad_batch([np.array([2, 5, 7, 3]), np.array([2, 9, 4, 6, 8, 1, 10, 3]), np.array([2, 3])])
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((x.size, cfg.model_dim)) * 10.0 ** rng.integers(-6, 6, (x.size, 1))
    g = g.astype(np.float32)
    g[rng.random(g.shape) < 0.1] = -0.0
    g[:, 0] = -0.0  # a column of negative zeros
    g[:, 1] = 0.0
    assert np.abs(g[(x == PAD_ID).reshape(-1)]).max() > 0
    tsum(mul(embed_inputs(x, params, cfg), Tensor(g))).backward()
    scatter = np.zeros_like(params.segment_emb.data)
    np.add.at(scatter, np.zeros(x.size, dtype=np.int64), g)
    got = params.segment_emb.grad
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), scatter.view(np.uint32))
    assert not got[1].view(np.uint32).any()


def test_attention_additive_mask_zeroes_weights_exactly():
    logits = tensor([[2.0, -1e9, 0.5]])
    w = softmax(logits, axis=-1)
    assert w[0, 1] == 0.0
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-6)


def test_masked_value_rows_cannot_influence_output():
    cfg = small_config()
    params = init_model_params(cfg, 1, Rng(2)).encoder
    n = 6
    rng = np.random.default_rng(0)
    base = rng.normal(scale=0.5, size=(n, cfg.model_dim)).astype(np.float32)
    mask = np.array([[1, 1, 1, 1, 0, 0]])
    out1 = multi_head_attention(Tensor(base), mask, params.layers[0], cfg)
    poked = base.copy()
    poked[4:] += 37.0
    out2 = multi_head_attention(Tensor(poked), mask, params.layers[0], cfg)
    np.testing.assert_allclose(out1.data[:4], out2.data[:4], atol=1e-5)


def test_attention_permutation_equivariance_without_positions():
    cfg = small_config()
    params = init_model_params(cfg, 1, Rng(3)).encoder
    rng = np.random.default_rng(1)
    x = rng.normal(scale=0.5, size=(5, cfg.model_dim)).astype(np.float32)
    mask = np.ones((1, 5), dtype=bool)
    perm = np.array([3, 0, 4, 1, 2])
    out = multi_head_attention(Tensor(x), mask, params.layers[0], cfg)
    out_p = multi_head_attention(Tensor(x[perm]), mask, params.layers[0], cfg)
    np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-5)


def test_encoder_layer_with_zero_weights_is_double_layer_norm():
    cfg = small_config()
    params = init_model_params(cfg, 1, Rng(4)).encoder
    layer = params.layers[0]
    for w in (layer.w_q, layer.w_k, layer.w_v, layer.w_o, layer.ffn_w1, layer.ffn_w2):
        w.data[:] = 0.0
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, cfg.model_dim)).astype(np.float32)
    out = encoder_layer(Tensor(x), np.ones((1, 4), dtype=bool), layer, cfg)

    def ln(v):
        mu = v.mean(axis=-1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + cfg.ln_eps)

    np.testing.assert_allclose(out.data, ln(ln(x)), atol=1e-5)


def test_feed_forward_matches_manual():
    cfg = small_config()
    params = init_model_params(cfg, 1, Rng(5)).encoder
    layer = params.layers[1]
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, cfg.model_dim)).astype(np.float32)
    out = feed_forward(Tensor(x), layer)
    pre = x @ layer.ffn_w1.data + layer.ffn_b1.data
    manual = np.maximum(pre, 0.0) @ layer.ffn_w2.data + layer.ffn_b2.data
    np.testing.assert_allclose(out.data, manual, rtol=1e-5)


def test_encode_shape_and_determinism():
    cfg = small_config(dropout_p=0.2)
    params = init_model_params(cfg, 1, Rng(6)).encoder
    x = make_input([2, 4, 6, 8, 10])
    out1 = encode(x, params, cfg, training=True, rng=Rng(99))
    out2 = encode(x, params, cfg, training=True, rng=Rng(99))
    out3 = encode(x, params, cfg, training=True, rng=Rng(100))
    assert out1.shape == (5, cfg.model_dim)
    assert np.array_equal(out1.data, out2.data)
    assert not np.array_equal(out1.data, out3.data)


def test_padded_batch_encodes_each_sentence_as_alone():
    cfg = small_config()
    params = init_model_params(cfg, 1, Rng(9)).encoder
    sentences = [np.array([2, 5, 7, 3]), np.array([2, 9, 4, 6, 8, 1, 10, 3]), np.array([2, 3])]
    x = pad_batch(sentences)
    assert x.shape == (3, 8) and x.dtype == np.int64
    assert x.tolist()[2] == [2, 3, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]
    assert (x != PAD_ID).tolist()[2] == [1, 1, 0, 0, 0, 0, 0, 0]
    out = encode(x, params, cfg)
    assert out.shape == (3 * 8, cfg.model_dim)
    for b, s in enumerate(sentences):
        alone = encode(s[None], params, cfg)
        np.testing.assert_allclose(out.data[b * 8 : b * 8 + len(s)], alone.data, atol=1e-6)


def test_encode_inference_mode_builds_no_graph():
    cfg = small_config()
    params = init_model_params(cfg, 1, Rng(7)).encoder
    for _, p in _named(params):
        p.requires_grad = False
    out = encode(make_input([1, 2, 3]), params, cfg)
    assert type(out) is np.ndarray


def _named(params: EncoderParams):
    yield "token_emb", params.token_emb
    yield "segment_emb", params.segment_emb
    yield "position_emb", params.position_emb
    for i, layer in enumerate(params.layers):
        for fname in (
            "w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o",
            "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
            "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta",
        ):
            yield f"layer{i}.{fname}", getattr(layer, fname)


def test_encoder_grad_check_float64():
    cfg = EncoderConfig(
        vocab_size=9, model_dim=4, num_heads=2, ffn_dim=6,
        num_layers=1, max_seq_len=6, dropout_p=0.0,
    )
    params = init_model_params(cfg, 1, Rng(8), dtype=np.float64).encoder
    x = make_input([1, 3, 5, 7])
    tensors = [p for _, p in _named(params)]

    def f(_):
        return tsum(square(encode(x, params, cfg)))

    assert grad_check(f, tensors, eps=1e-6) <= 1e-6


# ---------------------------------------------------------------------------
# no-grad forward: the uniform-attention skip is exact


def _attention_config():
    return small_config(vocab_size=30, model_dim=32, num_heads=4, ffn_dim=64, max_seq_len=20)


def _counting_softmax(monkeypatch):
    """Count softmax calls made by the encoder."""
    import coex.encoder as encoder_module

    calls = []
    real = encoder_module.softmax

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(encoder_module, "softmax", counted)
    return calls


@contextmanager
def _full_path(monkeypatch):
    """Inside, attention never takes the uniform-attention skip."""
    import coex.encoder as encoder_module

    with monkeypatch.context() as m:
        m.setattr(encoder_module, "_uniform_attention", lambda *args: None)
        yield


def _full_and_frozen_encode(x, params, cfg, calls, monkeypatch):
    """(full-path hidden, no-grad hidden, softmax calls of the no-grad pass)
    from the same weights; the full path runs in grad mode with the skip
    switched off. Leaves params frozen."""
    with _full_path(monkeypatch):
        calls.clear()
        full = encode(x, params, cfg)
        assert full.requires_grad
        assert len(calls) == cfg.num_layers
    for _, p in _named(params):
        p.requires_grad = False
    calls.clear()
    frozen = encode(x, params, cfg)
    assert type(frozen) is np.ndarray
    return full.data, frozen, len(calls)


def _scale_attention(layer, s: float):
    layer.w_q.data *= s
    layer.w_k.data *= s


def test_no_grad_encode_is_bit_identical_without_skip(monkeypatch):
    calls = _counting_softmax(monkeypatch)
    cfg = _attention_config()
    params = init_model_params(cfg, 1, Rng(21)).encoder
    full, frozen, softmaxes = _full_and_frozen_encode(
        make_input([2, 7, 11, 4, 9, 3]), params, cfg, calls, monkeypatch
    )
    assert softmaxes == cfg.num_layers  # random-init logits are far above the bound
    assert np.array_equal(full, frozen)


@pytest.mark.parametrize("scale", [1e-20, 1e-3, 1e-2])
def test_no_grad_encode_is_bit_identical_with_tiny_attention(monkeypatch, scale):
    calls = _counting_softmax(monkeypatch)
    cfg = _attention_config()
    params = init_model_params(cfg, 1, Rng(22)).encoder
    _scale_attention(params.layers[1], scale)
    full, frozen, softmaxes = _full_and_frozen_encode(
        make_input([2, 5, 17, 8, 23, 1, 12, 3]), params, cfg, calls, monkeypatch
    )
    if scale == 1e-20:
        assert softmaxes == cfg.num_layers - 1  # layer 1 skipped q @ k and softmax
    assert np.array_equal(full, frozen)


def test_uniform_attention_skip_is_exact_at_its_bound(monkeypatch):
    # scale layer 0's q and k so the logit bound sits just under 2^-27: the
    # skip fires, and the softmax it replaces is exactly uniform too
    calls = _counting_softmax(monkeypatch)
    cfg = _attention_config()
    params = init_model_params(cfg, 1, Rng(23)).encoder
    x = make_input([2, 9, 14, 6, 28, 4, 19, 3])
    h = embed_inputs(x, params, cfg).data
    layer = params.layers[0]
    hd = cfg.head_dim
    reach = hd / np.sqrt(hd) * np.abs(h @ layer.w_q.data).max() * np.abs(h @ layer.w_k.data).max()
    _scale_attention(layer, 0.99 * np.sqrt(UNIFORM_LOGIT_BOUND / reach))
    full, frozen, softmaxes = _full_and_frozen_encode(x, params, cfg, calls, monkeypatch)
    assert softmaxes == cfg.num_layers - 1
    assert np.array_equal(full, frozen)


def test_no_grad_encode_is_bit_identical_on_padded_batch(monkeypatch):
    calls = _counting_softmax(monkeypatch)
    cfg = _attention_config()
    params = init_model_params(cfg, 1, Rng(24)).encoder
    _scale_attention(params.layers[0], 1e-20)
    sentences = [
        np.array([2, 5, 7, 3]),
        np.array([2, 9, 4, 6, 8, 1, 10, 3]),
        np.full(3, PAD_ID),  # every key masked
    ]
    x = pad_batch(sentences)
    assert not (x != PAD_ID).all()
    full, frozen, softmaxes = _full_and_frozen_encode(x, params, cfg, calls, monkeypatch)
    assert softmaxes == cfg.num_layers - 1
    assert np.array_equal(full, frozen)


def test_exp_is_exactly_one_on_the_skip_range():
    # the skip's 2^-27 bound keeps max-shifted logits in [-2^-26, 0]; float32
    # exp must return exactly 1 on twice that width, contiguous and strided
    x = np.linspace(-(2.0**-25), 0.0, 1_000_001, dtype=np.float32)
    assert x[0] == -(2.0**-25) and x[-1] == 0.0
    assert np.all(np.exp(x) == 1.0)
    assert np.all(np.exp(x[::-7]) == 1.0)


# ---------------------------------------------------------------------------
# training takes the same skip; it drops only the q/k gradient of that layer


def _training_batch():
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=6, overlap_fraction=0.3, seed=3))
    vocab = build_vocab(corpus)
    schema = default_schema()
    batch = encode_corpus(corpus, vocab, schema, 64)
    rng = Rng(4)
    for ex in batch:
        sample_negatives(ex, 9, rng)
    cfg = small_config(vocab_size=len(vocab), model_dim=32, num_heads=4, ffn_dim=64,
                       max_seq_len=64, dropout_p=0.1)
    return batch, cfg, len(schema)


def _train_step_grads(batch, params, cfg):
    """(loss, leaf gradients by name) of one training-mode joint_loss with a
    fixed dropout stream, after backward."""
    params.zero_grads()
    parts = joint_loss(batch, params, cfg, Rng(17), training=True,
                       weighting=LossWeighting(60.0, 10.0, 10.0))
    parts.total.backward()
    return parts.total.data, {n: t.grad for n, t in params.named_tensors()}


def _layer1_logit_bound(batch, params, cfg, monkeypatch) -> float:
    """reach · max|q| · max|k| of layer 1 in the training forward."""
    import coex.encoder as encoder_module

    seen = []

    def record(q, k, mask, heads, reach):
        seen.append(reach * float(np.abs(q.data).max()) * float(np.abs(k.data).max()))

    with monkeypatch.context() as m:
        m.setattr(encoder_module, "_uniform_attention", record)
        joint_loss(batch, params, cfg, Rng(17), training=True)
    assert len(seen) == cfg.num_layers
    return seen[1]


QK_GRADS = ("w_q", "b_q", "w_k", "b_k")


@pytest.mark.parametrize("where", ["1e-20", "at_bound"])
def test_training_skip_loss_is_exact_and_drops_only_layer_qk_grads(monkeypatch, where):
    calls = _counting_softmax(monkeypatch)
    batch, cfg, relations = _training_batch()
    params = init_model_params(cfg, relations, Rng(31))
    layer = params.encoder.layers[1]
    if where == "1e-20":
        _scale_attention(layer, 1e-20)
    else:
        # q and k are linear in w_q and w_k (zero biases at init), and layer
        # 1's input does not depend on them: land just under the bound
        bound = _layer1_logit_bound(batch, params, cfg, monkeypatch)
        _scale_attention(layer, 0.99 * np.sqrt(UNIFORM_LOGIT_BOUND / bound))
        bound = _layer1_logit_bound(batch, params, cfg, monkeypatch)
        assert 0.9 * UNIFORM_LOGIT_BOUND < bound <= UNIFORM_LOGIT_BOUND
    with _full_path(monkeypatch):
        calls.clear()
        full_loss, full = _train_step_grads(batch, params, cfg)
        assert len(calls) == cfg.num_layers
    calls.clear()
    skip_loss, skip = _train_step_grads(batch, params, cfg)
    assert len(calls) == cfg.num_layers - 1  # layer 1 skipped q @ k and softmax
    assert np.array_equal(skip_loss, full_loss)
    for name, g in skip.items():
        if name in {f"layer1.{f}" for f in QK_GRADS}:
            assert g is None, name
            continue
        largest = float(np.abs(full[name]).max())
        assert np.abs(g - full[name]).max() <= 1e-6 * largest, name


def test_training_at_random_init_runs_every_softmax(monkeypatch):
    calls = _counting_softmax(monkeypatch)
    batch, cfg, relations = _training_batch()
    params = init_model_params(cfg, relations, Rng(31))
    _train_step_grads(batch, params, cfg)
    assert len(calls) == cfg.num_layers
    for layer in params.encoder.layers:
        for f in QK_GRADS[:3]:  # softmax is shift-invariant: d/d b_k is rounding noise
            g = getattr(layer, f).grad
            assert g is not None and np.abs(g).max() > 0, f
