"""Transformer encoder over character-level token ids.

Post-norm layers: x -> LN(x + dropout(MHA(x))) -> LN(u + dropout(FFN(u))).
Attention masking is additive (-1e9 on masked keys), which drives masked
attention weights to exactly zero after the max-subtracted softmax.

The one input is a [B, L] int64 matrix of token ids, padded with PAD_ID; the
attention mask is derived from it (ids != PAD_ID). Hidden states are B·L rows
of [B·L, d], example b on rows b·L .. b·L + L - 1. A single sentence is the
batch B = 1. Every token is segment 0: only row 0 of the segment table is read.

An attention layer whose logits are provably at most 2⁻²⁷ builds its exactly
uniform weights directly, in training and inference alike; in training its
w_q, b_q, w_k and b_k then get no gradient (see _uniform_attention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import (
    Rng,
    Tensor,
    add,
    dropout,
    embedding_lookup,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    softmax,
    transpose,
    value,
)

PAD_ID = 0  # [PAD]; no tokenized text encodes to it
MASK_BIAS = -1e9
UNIFORM_LOGIT_BOUND = 2.0**-27  # see _uniform_attention


@dataclass
class EncoderConfig:
    vocab_size: int
    model_dim: int = 128
    num_heads: int = 4
    ffn_dim: int = 256
    num_layers: int = 2
    max_seq_len: int = 128
    dropout_p: float = 0.2
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.model_dim % self.num_heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must allow at least [CLS] and [SEP]")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


@dataclass
class LayerParams:
    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor


@dataclass
class EncoderParams:
    token_emb: Tensor
    segment_emb: Tensor
    position_emb: Tensor
    layers: list[LayerParams]


def layer_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The shape of each LayerParams tensor, in field order; coex.tagger.model_shapes
    repeats it for every layer."""
    d, f = config.model_dim, config.ffn_dim
    return {
        "w_q": (d, d), "b_q": (d,), "w_k": (d, d), "b_k": (d,),
        "w_v": (d, d), "b_v": (d,), "w_o": (d, d), "b_o": (d,),
        "ffn_w1": (d, f), "ffn_b1": (f,), "ffn_w2": (f, d), "ffn_b2": (d,),
        "ln1_gamma": (d,), "ln1_beta": (d,), "ln2_gamma": (d,), "ln2_beta": (d,),
    }


def pad_batch(sentences: list[np.ndarray]) -> np.ndarray:
    """Stack id arrays into one [B, L] int64 matrix, L the longest, padded with PAD_ID."""
    ids = np.full((len(sentences), max(len(s) for s in sentences)), PAD_ID, dtype=np.int64)
    for b, s in enumerate(sentences):
        ids[b, : len(s)] = s
    return ids


def embed_inputs(
    ids: np.ndarray,
    params: EncoderParams,
    config: EncoderConfig,
    training: bool = False,
    rng: Rng | None = None,
) -> Tensor | np.ndarray:
    """Sum of token, segment-0 and learned position embeddings, then dropout."""
    b, n = ids.shape
    if n > config.max_seq_len:
        raise ValueError(f"sequence length {n} exceeds max_seq_len {config.max_seq_len}")
    h = embedding_lookup(params.token_emb, ids.reshape(-1))
    # one segment row for every token and one position row per column, each
    # broadcast, so their backward is a sum over rows instead of a scatter
    h = add(h, embedding_lookup(params.segment_emb, np.zeros(1, dtype=np.int64)))
    d = h.shape[1]
    positions = embedding_lookup(params.position_emb, np.arange(n))
    h = reshape(add(reshape(h, (b, n, d)), positions), (-1, d))
    return dropout(h, config.dropout_p, training, rng)


def _linear(x: Tensor | np.ndarray, w: Tensor, b: Tensor) -> Tensor | np.ndarray:
    return add(matmul(x, w), b)


def _uniform_attention(q, k, mask: np.ndarray, heads: int, reach: float):
    """Attention weights, an ndarray [B, heads, L, L], when no float32 logit
    can move the softmax off uniform, else None.

    |logit| <= reach · max|q| · max|k| with reach = head_dim · scale. Within
    2⁻²⁷, max-shifted logits lie in [-2⁻²⁶, 0], where float32 exp returns
    exactly 1: each unmasked key gets exactly 1/count, each masked key 0 (all
    keys 1/L when all are masked). NaN or inf fails the test. Contiguous
    weights keep att @ v on the same BLAS call as after a softmax.

    The weights are a constant with or without gradients: q and k, and
    through them w_q, b_q, w_k and b_k, get no gradient from this layer. The
    dropped term is the softmax gradient (g - mean g) / count per row, which
    reaches q only times scale · k and k only times scale · q, the two
    factors whose product the bound keeps under 2⁻²⁷.
    """
    if q.dtype != np.float32:
        return None
    qd, kd = value(q), value(k)
    largest = reach * float(np.abs(qd).max(initial=0.0)) * float(np.abs(kd).max(initial=0.0))
    if not largest <= UNIFORM_LOGIT_BOUND:
        return None
    keys = mask.astype(q.dtype)
    keys[~keys.any(axis=1)] = 1
    keys /= np.add.reduce(keys, axis=1, keepdims=True)
    att = np.empty((mask.shape[0], heads, mask.shape[1], mask.shape[1]), dtype=q.dtype)
    att[...] = keys[:, None, None, :]
    return att


def multi_head_attention(
    x: Tensor | np.ndarray, mask: np.ndarray, layer: LayerParams, config: EncoderConfig
) -> Tensor | np.ndarray:
    """Scaled dot-product attention per head; masked keys get weight exactly 0.

    x is [B·L, d] and mask [B, L]; each example attends only within its own
    L rows. A layer whose logits are provably too small to matter skips
    q @ k and the softmax (see _uniform_attention); the forward is
    bit-identical either way, and in training the skipped layer's q and k
    projections get no gradient.
    """
    b, n = mask.shape
    d = x.shape[1]
    nh, hd = config.num_heads, config.head_dim
    scale = 1.0 / math.sqrt(hd)
    q = _linear(x, layer.w_q, layer.b_q)
    k = _linear(x, layer.w_k, layer.b_k)
    v = _linear(x, layer.w_v, layer.b_v)
    # [B·L, d] -> [B, heads, L, head_dim]
    v = transpose(reshape(v, (b, n, nh, hd)), (0, 2, 1, 3))
    att = _uniform_attention(q, k, mask, nh, hd * scale)
    if att is None:
        q = transpose(reshape(q, (b, n, nh, hd)), (0, 2, 1, 3))
        k = transpose(reshape(k, (b, n, nh, hd)), (0, 2, 3, 1))
        logits = mul(matmul(q, k), scale)
        if not mask.all():  # adding an all-zero bias would change nothing
            bias = ((1 - mask) * MASK_BIAS).astype(x.dtype)[:, None, None, :]
            logits = add(logits, bias)
        att = softmax(logits, axis=-1)
    ctx = matmul(att, v)
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (b * n, d))
    return _linear(ctx, layer.w_o, layer.b_o)


def feed_forward(x: Tensor | np.ndarray, layer: LayerParams) -> Tensor | np.ndarray:
    return _linear(relu(_linear(x, layer.ffn_w1, layer.ffn_b1)), layer.ffn_w2, layer.ffn_b2)


def encoder_layer(
    x: Tensor | np.ndarray,
    mask: np.ndarray,
    layer: LayerParams,
    config: EncoderConfig,
    training: bool = False,
    rng: Rng | None = None,
) -> Tensor | np.ndarray:
    a = dropout(multi_head_attention(x, mask, layer, config), config.dropout_p, training, rng)
    u = layer_norm(add(x, a), layer.ln1_gamma, layer.ln1_beta, config.ln_eps)
    f = dropout(feed_forward(u, layer), config.dropout_p, training, rng)
    return layer_norm(add(u, f), layer.ln2_gamma, layer.ln2_beta, config.ln_eps)


def encode(
    ids: np.ndarray,
    params: EncoderParams,
    config: EncoderConfig,
    training: bool = False,
    rng: Rng | None = None,
) -> Tensor | np.ndarray:
    """Full stack over [B, L] padded ids: embeddings plus num_layers encoder
    layers, with [PAD] keys masked. Returns [B·L, model_dim], a plain ndarray
    when no parameter requires grad."""
    mask = ids != PAD_ID
    h = embed_inputs(ids, params, config, training, rng)
    for layer in params.layers:
        h = encoder_layer(h, mask, layer, config, training, rng)
    return h
