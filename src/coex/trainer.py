"""Training loop, Adagrad optimizer, metrics log, binary checkpoints.

Checkpoint layout (all little-endian):

    magic "COEX" | u32 version=1 | u32 header_len | header (UTF-8 JSON)
    then per tensor: u16 name_len | name | u8 rank | rank*u64 dims | f32 data

The header carries the config and the expected tensor names/shapes, so a
reader can detect truncation and shape disagreement; exports add vocab and
schema sections to the same header.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tagger
from .autograd import Rng, Tensor
from .data import Vocab, build_vocab, encode_corpus, sample_negatives
from .encoder import EncoderConfig, EncoderParams, LayerParams
from .tagger import (
    LossWeighting,
    ModelParams,
    RelationSchema,
    extract_triples,
    init_model_params,
    joint_loss,
)

CHECKPOINT_MAGIC = b"COEX"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(ValueError):
    pass


class CheckpointVersionError(ValueError):
    pass


class CheckpointTruncatedError(ValueError):
    pass


class CheckpointIntegrityError(ValueError):
    pass


@dataclass
class TrainConfig:
    """Training defaults reproduce the recorded desk-model recipe; the boost
    fields shape the relation BCE (see LossWeighting) and all-ones disables
    the shaping."""

    lr: float = 0.08
    weight_decay: float = 0.01
    batch_size: int = 16
    epochs: int = 20
    seed: int = 0
    negatives_per_positive: int = 128
    threshold: float = 0.5
    adagrad_eps: float = 1e-10
    positive_boost: float = 60.0
    adjacent_boost: float = 10.0
    column_boost: float = 10.0
    encoder: EncoderConfig = field(
        default_factory=lambda: EncoderConfig(vocab_size=0, dropout_p=0.1)
    )

    def __post_init__(self):
        if self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("batch_size must be positive and epochs non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if min(self.positive_boost, self.adjacent_boost, self.column_boost) <= 0:
            raise ValueError("loss boosts must be positive")

    def loss_weighting(self) -> LossWeighting:
        return LossWeighting(self.positive_boost, self.adjacent_boost, self.column_boost)


def config_from_dict(d: dict) -> TrainConfig:
    enc = EncoderConfig(**d["encoder"])
    rest = {k: v for k, v in d.items() if k != "encoder"}
    return TrainConfig(encoder=enc, **rest)


@dataclass
class OptimizerState:
    accumulators: dict[str, np.ndarray] = field(default_factory=dict)


def flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Set every element with |a| below the dtype's smallest normal to zero, in place.

    x86 computes with subnormal floats many times slower than with normal ones,
    and coupled decay drives weights that get little gradient through that range.
    """
    a[np.abs(a) < np.finfo(a.dtype).tiny] = 0
    return a


def adagrad_step(
    named_params, state: OptimizerState, lr: float, weight_decay: float, eps: float = 1e-10
):
    """Accumulate squared gradients and update; weight decay couples into the
    gradient before accumulation (g' = g + wd * w). Updated weights are
    flushed: none is left subnormal."""
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
        flush_subnormals(p.data)


@dataclass
class EpochMetrics:
    epoch: int
    mean_loss: float
    mean_subject_loss: float
    mean_relation_loss: float
    wall_time_s: float
    subnormal_weights: int
    max_abs_weight: float
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    # seconds summed over the epoch's batches in joint_loss, backward and adagrad_step
    forward_s: float = 0.0
    backward_s: float = 0.0
    optimizer_s: float = 0.0
    # teacher-forced joint loss on the eval corpus, dropout off, per example
    heldout_loss: float | None = None


def weight_health(named_tensors) -> tuple[int, float]:
    """(count of subnormal elements, largest |w|) over the given tensors."""
    subnormal, max_abs = 0, 0.0
    for _, t in named_tensors:
        a = np.abs(t.data)
        subnormal += int(np.count_nonzero((a > 0) & (a < np.finfo(a.dtype).tiny)))
        max_abs = max(max_abs, float(a.max(initial=0.0)))
    return subnormal, max_abs


def save_metrics(metrics: list[EpochMetrics], path):
    with open(path, "w", encoding="utf-8") as fh:
        for m in metrics:
            fh.write(json.dumps(asdict(m)) + "\n")


@dataclass
class TrainResult:
    params: ModelParams
    vocab: Vocab
    config: TrainConfig
    schema: RelationSchema
    metrics: list[EpochMetrics]
    best_params: ModelParams | None = None
    best_epoch: int | None = None
    best_f1: float | None = None


def _evaluate(params, config: TrainConfig, vocab, schema, eval_corpus, eval_examples):
    """(triple scores, held-out loss): extraction scored against the eval
    corpus, and the mean teacher-forced joint loss over its encoded examples
    with dropout off, in batches of batch_size."""
    from .evaluator import score_triples

    # a frozen view, new tensors over the same arrays: no op records a graph
    arrays = {name: t.data for name, t in params.named_tensors()}
    frozen = _params_from_tensors(_header_dict(params, config), arrays)[0].freeze()
    predictions, gold = [], []
    for raw in eval_corpus:
        predictions.append(
            extract_triples(raw.text, frozen, config.encoder, vocab, schema, config.threshold)
        )
        gold.append([(t.subject, t.predicate, t.object) for t in raw.triples])
    total = 0.0
    for lo in range(0, len(eval_examples), config.batch_size):
        batch = eval_examples[lo : lo + config.batch_size]
        # through the module: bench/tracing.py rebinds this module's joint_loss
        # to count optimizer steps
        parts = tagger.joint_loss(
            batch, frozen, config.encoder, training=False, weighting=config.loss_weighting()
        )
        total += parts.total.item() * len(batch)
    loss = total / len(eval_examples) if eval_examples else None
    return score_triples(predictions, gold), loss


def train(
    config: TrainConfig,
    corpus,
    schema: RelationSchema,
    eval_corpus=None,
    vocab: Vocab | None = None,
    log=None,
) -> TrainResult:
    """Teacher-forced joint training over a raw corpus.

    Examples are encoded once, negatives sampled once (seeded), and batches
    reshuffled every epoch. When eval_corpus is given each epoch is scored,
    its held-out loss recorded, and the best-F1 parameter snapshot kept
    alongside the final one. The eval negatives come from their own Rng, so
    training is the same with or without an eval corpus.
    """
    if vocab is None:
        vocab = build_vocab(corpus)
    enc_cfg = replace(config.encoder, vocab_size=len(vocab))
    config = replace(config, encoder=enc_cfg)
    rng = Rng(config.seed)
    params = init_model_params(enc_cfg, len(schema), rng)
    examples = encode_corpus(corpus, vocab, schema, enc_cfg.max_seq_len)
    for ex in examples:
        sample_negatives(ex, config.negatives_per_positive, rng)
    eval_examples = []
    if eval_corpus is not None:
        eval_examples = encode_corpus(eval_corpus, vocab, schema, enc_cfg.max_seq_len)
        eval_rng = Rng(config.seed + 1)
        for ex in eval_examples:
            sample_negatives(ex, config.negatives_per_positive, eval_rng)

    state = OptimizerState()
    metrics: list[EpochMetrics] = []
    best_params = best_epoch = best_f1 = None
    named = params.named_tensors()
    weighting = config.loss_weighting()
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(examples))
        totals = np.zeros(3)
        phases = np.zeros(3)  # forward, backward, optimizer
        batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[lo : lo + config.batch_size]]
            params.zero_grads()
            t_fwd = time.perf_counter()
            parts = joint_loss(batch, params, enc_cfg, rng, training=True, weighting=weighting)
            t_bwd = time.perf_counter()
            parts.total.backward()
            t_opt = time.perf_counter()
            adagrad_step(named, state, config.lr, config.weight_decay, config.adagrad_eps)
            phases += (t_bwd - t_fwd, t_opt - t_bwd, time.perf_counter() - t_opt)
            totals += (parts.total.item(), parts.subject, parts.relation)
            batches += 1
            # free this batch's graph before the next forward builds another
            del parts
        wall_time_s = time.perf_counter() - t0
        subnormal, max_abs = weight_health(named)
        m = EpochMetrics(
            epoch=epoch,
            mean_loss=totals[0] / batches,
            mean_subject_loss=totals[1] / batches,
            mean_relation_loss=totals[2] / batches,
            wall_time_s=wall_time_s,
            subnormal_weights=subnormal,
            max_abs_weight=max_abs,
            forward_s=phases[0],
            backward_s=phases[1],
            optimizer_s=phases[2],
        )
        if eval_corpus is not None:
            report, m.heldout_loss = _evaluate(
                params, config, vocab, schema, eval_corpus, eval_examples
            )
            m.precision, m.recall, m.f1 = report.precision, report.recall, report.f1
            if best_f1 is None or report.f1 > best_f1:
                copies = {name: t.data.copy() for name, t in named}
                best_params = _params_from_tensors(_header_dict(params, config), copies)[0]
                best_epoch, best_f1 = epoch, report.f1
        metrics.append(m)
        if log is not None:
            line = (
                f"epoch {m.epoch:3d}  loss {m.mean_loss:.4f}"
                f"  subject {m.mean_subject_loss:.4f}  relation {m.mean_relation_loss:.4f}"
                f"  {m.wall_time_s:.1f}s (forward {m.forward_s:.1f}s, backward {m.backward_s:.1f}s,"
                f" optimizer {m.optimizer_s:.1f}s)"
                f"  subnormal {m.subnormal_weights}  max|w| {m.max_abs_weight:.3g}"
            )
            if m.f1 is not None:
                line += f"  P {m.precision:.3f} R {m.recall:.3f} F1 {m.f1:.3f}"
            if m.heldout_loss is not None:
                line += f"  heldout loss {m.heldout_loss:.4f}"
            log(line)
    return TrainResult(
        params=params,
        vocab=vocab,
        config=config,
        schema=schema,
        metrics=metrics,
        best_params=best_params,
        best_epoch=best_epoch,
        best_f1=best_f1,
    )


# ---------------------------------------------------------------------------
# checkpoints


def _header_dict(params: ModelParams, config: TrainConfig, extra: dict | None = None) -> dict:
    header = {
        "config": asdict(config),
        "num_relations": params.num_relations,
        "tensors": [[name, list(t.shape)] for name, t in params.named_tensors()],
    }
    if extra:
        header.update(extra)
    return header


def save_checkpoint(params: ModelParams, config: TrainConfig, path, extra: dict | None = None):
    header = json.dumps(_header_dict(params, config, extra), ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name, t in params.named_tensors():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", t.data.ndim))
            fh.write(struct.pack(f"<{t.data.ndim}Q", *t.data.shape))
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointTruncatedError(
                f"file ends inside {what} (needed {n} bytes at offset {self.pos})"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.blob)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a checkpoint into (header, tensors); validates the full layout."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}")
    (version,) = struct.unpack("<I", r.take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unsupported version {version}")
    (header_len,) = struct.unpack("<I", r.take(4, "header length"))
    try:
        header = json.loads(r.take(header_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"unreadable header: {e}") from None
    declared = header.get("tensors")
    if not isinstance(declared, list):
        raise CheckpointFormatError("header lacks tensor table")
    tensors: dict[str, np.ndarray] = {}
    for decl_name, decl_shape in declared:
        (name_len,) = struct.unpack("<H", r.take(2, "tensor name length"))
        name = r.take(name_len, "tensor name").decode("utf-8")
        if name != decl_name:
            raise CheckpointIntegrityError(
                f"tensor order mismatch: header says {decl_name!r}, file has {name!r}"
            )
        (rank,) = struct.unpack("<B", r.take(1, "tensor rank"))
        shape = struct.unpack(f"<{rank}Q", r.take(8 * rank, "tensor dims")) if rank else ()
        if list(shape) != list(decl_shape):
            raise CheckpointIntegrityError(
                f"tensor {name!r}: header shape {decl_shape} != record shape {list(shape)}"
            )
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(r.take(4 * count, f"tensor {name!r} data"), dtype="<f4")
        tensors[name] = data.reshape(shape).copy()
    if not r.exhausted:
        raise CheckpointIntegrityError(
            f"{len(r.blob) - r.pos} trailing bytes after the declared tensors"
        )
    return header, tensors


def _params_from_tensors(header: dict, tensors: dict[str, np.ndarray]) -> tuple[ModelParams, TrainConfig]:
    try:
        config = config_from_dict(header["config"])
        num_relations = int(header["num_relations"])
    except (KeyError, TypeError) as e:
        raise CheckpointFormatError(f"header missing config fields: {e}") from None

    def grab(name) -> Tensor:
        if name not in tensors:
            raise CheckpointIntegrityError(f"tensor {name!r} missing from checkpoint")
        return Tensor(tensors.pop(name), requires_grad=True)

    layers = []
    for i in range(config.encoder.num_layers):
        layers.append(
            LayerParams(**{f: grab(f"layer{i}.{f}") for f in LayerParams.__dataclass_fields__})
        )
    params = ModelParams(
        encoder=EncoderParams(
            token_emb=grab("token_emb"),
            segment_emb=grab("segment_emb"),
            position_emb=grab("position_emb"),
            layers=layers,
        ),
        subject_w=grab("subject_w"),
        subject_b=grab("subject_b"),
        relation_w=grab("relation_w"),
        relation_b=grab("relation_b"),
    )
    if tensors:
        raise CheckpointIntegrityError(f"unexpected tensors in checkpoint: {sorted(tensors)}")
    if params.num_relations != num_relations:
        raise CheckpointIntegrityError(
            f"relation head holds {params.num_relations} relations, header says {num_relations}"
        )
    d = config.encoder.model_dim
    if params.subject_w.shape != (d, 2):
        raise CheckpointIntegrityError(
            f"subject head shape {params.subject_w.shape} does not match model_dim {d}"
        )
    return params, config


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig]:
    header, tensors = read_checkpoint(path)
    return _params_from_tensors(header, tensors)
