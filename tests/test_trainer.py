import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import coex.encoder
import coex.tagger
import coex.trainer
from coex.autograd import Rng, Tensor, matmul
from coex.data import SynthConfig, default_schema, generate_synthetic_corpus
from coex.encoder import EncoderConfig
from coex.tagger import RelationSchema, init_model_params
from coex.trainer import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    EpochMetrics,
    OptimizerState,
    TrainConfig,
    _percentiles,
    adagrad_step,
    config_from_dict,
    flush_small_weights,
    load_checkpoint,
    save_checkpoint,
    save_metrics,
    train,
)
from oracles import FLUSH_BELOW, adagrad_step_ref, below_flush_count, subnormal_count

SMALL_ENCODER = dict(
    model_dim=32, num_heads=2, ffn_dim=64, num_layers=1, max_seq_len=64, dropout_p=0.1
)


def small_config(**overrides) -> TrainConfig:
    base = dict(
        lr=0.1,
        weight_decay=0.01,
        batch_size=8,
        epochs=2,
        seed=3,
        negatives_per_positive=16,
        encoder=EncoderConfig(vocab_size=0, **SMALL_ENCODER),
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_corpus(n=24, seed=11):
    return generate_synthetic_corpus(SynthConfig(n_sentences=n, seed=seed))


def tuple_predicates(corpus):
    seen = []
    for ex in corpus:
        for t in ex.triples:
            if t.predicate not in seen:
                seen.append(t.predicate)
    return tuple(sorted(seen))


def test_config_dict_round_trip():
    cfg = small_config(lr=0.05, epochs=7)
    again = config_from_dict(asdict(cfg))
    assert again == cfg
    assert isinstance(again.encoder, EncoderConfig)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(batch_size=0)
    with pytest.raises(ValueError):
        small_config(lr=0.0)
    with pytest.raises(ValueError):
        small_config(epochs=-1)


def test_adagrad_step_matches_reference():
    rng = Rng(0)
    w0 = rng.uniform(-1.0, 1.0, (4, 3), dtype=np.float64)
    p = Tensor(w0.copy(), requires_grad=True)
    state = OptimizerState()
    lr, wd, eps = 0.1, 0.01, 1e-10

    ref_w = w0.copy()
    ref_acc = np.zeros_like(ref_w)
    for step in range(3):
        g = rng.uniform(-1.0, 1.0, (4, 3), dtype=np.float64)
        p.grad = g.copy()
        adagrad_step([("w", p)], state, lr, wd, eps)
        gp = g + wd * ref_w
        ref_acc += gp * gp
        ref_w = ref_w - lr * gp / (np.sqrt(ref_acc) + eps)
        assert np.allclose(p.data, ref_w, atol=1e-12)
        assert np.allclose(state.accumulators["w"], ref_acc, atol=1e-12)


@pytest.mark.parametrize("weight_decay", [0.01, 0.0])
@pytest.mark.parametrize("with_grad", [True, False], ids=["grad", "no_grad"])
def test_adagrad_step_in_place_equals_out_of_place_reference(weight_decay, with_grad):
    # float32 as in training; two weights start subnormal and two at signed
    # zero, all four with zero gradient: without decay nothing moves them,
    # and the flush must leave them +0
    tiny = np.finfo(np.float32).tiny
    rng = Rng(4)
    w0 = rng.uniform(-1.0, 1.0, (5, 7), dtype=np.float32)
    w0[0, :4] = [tiny / 4, -tiny / 4, 0.0, -0.0]
    p = Tensor(w0.copy(), requires_grad=True)
    q = Tensor(w0.copy(), requires_grad=True)
    state, ref_state = OptimizerState(), OptimizerState()
    for step in range(4):
        g = rng.uniform(-1.0, 1.0, (5, 7), dtype=np.float32) if with_grad else None
        if g is not None:
            g[0, :4] = [0.0, -0.0, 0.0, -0.0]
        p.grad = None if g is None else g.copy()
        q.grad = None if g is None else g.copy()
        adagrad_step([("w", p)], state, 0.08, weight_decay, 1e-10)
        adagrad_step_ref([("w", q)], ref_state, 0.08, weight_decay, 1e-10)
        assert np.array_equal(p.data.view(np.uint32), q.data.view(np.uint32)), step
        acc, ref_acc = state.accumulators["w"], ref_state.accumulators["w"]
        assert np.array_equal(acc.view(np.uint32), ref_acc.view(np.uint32)), step
        if g is not None:
            assert np.array_equal(p.grad, g)  # left as backward wrote it
    assert not np.signbit(p.data[p.data == 0]).any()
    assert subnormal_count([p.data]) == 0
    if not weight_decay:
        assert np.all(p.data[0, :4] == 0)


def test_adagrad_missing_grad_still_applies_decay():
    p = Tensor(np.full((3,), 2.0, dtype=np.float32), requires_grad=True)
    state = OptimizerState()
    adagrad_step([("w", p)], state, lr=0.5, weight_decay=0.1, eps=1e-10)
    # g' = 0 + 0.1*2 = 0.2, acc = 0.04, update = 0.5*0.2/0.2 = 0.5
    assert np.allclose(p.data, 1.5, atol=1e-6)


def test_adagrad_no_decay_no_grad_is_noop():
    p = Tensor(np.full((3,), 2.0, dtype=np.float32), requires_grad=True)
    state = OptimizerState()
    adagrad_step([("w", p)], state, lr=0.5, weight_decay=0.0, eps=1e-10)
    assert np.array_equal(p.data, np.full((3,), 2.0, dtype=np.float32))


def test_adagrad_decay_alone_never_leaves_subnormal_weights():
    # with zero gradients, coupled decay shrinks each weight by a near-constant
    # factor per step, through the whole float32 normal range and past it
    w0 = np.array([0.5, -0.25, 3e-3, -2e-7, 1e-20], dtype=np.float32)
    p = Tensor(w0.copy(), requires_grad=True)
    state = OptimizerState()
    for step in range(2000):
        p.grad = np.zeros_like(p.data)
        adagrad_step([("w", p)], state, lr=0.08, weight_decay=0.01)
        assert subnormal_count([p.data]) == 0, f"subnormal weight after step {step + 1}"
        assert below_flush_count([p.data]) == 0, f"weight below 2^-64 after step {step + 1}"
    assert np.all(p.data == 0)


def _flush_by_adagrad(w: np.ndarray) -> np.ndarray:
    # no gradient and no decay: the step moves nothing, so only the flush acts
    p = Tensor(w, requires_grad=True)
    adagrad_step([("w", p)], OptimizerState(), lr=0.08, weight_decay=0.0)
    return p.data


@pytest.mark.parametrize("flush", [flush_small_weights, _flush_by_adagrad])
def test_flush_keeps_2_pow_minus_64_and_sets_everything_below_to_plus_zero(flush):
    tiny = np.finfo(np.float32).tiny
    edge = np.float32(FLUSH_BELOW)
    below = np.float32(FLUSH_BELOW * (1 - 2.0**-24))  # the float32 just under 2^-64
    assert below == np.nextafter(edge, np.float32(0))
    w = np.array([edge, -edge, below, -below, tiny / 4, -tiny / 4, -0.0, 1.0], np.float32)
    out = flush(w.copy())
    expected = np.array([edge, -edge, 0, 0, 0, 0, 0, 1.0], np.float32)
    assert np.array_equal(out.view(np.uint32), expected.view(np.uint32))  # +0, never -0


def test_small_recipe_matmuls_see_no_subnormal_values(monkeypatch):
    # criterion 7's small encoder, trained longer: coupled decay walks the
    # attention weights that get no gradient down toward zero, and every
    # matmul output and gradient must stay clear of the subnormal range
    subnormal = []

    def count(a):
        a = np.abs(a)
        subnormal.append(int(np.count_nonzero((a > 0) & (a < np.finfo(a.dtype).tiny))))

    def counting_matmul(a, b):
        out = matmul(a, b)
        count(out.data)
        back = out._backward
        if back is not None:
            def counted_back(g):
                grads = back(g)
                for x in grads:
                    if x is not None:
                        count(x)
                return grads

            out._backward = counted_back
        return out

    monkeypatch.setattr(coex.encoder, "matmul", counting_matmul)
    monkeypatch.setattr(coex.tagger, "matmul", counting_matmul)
    config = TrainConfig(
        epochs=6,
        seed=5,
        negatives_per_positive=16,
        encoder=EncoderConfig(
            vocab_size=0, model_dim=32, num_heads=2, ffn_dim=48,
            num_layers=1, max_seq_len=64, dropout_p=0.1,
        ),
    )
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=200, seed=21))
    train(config, corpus, default_schema())
    assert len(subnormal) > 1000 and sum(subnormal) == 0


def test_train_reports_step_time_percentiles(tmp_path):
    corpus = tiny_corpus(n=24)
    lines = []
    result = train(
        small_config(epochs=2, batch_size=4), corpus, RelationSchema(tuple_predicates(corpus)),
        log=lines.append,
    )
    for m, line in zip(result.metrics, lines):
        # one step takes at most the epoch's summed phases
        assert 0 < m.step_p50_s <= m.step_p95_s <= m.forward_s + m.backward_s + m.optimizer_s
        assert f"step p50 {m.step_p50_s * 1e3:.1f}ms p95 {m.step_p95_s * 1e3:.1f}ms" in line
    save_metrics(result.metrics, tmp_path / "metrics.jsonl")
    rows = [json.loads(r) for r in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [(r["step_p50_s"], r["step_p95_s"]) for r in rows] == [
        (m.step_p50_s, m.step_p95_s) for m in result.metrics
    ]


@pytest.mark.parametrize("n", [1, 2, 5, 150, 151])
def test_percentiles_follow_numpys_linear_rule(n):
    values = list(np.random.default_rng(n).exponential(size=n))
    assert np.allclose(_percentiles(values, (50, 95)), np.percentile(values, [50, 95]), rtol=1e-14)


def test_percentiles_leave_numpy_ma_unimported():
    # np.percentile would import numpy.ma, which then stays resident for the
    # rest of a training run
    code = (
        "import sys; from coex.trainer import _percentiles; _percentiles([3.0, 1.0], (50, 95)); "
        "assert 'numpy.ma' not in sys.modules"
    )
    src = str(Path(coex.trainer.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_train_loss_decreases():
    corpus = tiny_corpus(n=32)
    result = train(small_config(epochs=4), corpus, RelationSchema(tuple_predicates(corpus)))
    losses = [m.mean_loss for m in result.metrics]
    assert len(losses) == 4
    assert losses[-1] < losses[0]
    assert all(np.isfinite(losses))


def test_train_metrics_shape():
    corpus = tiny_corpus(n=16)
    schema = RelationSchema(tuple_predicates(corpus))
    result = train(small_config(epochs=2, batch_size=4), corpus, schema)
    assert [m.epoch for m in result.metrics] == [1, 2]
    for m in result.metrics:
        assert m.wall_time_s > 0
        phases = (m.forward_s, m.backward_s, m.optimizer_s)
        assert min(phases) >= 0 and sum(phases) <= m.wall_time_s
        assert abs(m.mean_loss - (m.mean_subject_loss + m.mean_relation_loss)) < 1e-5
        assert m.f1 is None
        assert m.max_abs_weight > 0
    largest = max(float(np.abs(t.data).max()) for _, t in result.params.named_tensors())
    zeros = sum(int((t.data == 0).sum()) for _, t in result.params.named_tensors())
    assert (result.metrics[-1].zero_weights, result.metrics[-1].max_abs_weight) == (zeros, largest)
    assert result.config.encoder.vocab_size == len(result.vocab)


def test_train_determinism_and_seed_sensitivity():
    corpus = tiny_corpus(n=16)
    schema = RelationSchema(tuple_predicates(corpus))
    cfg = small_config(epochs=2, batch_size=4, seed=5)
    a = train(cfg, corpus, schema)
    b = train(cfg, corpus, schema)
    for (name_a, ta), (name_b, tb) in zip(a.params.named_tensors(), b.params.named_tensors()):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data), name_a
    assert [m.mean_loss for m in a.metrics] == [m.mean_loss for m in b.metrics]

    c = train(small_config(epochs=2, batch_size=4, seed=6), corpus, schema)
    diffs = sum(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.params.named_tensors(), c.params.named_tensors())
    )
    assert diffs > 0


def test_train_tracks_best_f1_snapshot():
    corpus = tiny_corpus(n=24)
    schema = RelationSchema(tuple_predicates(corpus))
    result = train(small_config(epochs=2), corpus, schema, eval_corpus=corpus[:6])
    assert result.best_f1 is not None
    assert result.best_epoch in (1, 2)
    assert result.best_params is not None
    assert result.best_params is not result.params
    for m in result.metrics:
        assert m.f1 is not None and 0.0 <= m.f1 <= 1.0


def test_best_snapshot_equals_live_params_and_survives_further_training():
    corpus = tiny_corpus(n=24)
    schema = RelationSchema(tuple_predicates(corpus))
    # a 0.999 threshold decodes nothing this early, so every epoch scores F1 0
    # and epoch 1 stays best while two more epochs update the live parameters
    cfg = small_config(epochs=3, threshold=0.999)
    result = train(cfg, corpus, schema, eval_corpus=corpus[:6])
    assert result.best_epoch == 1
    # evaluation draws no randomness, so a 1-epoch run reproduces the live
    # parameters as they stood when the snapshot was taken
    at_best = train(small_config(epochs=1, threshold=0.999), corpus, schema)
    snap = result.best_params.named_tensors()
    assert [n for n, _ in snap] == [n for n, _ in at_best.params.named_tensors()]
    for (name, t), (_, live) in zip(snap, at_best.params.named_tensors()):
        assert t.data.dtype == live.data.dtype
        assert np.array_equal(t.data, live.data), name
    moved = sum(
        not np.array_equal(t.data, final.data)
        for (_, t), (_, final) in zip(snap, result.params.named_tensors())
    )
    assert moved > 0


def test_heldout_loss_is_finite_and_falls():
    corpus = tiny_corpus(n=40)
    schema = RelationSchema(tuple_predicates(corpus))
    lines = []
    result = train(small_config(epochs=4), corpus[:32], schema, eval_corpus=corpus[32:], log=lines.append)
    losses = [m.heldout_loss for m in result.metrics]
    assert all(np.isfinite(losses)) and losses[-1] < losses[0], losses
    assert all(f"heldout loss {x:.4f}" in line for x, line in zip(losses, lines))
    assert train(small_config(epochs=1), corpus[:32], schema).metrics[0].heldout_loss is None


def test_checkpoint_is_byte_identical_with_and_without_eval_corpus(tmp_path):
    corpus = tiny_corpus(n=30)
    schema = RelationSchema(tuple_predicates(corpus))
    blobs = []
    for name, held in (("with", corpus[24:]), ("without", None)):
        result = train(small_config(epochs=2), corpus[:24], schema, eval_corpus=held)
        save_checkpoint(result.params, result.config, tmp_path / name)
        blobs.append((tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1]


def test_save_metrics_jsonl(tmp_path):
    rows = [
        EpochMetrics(1, 1.5, 1.0, 0.5, 2.0, 7, 0.75),
        EpochMetrics(2, 1.2, 0.8, 0.4, 2.1, 0, 0.5, precision=0.5, recall=0.25, f1=1 / 3),
    ]
    path = tmp_path / "metrics.jsonl"
    save_metrics(rows, path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    parsed = json.loads(lines[1])
    assert parsed["epoch"] == 2
    assert parsed["f1"] == pytest.approx(1 / 3)
    first = json.loads(lines[0])
    assert first["f1"] is None
    assert (first["zero_weights"], first["max_abs_weight"]) == (7, 0.75)
    assert (parsed["zero_weights"], parsed["max_abs_weight"]) == (0, 0.5)
    assert (first["forward_s"], first["backward_s"], first["optimizer_s"]) == (0.0, 0.0, 0.0)
    assert first["heldout_loss"] is None


def fresh_params(num_relations=4, vocab_size=50, seed=9):
    enc = EncoderConfig(vocab_size=vocab_size, **SMALL_ENCODER)
    cfg = small_config(encoder=enc)
    params = init_model_params(enc, num_relations, Rng(seed))
    return params, cfg


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params, cfg = fresh_params()
    path = tmp_path / "model.coex"
    save_checkpoint(params, cfg, path)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    originals = dict(params.named_tensors())
    for name, t in loaded.named_tensors():
        assert t.data.dtype == np.float32
        assert np.array_equal(t.data, originals[name].data), name
        assert t.requires_grad


def test_checkpoint_reserialization_is_byte_identical(tmp_path):
    params, cfg = fresh_params()
    p1, p2 = tmp_path / "a.coex", tmp_path / "b.coex"
    save_checkpoint(params, cfg, p1)
    loaded, loaded_cfg = load_checkpoint(p1)
    save_checkpoint(loaded, loaded_cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.coex"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    params, cfg = fresh_params()
    path = tmp_path / "model.coex"
    save_checkpoint(params, cfg, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError, match="99"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    params, cfg = fresh_params()
    path = tmp_path / "model.coex"
    save_checkpoint(params, cfg, path)
    blob = path.read_bytes()
    for cut in (2, 6, 10, len(blob) // 2, len(blob) - 3):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)


def test_checkpoint_trailing_garbage_detected(tmp_path):
    params, cfg = fresh_params()
    path = tmp_path / "model.coex"
    save_checkpoint(params, cfg, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(CheckpointIntegrityError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_header_corruption_detected(tmp_path):
    params, cfg = fresh_params()
    path = tmp_path / "model.coex"
    save_checkpoint(params, cfg, path)
    blob = bytearray(path.read_bytes())
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    header["tensors"][0][1] = [1, 1]
    raw = json.dumps(header, ensure_ascii=False).encode("utf-8")
    # keep offsets valid by padding the header back to its original length
    raw = raw + b" " * (header_len - len(raw))
    blob[12 : 12 + header_len] = raw
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointIntegrityError, match="shape"):
        load_checkpoint(path)


def test_checkpoint_missing_or_unexpected_tensor_detected(tmp_path):
    # header and records agree, so only the check against the config's tensor
    # table can refuse these
    params, cfg = fresh_params()
    named = params.named_tensors()
    extra = ("extra", Tensor(np.zeros(3, dtype=np.float32)))
    for tensors, match in (
        ([(n, t) for n, t in named if n != "layer0.w_k"], "missing: \\['layer0.w_k'\\]"),
        (named + [extra], "unexpected: \\['extra'\\]"),
    ):
        stub = SimpleNamespace(num_relations=params.num_relations, named_tensors=lambda: tensors)
        path = tmp_path / "model.coex"
        save_checkpoint(stub, cfg, path)
        with pytest.raises(CheckpointIntegrityError, match=match):
            load_checkpoint(path)


def test_checkpoint_unreadable_header(tmp_path):
    import struct

    path = tmp_path / "model.coex"
    body = b"{not json"
    path.write_bytes(b"COEX" + struct.pack("<I", 1) + struct.pack("<I", len(body)) + body)
    with pytest.raises(CheckpointFormatError, match="header"):
        load_checkpoint(path)
