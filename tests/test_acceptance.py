"""End-to-end acceptance gate: ten numbered criteria, one test each.

The full-size training run is expensive and shared: criteria 3, 6, 7, 8, 9,
and 10 all draw on one session-scoped fixture. Every test prints a single
[criterion NN] PASS/FAIL line carrying the measured numbers next to the
tolerance that judges them.
"""

import http.client
import json
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from coex.autograd import Rng, grad_check
from coex.cli import main as cli_main
from coex.data import (
    RawExample,
    RawTriple,
    SynthConfig,
    build_vocab,
    default_schema,
    encode_example,
    generate_synthetic_corpus,
    has_overlap,
    sample_negatives,
    save_corpus,
    tokenize,
)
from coex.encoder import EncoderConfig, encode
from coex.evaluator import f1, score_triples, t_test, triples_to_payload
from coex.runtime import create_server, export_model, load_inference_model
from coex.tagger import (
    RelationSchema,
    Span,
    condition_on_spans,
    extract_triples,
    init_model_params,
    joint_loss,
    relation_object_scores,
    subject_scores,
)
from coex.trainer import TrainConfig, read_checkpoint, save_checkpoint, train
from oracles import squared_score, subnormal_count, triples_from_labels


def _line(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def big_run(tmp_path_factory):
    """Documented recipe: 2000 synthetic sentences at overlap 0.3 with seed 1,
    default training config, trailing 200 sentences held out."""
    root = tmp_path_factory.mktemp("acceptance")
    t0 = time.monotonic()
    corpus = generate_synthetic_corpus(
        SynthConfig(n_sentences=2000, overlap_fraction=0.3, seed=1)
    )
    config = TrainConfig()
    schema = default_schema()
    result = train(config, corpus[:1800], schema, eval_corpus=corpus[1800:])
    minutes = (time.monotonic() - t0) / 60.0
    artifact = root / "model.bin"
    best = result.best_params if result.best_params is not None else result.params
    export_model(best, result.config, result.vocab, schema, artifact)
    return SimpleNamespace(
        corpus=corpus,
        holdout=corpus[1800:],
        schema=schema,
        config=result.config,
        result=result,
        best=best,
        artifact=artifact,
        model=load_inference_model(artifact),
        minutes=minutes,
        root=root,
    )


def test_criterion_01_t_test_reproduction():
    t0 = time.monotonic()
    baseline_trials = [0.840, 0.847, 0.843, 0.831, 0.827]
    candidate_trials = [0.908, 0.905, 0.911, 0.903, 0.902]
    r = t_test(baseline_trials, candidate_trials)
    elapsed = time.monotonic() - t0
    ok = (
        abs(r.statistic - (-16.6888)) <= 1e-3
        and abs(r.pvalue - 1.6808e-07) / 1.6808e-07 <= 0.01
        and elapsed < 1.0
    )
    _line(1, ok, f"t={r.statistic:.4f} (target -16.6888 +/- 1e-3), "
                 f"p={r.pvalue:.4e} (target 1.6808e-07 +/- 1%), {elapsed:.3f}s (<1)")


def test_criterion_02_f1_internal_consistency():
    t0 = time.monotonic()
    rows = [
        (0.624, 0.317, 0.420),
        (0.610, 0.566, 0.587),
        (0.639, 0.600, 0.619),
        (0.779, 0.672, 0.721),
        (0.842, 0.830, 0.836),
        (0.906, 0.924, 0.915),
    ]
    errs = [abs(f1(p, r) - f) for p, r, f in rows]
    headline = abs(f1(0.906, 0.924) - 0.915)
    elapsed = time.monotonic() - t0
    ok = max(errs) <= 1e-3 and headline <= 5e-4 and elapsed < 1.0
    _line(2, ok, f"six-row max |f1 err|={max(errs):.2e} (<=1e-3), "
                 f"headline |err|={headline:.2e} (<=5e-4), {elapsed:.3f}s (<1)")


def test_criterion_03_synthetic_headline_f1(big_run):
    preds = [big_run.model.extract(ex.text) for ex in big_run.holdout]
    gold = [[(t.subject, t.predicate, t.object) for t in ex.triples] for ex in big_run.holdout]
    report = score_triples(preds, gold)
    ok = report.f1 >= 0.95 and big_run.minutes <= 15.0
    _line(3, ok, f"held-out F1={report.f1:.4f} (>=0.95, P={report.precision:.4f} "
                 f"R={report.recall:.4f}), synth+train wall time {big_run.minutes:.1f} min (<=15)")


def test_trained_artifact_has_no_subnormal_weights(big_run):
    _, exported = read_checkpoint(big_run.artifact)
    arrays = {f"artifact {name}": a for name, a in exported.items()}
    arrays.update({f"final {name}": t.data for name, t in big_run.result.params.named_tensors()})
    subnormal = {name: subnormal_count([a]) for name, a in arrays.items()}
    assert sum(subnormal.values()) == 0, {k: v for k, v in subnormal.items() if v}


def test_criterion_04_joint_gradient_check():
    t0 = time.monotonic()
    raw = RawExample(
        "甲乙丙丁戊己",
        [
            RawTriple("甲乙", "p1", "丁"),
            RawTriple("甲乙", "p3", "戊己"),
        ],
    )
    schema = RelationSchema(("p0", "p1", "p2", "p3"))
    vocab = build_vocab([raw])
    cfg = EncoderConfig(
        vocab_size=len(vocab), model_dim=16, num_heads=2, ffn_dim=32,
        num_layers=2, max_seq_len=8, dropout_p=0.0,
    )
    ex = encode_example(raw, vocab, schema, cfg.max_seq_len)
    sample_negatives(ex, 4, Rng(0))
    assert len(ex.input_ids) == 8 and ex.subjects and ex.negative_spans

    errors = {}
    for mode, dtype in (("32-bit", np.float32), ("64-bit", np.float64)):
        params = init_model_params(cfg, len(schema), Rng(5))
        tensors = [t for _, t in params.named_tensors()]
        for t in tensors:
            t.data = t.data.astype(dtype)
        errors[mode] = grad_check(
            lambda _: joint_loss([ex], params, cfg, None, training=False).total, tensors
        )
    elapsed = time.monotonic() - t0
    ok = errors["32-bit"] <= 1e-3 and errors["64-bit"] <= 1e-6 and elapsed < 120.0
    _line(4, ok, f"max rel grad err 32-bit={errors['32-bit']:.2e} (<=1e-3), "
                 f"64-bit={errors['64-bit']:.2e} (<=1e-6), {elapsed:.1f}s (<120)")


def test_criterion_05_label_decode_round_trip():
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=1000, seed=11))
    vocab = build_vocab(corpus)
    schema = default_schema()
    exact = 0
    for raw in corpus:
        ex = encode_example(raw, vocab, schema, 128)
        decoded = {t.key() for t in triples_from_labels(ex, schema)}
        gold = {(t.subject, t.predicate, t.object) for t in raw.triples}
        exact += decoded == gold
    ok = exact == len(corpus)
    _line(5, ok, f"label->decode exact on {exact}/{len(corpus)} examples (need 1000/1000)")


def test_criterion_06_overlap_recall(big_run):
    overlapping = [ex for ex in big_run.holdout if has_overlap(ex)]
    assert overlapping, "held-out split contains no overlapping sentences"
    preds = [big_run.model.extract(ex.text) for ex in overlapping]
    gold = [[(t.subject, t.predicate, t.object) for t in ex.triples] for ex in overlapping]
    report = score_triples(preds, gold)
    ok = report.recall >= 0.90
    _line(6, ok, f"overlap recall={report.recall:.4f} (>=0.90) over "
                 f"{len(overlapping)} held-out overlapping sentences, {report.gold} gold triples")


def test_criterion_07_determinism_and_serialization(big_run, tmp_path):
    small = TrainConfig(
        epochs=2,
        seed=5,
        negatives_per_positive=16,
        encoder=EncoderConfig(
            vocab_size=0, model_dim=32, num_heads=2, ffn_dim=48,
            num_layers=1, max_seq_len=64, dropout_p=0.1,
        ),
    )
    corpus = generate_synthetic_corpus(SynthConfig(n_sentences=60, seed=21))
    schema = default_schema()
    paths = []
    for i in range(2):
        res = train(small, corpus, schema)
        p = tmp_path / f"run{i}.ckpt"
        save_checkpoint(res.params, res.config, p)
        paths.append(p)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    again = tmp_path / "again.bin"
    export_model(big_run.best, big_run.config, big_run.result.vocab, big_run.schema, again)
    export_identical = again.read_bytes() == big_run.artifact.read_bytes()

    texts = [ex.text for ex in big_run.holdout[:100]]
    loaded = load_inference_model(again)
    parity = all(
        loaded.extract(text)
        == extract_triples(
            text, big_run.best, big_run.config.encoder, big_run.result.vocab,
            big_run.schema, big_run.config.threshold,
        )
        for text in texts
    )
    ok = identical and export_identical and parity
    _line(7, ok, f"repeat-train checkpoints byte-identical={identical}, "
                 f"re-export byte-identical={export_identical}, "
                 f"export/load prediction parity on {len(texts)} texts={parity}")


def _scores_for(text: str, params, cfg, vocab):
    tokens, _ = tokenize(text)
    ids = vocab.encode(tokens)
    hidden = encode(ids[None], params.encoder, cfg, training=False)
    subj = squared_score(subject_scores(hidden, params).data)
    start = int(np.argmax(subj[:, 0]))
    end = int(np.argmax(subj[start:, 1])) + start
    spans, lengths = [[Span(start, end)]], [len(ids)]
    means = condition_on_spans(hidden, spans, lengths)
    rel = relation_object_scores(hidden, means, spans, lengths, params)
    return subj, squared_score(rel.data)


def test_criterion_08_inference_parity(big_run):
    model = big_run.model
    worst = 0.0
    for ex in big_run.holdout[:20]:
        a_subj, a_rel = _scores_for(ex.text, big_run.best, big_run.config.encoder, model.vocab)
        b_subj, b_rel = _scores_for(ex.text, model.params, model.config, model.vocab)
        worst = max(
            worst,
            float(np.abs(a_subj - b_subj).max()),
            float(np.abs(a_rel - b_rel).max()),
        )
    ok = worst <= 1e-6
    _line(8, ok, f"max |score diff| training params vs exported inference path="
                 f"{worst:.2e} (<=1e-6) over 20 texts")


def test_criterion_09_loss_halves(big_run):
    m = big_run.result.metrics
    first, last = m[0].mean_loss, m[-1].mean_loss
    ok = len(m) == 20 and last <= 0.5 * first
    _line(9, ok, f"epoch-20 mean loss {last:.4f} <= 0.5 x epoch-1 {first:.4f} "
                 f"(ratio {last / first:.3f})")


def test_criterion_10_service_contract(big_run, tmp_path, capsys):
    server = create_server(load_inference_model(big_run.artifact), ("127.0.0.1", 0))
    address = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    seen_connects = []
    real_connect = socket.socket.connect

    def recording_connect(sock, addr):
        seen_connects.append(addr)
        return real_connect(sock, addr)

    try:
        socket.socket.connect = recording_connect
        text = next(ex.text for ex in big_run.holdout if len(ex.triples) >= 2)
        request = json.dumps({"text": text}, ensure_ascii=False).encode("utf-8")

        def post():
            conn = http.client.HTTPConnection(*address, timeout=30)
            try:
                conn.request(
                    "POST", "/extract", body=request,
                    headers={"Content-Type": "application/json"},
                )
                return json.loads(conn.getresponse().read().decode("utf-8"))
            finally:
                conn.close()

        sequential = post()["triples"]
        results = [None] * 8
        threads = [
            threading.Thread(target=lambda i=i: results.__setitem__(i, post()["triples"]))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        concurrent_ok = bool(sequential) and all(r == sequential for r in results)
        outbound_ok = bool(seen_connects) and all(
            addr[:2] == (address[0], address[1]) for addr in seen_connects
        )
    finally:
        socket.socket.connect = real_connect
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    bench_corpus = tmp_path / "bench.jsonl"
    save_corpus(big_run.holdout[:5], bench_corpus)
    rc = cli_main(
        [
            "bench", "--model", str(big_run.artifact), "--corpus", str(bench_corpus),
            "--iterations", "2", "--warmup", "1",
        ]
    )
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    lat = row["latencies_ms"]
    stats_ok = (
        rc == 0
        and row["requests"] == 10
        and abs(row["mean_ms"] - sum(lat) / len(lat)) < 1e-9
        and abs(row["p50_ms"] - float(np.percentile(lat, 50))) < 1e-9
        and abs(row["p95_ms"] - float(np.percentile(lat, 95))) < 1e-9
        and row["max_ms"] == max(lat)
    )
    req_sizes = resp_sizes = 0
    for ex in big_run.holdout[:5]:
        req_sizes += len(json.dumps({"text": ex.text}, ensure_ascii=False).encode("utf-8"))
        payload = {"triples": triples_to_payload(big_run.model.extract(ex.text))}
        resp_sizes += len(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
    bytes_ok = (
        row["mean_request_bytes"] == req_sizes / 5
        and row["mean_response_bytes"] == resp_sizes / 5
    )
    ok = concurrent_ok and outbound_ok and stats_ok and bytes_ok
    _line(10, ok, f"8 concurrent == sequential ({len(sequential)} triples)={concurrent_ok}, "
                  f"only-local connects={outbound_ok}, bench stats re-derived={stats_ok}, "
                  f"bench bytes re-measured={bytes_ok}")
