import json
import math
import socket
from dataclasses import asdict
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from coex.cli import build_parser, main, resolve_train_config
from coex.runtime import load_inference_model
from coex.trainer import TrainConfig, read_checkpoint

TINY_CONFIG = {
    "lr": 0.1,
    "epochs": 2,
    "batch_size": 8,
    "negatives_per_positive": 8,
    "encoder": {
        "model_dim": 16,
        "num_heads": 2,
        "ffn_dim": 24,
        "num_layers": 1,
        "max_seq_len": 48,
    },
}


def test_synth_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["synth", "--n", "30", "--seed", "7", "--out", str(a)]) == 0
    assert main(["synth", "--n", "30", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["sentences"] == 30


def test_synth_writes_schema(tmp_path):
    out, schema = tmp_path / "c.jsonl", tmp_path / "schema.json"
    assert main(["synth", "--n", "5", "--out", str(out), "--schema-out", str(schema)]) == 0
    predicates = json.loads(schema.read_text())
    assert isinstance(predicates, list) and len(predicates) == 16


def test_unknown_flag_and_subcommand_fail():
    assert main(["synth", "--n", "5", "--frobnicate", "1", "--out", "x"]) != 0
    assert main(["no-such-command"]) != 0
    assert main([]) != 0


def test_default_config_file_records_the_library_defaults():
    path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == asdict(TrainConfig())


def test_config_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lr": 0.5, "epochs": 3, "encoder": {"model_dim": 64}}))
    parser = build_parser()
    args = parser.parse_args(
        ["train", "--corpus", "x", "--out-dir", "y", "--config", str(cfg_file), "--lr", "0.7"]
    )
    cfg = resolve_train_config(args)
    assert cfg.lr == 0.7  # flag beats file
    assert cfg.epochs == 3  # file beats default
    assert cfg.encoder.model_dim == 64
    assert cfg.encoder.num_heads == 4  # untouched default survives the merge


def test_config_unknown_field_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"learning_rate": 0.5}))
    parser = build_parser()
    args = parser.parse_args(
        ["train", "--corpus", "x", "--out-dir", "y", "--config", str(cfg_file)]
    )
    with pytest.raises(ValueError):
        resolve_train_config(args)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    assert main(["synth", "--n", "40", "--seed", "3", "--out", str(corpus)]) == 0
    out_dir = root / "run"
    rc = main(
        [
            "train",
            "--corpus",
            str(corpus),
            "--out-dir",
            str(out_dir),
            "--config",
            str(cfg),
            "--holdout",
            "8",
            "--quiet",
        ]
    )
    assert rc == 0
    return root, corpus, out_dir


@pytest.mark.parametrize("holdout", ["-3", "40"])
def test_train_rejects_holdout_outside_the_corpus(trained, tmp_path, capsys, holdout):
    # 40 sentences: a negative holdout or one that leaves nothing to train on
    root, corpus, _ = trained
    out_dir = tmp_path / "run"
    args = ["train", "--corpus", str(corpus), "--out-dir", str(out_dir),
            "--config", str(root / "cfg.json"), "--holdout", holdout, "--quiet"]
    assert main(args) == 1
    assert "error: holdout" in capsys.readouterr().err
    assert not (out_dir / "model.bin").exists()


def test_train_outputs(trained, capsys):
    _, _, out_dir = trained
    for name in ("model.bin", "checkpoint.bin", "vocab.txt", "schema.json", "metrics.jsonl"):
        assert (out_dir / name).exists()
    rows = [json.loads(line) for line in (out_dir / "metrics.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [1, 2]
    assert all(r["f1"] is not None for r in rows)
    assert all(r["max_abs_weight"] > 0 for r in rows)
    # the last epoch's count is the final weights', which checkpoint.bin holds
    _, tensors = read_checkpoint(out_dir / "checkpoint.bin")
    assert rows[-1]["zero_weights"] == sum(int((a == 0).sum()) for a in tensors.values())
    assert all(r["forward_s"] > 0 and r["backward_s"] > 0 and r["optimizer_s"] > 0 for r in rows)
    assert all(math.isfinite(r["heldout_loss"]) and r["heldout_loss"] > 0 for r in rows)


def test_eval_reports_scores(trained, capsys):
    _, corpus, out_dir = trained
    assert main(["eval", "--model", str(out_dir / "model.bin"), "--corpus", str(corpus)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    for key in ("precision", "recall", "f1"):
        assert 0.0 <= report[key] <= 1.0
    assert report["gold"] > 0


def test_extract_text_and_file(trained, tmp_path, capsys):
    root, corpus, out_dir = trained
    model = str(out_dir / "model.bin")
    assert main(["extract", "--model", model, "--text", "苦参产自川西。"]) == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["text"] == "苦参产自川西。"
    assert isinstance(row["triples"], list)

    texts = tmp_path / "texts.txt"
    texts.write_text("苦参产自川西。\n甘草主治头晕目眩。\n", encoding="utf-8")
    assert main(["extract", "--model", model, "--file", str(texts)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 2


def test_bench_emits_consistent_stats(trained, capsys):
    _, corpus, out_dir = trained
    rc = main(
        [
            "bench",
            "--model",
            str(out_dir / "model.bin"),
            "--corpus",
            str(corpus),
            "--limit",
            "4",
            "--iterations",
            "2",
            "--warmup",
            "1",
        ]
    )
    assert rc == 0
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert row["requests"] == 8
    assert len(row["latencies_ms"]) == 8
    assert row["p50_ms"] <= row["p95_ms"] <= row["max_ms"]
    assert min(row["latencies_ms"]) <= row["mean_ms"] <= row["max_ms"]


def test_export_round_trip(trained, tmp_path, capsys):
    _, corpus, out_dir = trained
    bundled = tmp_path / "bundled.bin"
    rc = main(
        [
            "export",
            "--checkpoint",
            str(out_dir / "checkpoint.bin"),
            "--vocab",
            str(out_dir / "vocab.txt"),
            "--schema",
            str(out_dir / "schema.json"),
            "--out",
            str(bundled),
        ]
    )
    assert rc == 0
    model = load_inference_model(bundled)
    trained_model = load_inference_model(out_dir / "model.bin")
    assert model.vocab.tokens == trained_model.vocab.tokens
    assert model.schema.predicates == trained_model.schema.predicates
    # the bundle carries the final-epoch weights, which may differ from the
    # best-epoch snapshot in model.bin; it still must load and extract
    assert isinstance(model.extract("苦参产自川西。"), list)


def test_missing_model_is_a_diagnostic_not_a_crash(tmp_path, capsys):
    rc = main(["serve", "--model", str(tmp_path / "absent.bin")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def serve_returns_at_once(monkeypatch):
    monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", lambda self, *a, **k: None)


def test_serve_port_zero_reports_the_bound_port(trained, capsys, serve_returns_at_once):
    _, _, out_dir = trained
    rc = main(["serve", "--model", str(out_dir / "model.bin"), "--port", "0"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    host, port = report["listening"].rsplit(":", 1)
    assert host == "127.0.0.1" and int(port) > 0
    assert report["model_version"] == load_inference_model(out_dir / "model.bin").model_version


def test_serve_on_a_taken_port_fails_without_a_listening_line(
    trained, capsys, serve_returns_at_once
):
    _, _, out_dir = trained
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        rc = main(["serve", "--model", str(out_dir / "model.bin"), "--port", str(port)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert "listening" not in captured.out
