"""Command line interface binding every stage: corpus synthesis, training,
extraction, evaluation, latency benchmarking, serving, and artifact export.

Training settings resolve in three layers: built-in defaults, then a JSON
config file (--config), then explicit flags; later layers win per field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .data import (
    SynthConfig,
    Vocab,
    build_vocab,
    default_schema,
    generate_synthetic_corpus,
    load_corpus,
    load_schema,
    save_corpus,
    save_schema,
)
from .evaluator import benchmark_latency, score_triples
from .runtime import export_model, load_inference_model, serve
from .trainer import (
    TrainConfig,
    config_from_dict,
    load_checkpoint,
    save_checkpoint,
    save_metrics,
    train,
)

# flag destination -> TrainConfig field
_CONFIG_FIELDS = {
    "lr": "lr",
    "weight_decay": "weight_decay",
    "batch": "batch_size",
    "epochs": "epochs",
    "negatives": "negatives_per_positive",
    "threshold": "threshold",
    "seed": "seed",
}


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file of training settings")
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument(
        "--weight-decay",
        type=float,
        help="coupled L2 decay; the optimizer flushes weights it drives below "
        "float32's smallest normal value to zero",
    )
    p.add_argument("--batch", type=int, help="batch size")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--negatives", type=int, help="negative spans per example")
    p.add_argument("--threshold", type=float, help="pointer decision threshold")
    p.add_argument("--seed", type=int, help="training seed")


def resolve_train_config(args) -> TrainConfig:
    base = asdict(TrainConfig())
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        encoder = overrides.pop("encoder", None)
        base.update(overrides)
        if encoder is not None:
            if not isinstance(encoder, dict):
                raise ValueError(f"{args.config}: encoder section must be an object")
            base["encoder"].update(encoder)
    for dest, field in _CONFIG_FIELDS.items():
        value = getattr(args, dest)
        if value is not None:
            base[field] = value
    try:
        return config_from_dict(base)
    except TypeError as e:
        raise ValueError(f"unknown config field: {e}") from None


def _cmd_synth(args) -> int:
    corpus = generate_synthetic_corpus(
        SynthConfig(n_sentences=args.n, overlap_fraction=args.overlap, seed=args.seed)
    )
    save_corpus(corpus, args.out)
    if args.schema_out:
        save_schema(default_schema(), args.schema_out)
    print(json.dumps({"sentences": len(corpus), "out": str(args.out)}))
    return 0


def _cmd_train(args) -> int:
    config = resolve_train_config(args)
    schema = load_schema(args.schema) if args.schema else default_schema()
    corpus = load_corpus(args.corpus, schema)
    holdout = args.holdout
    if not 0 <= holdout < len(corpus):
        raise ValueError(f"holdout {holdout} must lie in [0, {len(corpus)})")
    train_split = corpus[: len(corpus) - holdout] if holdout else corpus
    eval_split = corpus[len(corpus) - holdout :] if holdout else None

    log = None if args.quiet else print
    result = train(config, train_split, schema, eval_corpus=eval_split, log=log)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    final = result.best_params if result.best_params is not None else result.params
    save_checkpoint(result.params, result.config, out_dir / "checkpoint.bin")
    export_model(final, result.config, result.vocab, schema, out_dir / "model.bin")
    result.vocab.save(out_dir / "vocab.txt")
    save_schema(schema, out_dir / "schema.json")
    save_metrics(result.metrics, out_dir / "metrics.jsonl")
    print(
        json.dumps(
            {
                "model": str(out_dir / "model.bin"),
                "best_f1": result.best_f1,
                "best_epoch": result.best_epoch,
                "final_loss": result.metrics[-1].mean_loss if result.metrics else None,
            }
        )
    )
    return 0


def _iter_texts(args) -> list[str]:
    if args.text is not None:
        return [args.text]
    with open(args.file, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def _cmd_extract(args) -> int:
    model = load_inference_model(args.model)
    from .evaluator import triples_to_payload

    for text in _iter_texts(args):
        triples = model.extract(text)
        print(
            json.dumps(
                {"text": text, "triples": triples_to_payload(triples)}, ensure_ascii=False
            )
        )
    return 0


def _cmd_eval(args) -> int:
    model = load_inference_model(args.model)
    corpus = load_corpus(args.corpus)
    predictions = [model.extract(ex.text) for ex in corpus]
    gold = [[(t.subject, t.predicate, t.object) for t in ex.triples] for ex in corpus]
    report = score_triples(predictions, gold)
    print(json.dumps(asdict(report)))
    return 0


def _cmd_bench(args) -> int:
    model = load_inference_model(args.model)
    corpus = load_corpus(args.corpus)
    texts = [ex.text for ex in corpus]
    if args.limit:
        texts = texts[: args.limit]
    report = benchmark_latency(
        model.extract, texts, iterations=args.iterations, warmup=args.warmup
    )
    row = asdict(report)
    row["latencies_ms"] = list(row["latencies_ms"])
    print(json.dumps(row))
    return 0


def _cmd_serve(args) -> int:
    model = load_inference_model(args.model)
    print(
        json.dumps(
            {"listening": f"{args.host}:{args.port}", "model_version": model.model_version}
        ),
        flush=True,
    )
    try:
        serve(model, (args.host, args.port), quiet=not args.verbose)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_export(args) -> int:
    params, config = load_checkpoint(args.checkpoint)
    vocab = Vocab.load(args.vocab)
    schema = load_schema(args.schema)
    export_model(params, config, vocab, schema, args.out)
    print(json.dumps({"out": str(args.out)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coex", description="joint entity-relation extraction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic annotated corpus")
    p.add_argument("--n", type=int, required=True, help="number of sentences")
    p.add_argument("--overlap", type=float, default=0.3, help="overlapping-sentence fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="corpus JSONL path")
    p.add_argument("--schema-out", help="also write the predicate schema here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train on a JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", help="JSON predicate list; defaults to the built-in schema")
    p.add_argument("--holdout", type=int, default=0, help="trailing sentences held out for eval")
    p.add_argument("--out-dir", required=True, help="directory for model and logs")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch lines")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("extract", help="extract triples from a text or file")
    p.add_argument("--model", required=True, help="exported inference artifact")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="one input text")
    group.add_argument("--file", help="file with one text per line")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("eval", help="score a model against a gold corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="measure per-request latency and bytes")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--limit", type=int, default=0, help="use only the first N texts")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("serve", help="run the local extraction service")
    p.add_argument("--model", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--verbose", action="store_true", help="log requests to stderr")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("export", help="bundle a checkpoint with vocab and schema")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
