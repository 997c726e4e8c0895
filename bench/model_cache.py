"""The training recipe, and the serving model trained from it and cached.

`extract` and `serve` run a model that the code under test trains with the
same recipe as the `train` workload, so a change that alters the trained
weights also shows in inference speed. Training is byte-deterministic, so the
exported artifact is cached under a key made from the hash of src/coex/**, the
recipe and its seed. On a hit, the artifact's tensor fingerprint and file hash
are checked against what the build recorded before it is used.

Run as a script, this module builds one artifact:

    python bench/model_cache.py <out-dir>
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / "cache"

# The corpus seed is odd and workload inputs use even seeds (input_seed), so
# no workload ever reads the serving model's own training corpus.
RECIPE = {
    "corpus_seed": 1,
    "overlap": 0.3,
    "n_train": 1200,
    "n_heldout": 400,
    "epochs": 3,
    "batch_size": 8,
}


def input_seed(seed: int) -> int:
    return 2 * seed


def recipe_corpus():
    """(train, held-out) split of the recipe's own corpus."""
    from coex.data import SynthConfig, generate_synthetic_corpus

    corpus = generate_synthetic_corpus(
        SynthConfig(
            RECIPE["n_train"] + RECIPE["n_heldout"],
            overlap_fraction=RECIPE["overlap"],
            seed=RECIPE["corpus_seed"],
        )
    )
    return corpus[: RECIPE["n_train"]], corpus[RECIPE["n_train"] :]


def recipe_config():
    from coex.trainer import TrainConfig

    return TrainConfig(epochs=RECIPE["epochs"], batch_size=RECIPE["batch_size"])


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "coex").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def cache_key() -> str:
    h = hashlib.sha256()
    h.update(source_hash().encode("ascii"))
    h.update(json.dumps(RECIPE, sort_keys=True).encode("utf-8"))
    return h.hexdigest()[:16]


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _verified(entry: Path) -> dict | None:
    """The build record if the cached artifact still matches it, else None."""
    meta_path, model_path = entry / "meta.json", entry / "model.bin"
    if not (meta_path.is_file() and model_path.is_file()):
        return None
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return None
    if meta.get("file_sha256") != _file_sha256(model_path):
        return None
    from coex.runtime import load_inference_model

    model = load_inference_model(model_path)
    if model.model_version != meta.get("model_version"):
        return None
    return meta


def ensure_model() -> tuple[Path, dict]:
    """Path of the verified serving artifact and its build record. A build
    runs in its own process, so its time and memory stay out of the calling
    workload."""
    entry = CACHE_DIR / cache_key()
    meta = _verified(entry)
    if meta is not None:
        return entry / "model.bin", meta
    tmp = CACHE_DIR / f"{entry.name}.tmp{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(tmp)],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=800,
    )
    if entry.exists():
        for p in entry.iterdir():
            p.unlink()
        entry.rmdir()
    tmp.rename(entry)
    meta = _verified(entry)
    if meta is None:
        raise RuntimeError(f"freshly built artifact in {entry} fails verification")
    return entry / "model.bin", meta


def _build(out_dir: Path):
    from coex.data import default_schema
    from coex.runtime import export_model, model_fingerprint
    from coex.trainer import train

    start = time.perf_counter()
    train_set, heldout = recipe_corpus()
    result = train(recipe_config(), train_set, default_schema(), eval_corpus=heldout)
    params = result.best_params if result.best_params is not None else result.params
    model_path = out_dir / "model.bin"
    export_model(params, result.config, result.vocab, default_schema(), model_path)
    meta = {
        "recipe": RECIPE,
        "source_sha256": source_hash(),
        "model_version": model_fingerprint(params),
        "file_sha256": _file_sha256(model_path),
        "heldout_f1": result.best_f1,
        "best_epoch": result.best_epoch,
        "build_s": time.perf_counter() - start,
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")


if __name__ == "__main__":
    _build(Path(sys.argv[1]))
