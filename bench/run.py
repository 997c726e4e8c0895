"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {train,extract,serve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the code under test is src/coex. With
--trace 0 the last line carries the gated end-to-end metrics. With --trace 1
every layer is wrapped for half of the work (alternate batches or sentences,
or a second server) and the last line carries the per-layer metrics plus the
tracing overhead: the traced half's time per unit of work against the
untraced half's. The lines before it name every figure in
the README's tables with its unit, the machine, and the serving model's build.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SELF_SUM_TOLERANCE = 0.10  # on extract: |per-layer self-time sum / untraced time - 1|


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric names with their units, as
    BENCHMARK.json declares them."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def machine_info(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "extract", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "coex" / "__init__.py").is_file():
        print(f"error: no coex sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    e2e_units, layer_units = declared_metrics()

    print("machine " + json.dumps(machine_info(args.seed)))
    run = WORKLOADS[args.workload]
    m = run(args.seed, args.seconds, traced=bool(args.trace))

    if m.model is not None:
        print(f"model_build_s {m.model['build_s']:.3f} s (artifact {m.model['model_version']},"
              f" recipe held-out F1 {m.model['heldout_f1']:.4f}; not part of setup_s)")
    for name, (value, unit) in m.named.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio {m.failed / m.attempted:.6g} ratio ({m.failed}/{m.attempted})")

    if args.trace:
        # every per-layer metric, 0 where the workload does not run that layer
        layers = dict.fromkeys(layer_units, 0.0)
        layers.update({k: v for k, v in m.layers.items() if k in layer_units})
        layers["trace.overhead_pct"] = (m.traced_unit_s / m.unit_s - 1.0) * 100.0
        ratio = m.layers.get("trace.self_sum_ms", 0.0) / (m.unit_s * 1000.0)
        layers["trace.self_sum_ratio"] = ratio
        if args.workload == "extract":
            # one in-process caller: the wrapped layers must account for the
            # time per sentence, give or take the tracing overhead
            m.checks[f"trace.self_sum_ratio within 1 ± {SELF_SUM_TOLERANCE}"] = (
                abs(ratio - 1.0) <= SELF_SUM_TOLERANCE
            )
        for name, value in layers.items():
            print(f"{args.workload} {name} {value:.6g} {layer_units[name]}")
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": m.e2e[k], "unit": unit} for k, unit in e2e_units.items()}
    for check, ok in m.checks.items():
        print(f"check {'ok' if ok else 'FAILED'}: {check}")
    result = {"correct": m.correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
