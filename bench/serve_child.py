"""The coex HTTP service in its own process, for the `serve` workload.

`coex serve --port 0` prints the port it was asked for, not the one the
kernel bound, so the benchmark starts the server through this script instead:

    python bench/serve_child.py <model.bin> [<trace-out.jsonl>]

It prints {"port": ...} once the socket is bound and serves until its stdin
closes. On the way out it prints {"peak_rss_mb": ..., "load_ms": ...} and, when
given a trace path, writes the spans its handler threads recorded there.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time


def main(argv) -> int:
    from coex.runtime import create_server, load_inference_model

    model_path = argv[0]
    trace_path = argv[1] if len(argv) > 1 else None
    start = time.perf_counter()
    model = load_inference_model(model_path)
    load_ms = (time.perf_counter() - start) * 1000.0

    tracer = instrumentation = None
    if trace_path:
        from tracing import Instrumentation, Tracer, full_sites

        tracer = Tracer()
        instrumentation = Instrumentation(tracer, full_sites(tracer))
        instrumentation.__enter__()

    server = create_server(model, ("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        if instrumentation is not None:
            instrumentation.__exit__(None, None, None)
            tracer.dump(trace_path, {"load_ms": load_ms})
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak, "load_ms": load_ms}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
