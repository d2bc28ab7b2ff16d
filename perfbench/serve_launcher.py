"""Start ``greenhpc serve``, optionally with the benchmark's layer wrappers.

Usage: ``python3 perfbench/serve_launcher.py --checkpoint-dir DIR [--layers]``.
Without ``--layers`` this is exactly ``greenhpc serve --port 0
--checkpoint-every-h 24``.  With it, the public methods of every layer are
wrapped (see :mod:`layers`) before ``run_serve`` starts, and
``GET /perfbench/layers`` returns the counts and spans recorded since the
previous call, then zeroes them.
"""

from __future__ import annotations

import argparse
import json
import time

_START = time.perf_counter()

import bench  # noqa: E402

bench.use_source_tree()

import repro.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _START


def _serve_layer_endpoint(profiler) -> None:
    from repro.serve.daemon import ServeDaemon

    handle = ServeDaemon.handle
    mark = [0]

    def handle_with_layers(self, request, method, segments, query):
        if segments != ["perfbench", "layers"]:
            return handle(self, request, method, segments, query)
        recorder = profiler.recorder
        body = json.dumps(
            {
                "import_s": _IMPORT_S,
                "snapshot": profiler.snapshot(),
                "spans": [span.to_dict() for span in recorder.spans_since(mark[0])],
            },
            default=str,
        ).encode()
        mark[0] = recorder.mark()
        profiler.reset()
        request.send_response(200)
        request.send_header("Content-Type", "application/json")
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)
        return True

    ServeDaemon.handle = handle_with_layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkpoint-dir", required=True)
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()
    if args.layers:
        import layers
        from repro.obs import TraceRecorder

        profiler = layers.LayerProfiler(TraceRecorder())
        layers.install(profiler)
        _serve_layer_endpoint(profiler)
    return repro.cli.main(
        [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--checkpoint-dir", args.checkpoint_dir,
            "--checkpoint-every-h", "24",
        ]
    )


if __name__ == "__main__":
    raise SystemExit(main())
