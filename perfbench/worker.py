"""One repetition of one workload, in a fresh interpreter.

Usage: worker.py SRC_DIR CONFIG COMMAND [SPANS_PATH]

Imports arealstat from SRC_DIR and loads CONFIG, then writes ``ready`` to
stdout so the parent can time set-up from process start.  COMMAND
``setup`` stops there.  Otherwise it runs
``run_subcommand(config, COMMAND)`` and writes one JSON line
with the wall time, the peak RSS and, on failure, the error.  With
SPANS_PATH the library's public functions are wrapped first and the spans
are written there when the run ends.
"""

import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    src, config_path, command = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, src)
    import arealstat  # noqa: F401  (set-up cost users pay on every call)
    from arealstat.pipeline import load_config, run_subcommand

    config = load_config(config_path)
    print("ready", flush=True)
    if command == "setup":
        return 0

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        run_subcommand(config, command)
    except Exception as exc:  # reported to the parent, which counts the failure
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spans_path, start, start + wall)
    print(json.dumps({"wall_s": wall, "peak_rss_mb": _peak_rss_mb(), "error": error}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
