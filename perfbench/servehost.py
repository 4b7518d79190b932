"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/servehost.py SPANS_FILE serve [ARGS...]``.
Runs the program's own CLI entry point unchanged; when the service
shuts down, its spans are written to SPANS_FILE for the client's
ledger.  Only the traced ``service_stream`` passes use this; untraced
passes start ``python -m repro serve`` directly.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.cli import main

    status = main(argv)
    tracing.dump(recorder.spans, recorder.counters, spans_path)
    sys.exit(status)
