"""Run ``repro serve`` with the benchmark's timing proxies installed.

Usage::

    python benchmarks/e2e/serve_traced.py --spans PATH serve --data-dir DIR

Everything after ``--spans PATH`` is handed to ``repro.cli.main``.  The
proxies go in before the daemon starts; the spans are written to
``PATH`` once the daemon has returned from its SIGTERM drain.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]

    import common
    common.require_repro()
    import tracer
    from repro import cli

    recorder = tracer.SpanRecorder()
    with tracer.Proxies(recorder):
        code = cli.main(cli_args)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
