"""Traced server child: ``python perfbench/launcher.py SPANS -- CLI-ARGS``.

Installs the same layer wrappers as the in-process workloads, runs
``repro.tools.cli.main(CLI-ARGS)`` (``serve --http`` drains on SIGTERM and
returns), then writes the recorded spans to SPANS as JSON lines.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launcher.py SPANS -- CLI-ARGS", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from common import require_sources
    from tracing import Tracer

    require_sources()
    from repro.tools.cli import main as cli_main

    tracer = Tracer()
    tracer.install()
    try:
        return cli_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
