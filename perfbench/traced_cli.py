"""Run ``readscale.cli.main`` with its public functions traced.

Usage: python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- CLI_ARGS...

The spans are written to SPANS_JSON when the command ends, whatever its
exit status. ``readscale`` must be importable (the benchmark puts the
checkout's ``src`` on PYTHONPATH).
"""
from __future__ import annotations

import sys

from tracer import Tracer, install


def run(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    tracer = Tracer(run_id)
    install(tracer)
    import readscale.cli

    try:
        return readscale.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
