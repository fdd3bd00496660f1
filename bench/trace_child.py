"""Traced stand-in for ``python -m sympspec.cli``.

Usage: python trace_child.py STATS_PATH CLI_ARGS...

Runs ``sympspec.cli.main(CLI_ARGS)`` with the layer functions wrapped and
writes the per-span totals to STATS_PATH as JSON.  Exit code and output
are those of the command line.
"""

import json
import sys

from tracing import Tracer


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    import sympspec.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = sympspec.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
