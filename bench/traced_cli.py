"""Run one qclink CLI invocation with the benchmark's tracer installed.

    python bench/traced_cli.py STATS_JSON <qclink arguments...>

Exits with the CLI's exit code and writes the invocation's per-layer
statistics (see tracer.summarise) to STATS_JSON.
"""

import json
import sys

from tracer import Tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from qclink import cli

    try:
        return cli.main(argv)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.take(), fh)


if __name__ == "__main__":
    sys.exit(main())
