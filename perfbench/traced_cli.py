"""Run one fpcsat CLI command under span timing and write the totals as JSON.

    python3 perfbench/traced_cli.py SPANS.json [fpcsat arguments ...]

The exit code and output are the CLI's own.
"""

import json
import sys

import fpcsat.cli
from tracer import Tracer, instrument


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    instrument(tracer)
    code = fpcsat.cli.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
