"""Run ``plc.cli`` with the benchmark's span wrappers installed.

    python3 perfbench/traced_cli.py SPANS_FILE <plc arguments...>

Writes the invocation's spans to SPANS_FILE and exits with the CLI's code.
"""
import sys

import plc.cli
from tracing import Tracer


def main() -> int:
    tracer = Tracer()
    with tracer.installed():
        code = plc.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
