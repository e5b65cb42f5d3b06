"""One traced ldlab CLI command: python cli_child.py TRACE_FILE ARGS...

Times the import of ldlab.cli in this fresh process, wraps the traced
ldlab functions, runs the command and writes the spans to TRACE_FILE.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import ldlab.cli  # noqa: E402

import_s = perf_counter() - t0

import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.keep = True
    tracer.install()
    try:
        code = ldlab.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(dict(tracer.export(), import_s=import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
