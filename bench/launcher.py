"""Traced stand-in for ``python -m defectcast.cli``.

Usage: python3 bench/launcher.py --spans OUT.json -- <cli argv>

Times the imports in this fresh process, installs the span wrappers,
calls ``defectcast.cli.main(argv)`` and writes the spans and timings
to OUT.json.  stdout carries exactly what the CLI prints.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import numpy  # noqa: E402,F401

numpy_import_s = perf_counter() - start
import defectcast.cli  # noqa: E402

import_s = perf_counter() - start

import spans  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_argv = argv[1], argv[3:]
    tracer = spans.Tracer()
    tracer.install()
    t = perf_counter()
    try:
        code = defectcast.cli.main(cli_argv)
    finally:
        main_s = perf_counter() - t
        tracer.uninstall()
        record = tracer.dump()
        record.update(import_s=import_s, numpy_import_s=numpy_import_s, main_s=main_s)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
