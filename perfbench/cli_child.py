"""``python -m qorder.cli`` with the layer spans recorded, for traced runs.

    python3 perfbench/cli_child.py --spans FILE -- <qorder arguments>

Times the import of sympy and of qorder, wraps the layers as
``tracing.Tracer`` does, runs ``qorder.cli.main`` and writes the spans
to FILE before it exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys

import env
from worker import _timed_imports


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: cli_child.py --spans FILE -- ARGS...", file=sys.stderr)
        return 2
    spans_file, cli_args = argv[1], argv[3:]
    env.add_paths()
    imports = _timed_imports()
    import qorder.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = qorder.cli.main(cli_args)
    finally:
        tracer.active = False
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"imports": imports, "spans": tracer.spans(),
                       "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
