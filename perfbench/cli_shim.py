"""Run ``lie2alg.cli.main`` under the tracer, in a fresh interpreter.

Usage: ``python3 cli_shim.py DUMP_JSON OP_INDEX [cli arguments...]``

Times the import of the command line module, installs the wrappers, runs
the subcommand with its stdout untouched, writes the spans (plus the import
time) to DUMP_JSON and exits with the subcommand's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    dump_path, op_index, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import lie2alg.cli
    import_s = time.perf_counter() - t0

    import tracing

    tracer = tracing.Tracer()
    tracer.op = op_index
    tracer.install()
    try:
        code = lie2alg.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        dump = tracer.dump()
        dump["import_s"] = import_s
        Path(dump_path).write_text(json.dumps(dump), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
