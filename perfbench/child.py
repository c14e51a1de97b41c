"""One traced ``tridet`` CLI invocation in a fresh interpreter.

    python3 perfbench/child.py OUT.json --import-only
    python3 perfbench/child.py OUT.json CLI-ARGS...

Times ``import tridet.cli``, then (unless --import-only) runs ``cli.run`` on
the arguments with the tracer installed.  The import time, spans and counters
go to OUT.json as one JSON document; stdout and the exit code are cli.run's.
The caller puts the checkout's ``src`` on PYTHONPATH.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import tridet.cli

    import_s = time.perf_counter() - t0
    if argv == ["--import-only"]:
        doc, rc = {"spans": [], "counts": {}, "leaf_s": {}}, 0
    else:
        import tracer

        spans = tracer.Tracer()
        spans.install(tridet)
        rc = tridet.cli.run(argv)
        sys.stdout.flush()
        doc = spans.dump()
    doc["import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
