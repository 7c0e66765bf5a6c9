"""One benchmark run of the CLI, in a fresh interpreter.

Usage: ``python3 child.py SRC RESULT CSV [SPANS] -- CLI-ARGS...``

Times the import of ``geo_route_sim.cli`` (what every CLI call pays) in CPU
time, which leaves out waits on the file system, and one call of ``cli.main``
writing its CSV to ``CSV``, with a fixed reference loop timed just before and
after it.  With a ``SPANS`` path the call is traced: the
tracer wraps the package's functions, writes the spans there and adds the
per-layer summary to the result.  The result is a JSON object written to
``RESULT``; the untraced path touches nothing of the package but
``cli.main``.
"""

import json
import math
import os
import resource
import sys
import time


def reference():
    """Seconds taken by a fixed pure-Python loop of float math, tuple
    allocation and dict stores, the kind of work the simulator does.

    The speed of a shared host drifts by tens of percent over seconds to
    minutes; the same drift slows this loop, so ``cli.main``'s time divided
    by it is steady where the time alone is not.
    """
    start = time.perf_counter()
    table = {}
    for i in range(200000):
        x, y = i * 0.37 % 97.0, i * 0.61 % 89.0
        if math.hypot(x - 50.0, y - 40.0) <= 30.0:
            table[i & 2047] = (x, y, i)
    return time.perf_counter() - start


def main(argv):
    src, result_path, *rest = argv
    sys.path.insert(0, src)
    start = time.process_time()
    try:
        from geo_route_sim import cli
    except Exception as exc:
        write(result_path, {"import_error": repr(exc)})
        return

    result = {"setup_s": time.process_time() - start}
    split = rest.index("--")
    paths, cli_args = rest[:split], rest[split + 1:]
    csv_path = paths[0]
    cli_args = cli_args + ["--out", csv_path]
    tracer = None
    if len(paths) > 1:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = reference()
    start = time.perf_counter()
    if tracer is None:
        code = cli.main(cli_args)
    else:
        code = tracer.call(cli.main, "cli.main", cli_args)
    result["wall_s"] = time.perf_counter() - start
    result["ref_s"] = (before + reference()) / 2
    result["exit"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        csv_bytes = os.path.getsize(csv_path) if os.path.exists(csv_path) else 0
        result["layers"] = tracer.summary(csv_bytes)
        result["absent"] = tracer.absent
        tracer.write_spans(paths[1])
    write(result_path, result)


def write(result_path, result):
    with open(result_path, "w") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main(sys.argv[1:])
