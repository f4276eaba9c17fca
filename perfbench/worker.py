"""One cold run of one workload; run.py starts this in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --spawned-at T [--setup-only] [--spans FILE]

T is time.perf_counter() in the parent just before it started this process
(the clock is system-wide on Linux), so setup_s covers interpreter start,
`import freealg` and the variety lookup.  The last line of stdout is one JSON
object with this run's measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _blas_info():
    """BLAS library name and version numpy was built with, and its thread count."""
    import ctypes
    import glob
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"numpy": numpy.__version__, "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the spans here as JSON lines (with --trace 1)")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import freealg
    if not os.path.abspath(freealg.__file__).startswith(SRC + os.sep):
        sys.exit("worker: imported freealg from %s, not from %s" % (freealg.__file__, SRC))
    import workloads
    variety_names, make_items = workloads.WORKLOADS[args.workload](args.seed)
    setup = workloads.Setup(variety_names)
    setup_s = time.perf_counter() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return

    items = make_items(setup)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        tracer.install()

    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for name, run in items:
        t = time.perf_counter()
        try:
            ok, detail = run()
        except Exception as exc:  # an item that raises counts as failed; the run goes on
            ok, detail = False, {"error": "%s: %s" % (type(exc).__name__, exc)}
        results.append({"item": name, "ok": bool(ok), "seconds": time.perf_counter() - t,
                        "detail": detail})
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    out.update(wall_s=wall_s, cpu_s=cpu_s,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               items=results, env=dict(_blas_info(), python=sys.version.split()[0]))
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["components"] = tracer.components
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_jsonl(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
