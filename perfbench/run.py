"""freealg benchmark: run one workload in cold processes, check every answer, print metrics.

    python3 perfbench/run.py --workload modular_d8|exact_d7|tables
        --seed N --seconds S --trace 0|1

Run from the repository root; freealg is imported from ./src.

--trace 0 starts SETUP_PROBES set-up-only processes, then cold workload
processes one after another while another one still fits in --seconds (at
least one).  It prints the end-to-end metrics: wall_s (first call into
freealg to the last checked result), setup_s (process start through `import
freealg` and the variety lookup), peak_rss_mb (the workload process's maximum
resident set), each the median over the run's processes.

--trace 1 runs one untraced and one traced workload process and prints the
per-layer metrics of the traced one (see spans.LAYERS), with the tracing
overhead as the ratio of their wall_s.

Every item's answer is checked against a reference value from the paper or
the algebra (see workloads.py).  fail_ratio = failed / attempted is printed;
any failure makes the exit status 1.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  A record of the run,
with the software and machine it ran on, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("modular_d8", "exact_d7", "tables")
SETUP_PROBES = 5
RUN_BUDGET_S = 170          # the whole run, all processes included, ends within this


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "freealg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.nproc)

    def child(self, *extra):
        """Start one worker process, wait for it, return its JSON result."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed)] + list(extra)
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise RuntimeError("run budget of %ds used up" % RUN_BUDGET_S)
        spawned = time.perf_counter()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=self.env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError("worker exited with status %d" % proc.returncode)
        return json.loads(lines[-1])


def summarize_items(reps):
    attempted = sum(len(r["items"]) for r in reps)
    failed = sum(not it["ok"] for r in reps for it in r["items"])
    for r in reps:
        for it in r["items"]:
            print("  %-4s %-48s %7.2fs  %s" % ("ok" if it["ok"] else "FAIL", it["item"],
                                               it["seconds"], json.dumps(it["detail"])))
    return attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20240809)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "freealg", "__init__.py")):
        sys.exit("run.py: no freealg sources under %s" % os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    runner = Runner(args)
    start = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "git_rev": git_rev(), "src_sha256": source_digest(),
              "nproc": runner.nproc, "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                               time.gmtime())}
    try:
        if args.trace:
            os.makedirs(RESULTS, exist_ok=True)
            spans_path = os.path.join(RESULTS, "spans-%s.jsonl" % args.workload)
            reps = [runner.child("--trace", "0"),
                    runner.child("--trace", "1", "--spans", spans_path)]
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            setups = [runner.child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
            reps = []
            while True:
                reps.append(runner.child())
                elapsed = time.perf_counter() - start
                if elapsed + reps[-1]["wall_s"] > args.seconds:
                    break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit("run.py: %s: %s" % (args.workload, exc))

    env = reps[-1]["env"]
    print("workload %s, seed %d, %d workload process(es); python %s, numpy %s, %s, "
          "%s BLAS threads, nproc %d, git %s, src sha256 %s"
          % (args.workload, args.seed, len(reps), env["python"], env["numpy"], env["blas"],
             env["blas_threads"], runner.nproc, record["git_rev"], record["src_sha256"][:12]))
    attempted, failed = summarize_items(reps)
    print("fail_ratio %d/%d = %.3f" % (failed, attempted, failed / attempted))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        untraced, traced = reps
        values = dict(traced["layers"])
        values["proc.cpu_s"] = traced["cpu_s"]
        values["proc.tracing_overhead"] = traced["wall_s"] / untraced["wall_s"]
        names = [m["name"] for m in bench["per_layer"]]
        comps = sorted(traced["components"], key=lambda c: -c["paircols"])
        print("widest components (all %d in %s):" % (len(comps), record["spans_file"]))
        for c in comps[:8]:
            base = ("pivots %d / rows %d" % (c["pivots"], c["rows"]) if c["field"]
                    else "accepted %d / inserts %d" % (c["accepted"], c["inserts"]))
            print("  %s %s %-10s paircols %6d rank %6d dim %5d mode %-6s %s  %.2fs"
                  % (c["variety"], "GF(%d)" % c["field"] if c["field"] else "QQ", c["d"], c["paircols"],
                     c["rank"], c["dim"], c["mode"], base, c["build_s"]))
        record["components"] = traced["components"]
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in reps),
                  "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
        names = [m["name"] for m in bench["end_to_end"]]
        record["setup_probes_s"] = setups
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    moves = {}
    if args.trace:
        moves = {n: "  moves: " + spans.LAYERS[n][1] for n in names}
    for n in names:
        print("%-30s %14.6f %-6s%s" % (n, values[n], units[n], moves.get(n, "")))
    record.update(env=env, reps=reps, metrics=metrics,
                  attempted=attempted, failed=failed)
    out_dir = os.path.join(RESULTS, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    stamp = "%s-%d" % (time.strftime("%Y%m%dT%H%M%S", time.gmtime()), os.getpid())
    with open(os.path.join(out_dir, "seed%d-trace%d-%s.json" % (args.seed, args.trace, stamp)),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
