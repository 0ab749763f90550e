"""End-to-end and per-layer benchmark of border3.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Builds the workload's fixed batch from the seed, warms the verbs it uses,
then runs a single closed-loop client over the batch for ``--seconds`` and
checks every answer.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes over the same
batch and reports the per-layer metrics and the tracing overhead, and
writes the spans to ``perfbench/out/``.  The last stdout line is the result JSON;
the line before it holds the details (environment, input digest and sizes,
tail percentile, failures).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from bench import (ROOT, SRC, import_package, latency_summary,  # noqa: E402
                   measure, per_op_best)
from clicall import call_cli  # noqa: E402

SETUP_REPEATS = 11
OUT_DIR = ROOT / "perfbench" / "out"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class SetupProbe:
    """Wall seconds of fresh interpreters importing and warming each verb.

    The probes are spread over the run, between operations, so their median
    samples the host's changing speed instead of one moment of it.
    """

    def __init__(self, warm, seconds):
        self.cmd = [sys.executable,
                    str(Path(__file__).resolve().with_name("setup_probe.py")),
                    str(SRC)]
        self.payload = json.dumps(warm)
        self.interval = seconds / SETUP_REPEATS
        self.times = []
        self.due = perf_counter()

    def run(self):
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, input=self.payload, capture_output=True,
                              text=True, timeout=150, cwd=ROOT)
        self.times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")

    def maybe(self):
        if len(self.times) < SETUP_REPEATS and perf_counter() >= self.due:
            self.due += self.interval
            self.run()

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self.run()
        return self.times


def input_summary(ops):
    dims = Counter("x".join(map(str, op.dims)) for op in ops if op.dims)
    cores = Counter("x".join(map(str, op.core_dims)) for op in ops
                    if op.core_dims)
    return {"ops": len(ops), "by_label": dict(Counter(op.label for op in ops)),
            "dims": dict(dims), "core_dims": dict(cores),
            "max_entry_bits": max(op.bits for op in ops)}


def digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key.encode())
        h.update(b"\n")
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, ops, warm, seconds, detail):
    probe = SetupProbe(warm, seconds)
    m = measure(ops, seconds, between=probe.maybe,
                fill_share=workloads.FILL_SHARE.get(workload, 0.0))
    setup = probe.finish()
    lat = latency_summary(per_op_best([m]))
    repeats = sorted(map(len, m.latencies))
    detail.update(setup_runs_s=setup, passes=m.passes, wall_s=m.wall_s,
                  repeats={"min": repeats[0],
                           "median": statistics.median(repeats)},
                  tail={k: lat[k] for k in ("tail_percentile", "tail_samples",
                                             "tail_beyond")})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(lat["ops_per_s"], "1/s"),
        "op_p50_ms": metric(lat["op_p50_ms"], "ms"),
        "op_tail_ms": metric(lat["op_tail_ms"], "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return metrics, [m]


def per_layer(workload, seed, ops, seconds, detail):
    """Alternate untraced and traced passes; layer totals per traced pass."""
    import tracer

    tr = tracer.Tracer()
    base, traced = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        base.append(measure(ops, 0))
        with tr.installed():
            traced.append(measure(ops, 0))
        pair = perf_counter() - t0
        if perf_counter() - start + pair > seconds:
            break
    metrics = tracer.layer_metrics(tr, len(traced))
    untraced_s = sum(per_op_best(base))
    traced_s = sum(per_op_best(traced))
    metrics["trace.overhead_pct"] = metric(
        100.0 * (traced_s / untraced_s - 1.0), "%")
    runs = base + traced
    jobs2_s = 0.0
    if workload == "oracle":
        jobs2 = workloads.jobs2_ops()
        jobs = measure(jobs2, 0)
        jobs2_s = sum(per_op_best([jobs]))
        runs.append(jobs)
        # the same six searches run serially in the untraced passes
        serial = {json.dumps([["rank", "--field", "3"], json.loads(op.key)[1]])
                  for op in jobs2}
        detail["jobs1_same_inputs_s"] = sum(
            s for s, op in zip(per_op_best(base), ops) if op.key in serial)
    metrics["rank_oracle.rank_over_field.jobs2.s"] = metric(jobs2_s, "s")
    spans = OUT_DIR / f"spans-{workload}-{seed}.json"
    tr.dump(spans, {"workload": workload, "seed": seed,
                    "passes": len(traced)})
    detail.update(passes=len(traced), untraced_pass_s=untraced_s,
                  traced_pass_s=traced_s,
                  spans_file=str(spans.relative_to(ROOT)))
    return metrics, runs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        import_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot import border3 from {SRC}: {exc}",
              file=sys.stderr)
        return 2

    # the limit verb samples its plane with coefficients from BORDER3_SEED
    os.environ["BORDER3_SEED"] = "0"
    t0 = perf_counter()
    ops = workloads.generate(args.workload, args.seed)
    warm = workloads.warmup_calls(args.workload)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "input_digest": digest(ops), "inputs": input_summary(ops),
        "generate_s": perf_counter() - t0,
    }
    for call in warm:
        call_cli(*call)

    if args.trace:
        metrics, runs = per_layer(args.workload, args.seed, ops, args.seconds,
                                  detail)
    else:
        metrics, runs = end_to_end(args.workload, ops, warm, args.seconds,
                                   detail)
    attempted = sum(m.attempted for m in runs)
    failures = [f for m in runs for f in m.failures]
    detail["failed_ratio"] = len(failures) / attempted
    detail["failures"] = failures[:20]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
