"""coxcent benchmark: one workload, closed loop, one client, one thread.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports coxcent from ``src/``.
Set-up (fresh import of coxcent, the workload's contexts, warm-up jobs) is
repeated SETUP_REPEATS times and its median is ``setup_s``.  The timed loop
then runs whole passes over the seeded job list until the jobs have taken
``--seconds`` in total, checking every output.  With ``--trace 1`` one more
pass runs with the layer wrappers of tracer.py installed, and the per-layer
metrics of that pass are reported instead of the end-to-end ones.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7

from workloads import DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS, Inputs


def fresh_import():
    """Import coxcent (and its CLI) from scratch, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "coxcent" or m.startswith("coxcent.")]:
        del sys.modules[name]
    cox = importlib.import_module("coxcent")
    importlib.import_module("coxcent.cli")
    return cox


class Loop:
    """Outcome of the timed loop: per-job latencies, failures and pass digests."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.digests: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_loop(workload, run, state, jobs, inputs, *, seconds=None, passes=None) -> Loop:
    """Whole passes over `jobs` until `seconds` of job time, or exactly `passes` passes.

    Each job is timed alone; its check and digest run outside the timed
    region.  A job that raises is a failure and the loop goes on.
    """
    loop = Loop()
    while True:
        digest = hashlib.sha256()
        for job in jobs:
            start = perf_counter()
            try:
                out = run(state, job)
            except Exception as exc:  # a broken job is counted, never fatal
                loop.latencies.append(perf_counter() - start)
                loop.failures.append(f"{job.kind} {job.system}: raised {exc!r}")
                digest.update(b"<raised>\n")
                continue
            loop.latencies.append(perf_counter() - start)
            try:
                error = workload.check(inputs, job, out)
            except Exception as exc:
                error = f"check raised {exc!r}"
            if error is not None:
                loop.failures.append(f"{job.kind} {job.system}: {error}")
            digest.update(workload.digest_bytes(out))
        loop.digests.append(digest.hexdigest())
        if passes is not None:
            if len(loop.digests) >= passes:
                return loop
        elif loop.busy_s >= seconds:
            return loop


def digest_errors(workload_name: str, seed: int, loop: Loop, reference: str) -> list[str]:
    """Every pass must repeat `reference` byte for byte; seed 0 must match the pin."""
    errors = [f"pass {i} digest {d[:12]} != {reference[:12]}"
              for i, d in enumerate(loop.digests) if d != reference]
    pinned = PINNED_DIGESTS[workload_name]
    if seed == DEFAULT_SEED and reference != pinned:
        errors.append(f"seed {seed} digest {reference[:12]} != pinned {pinned[:12]}")
    return errors


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coxcent" / "__init__.py").is_file():
        print(f"bench: no coxcent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    inputs = Inputs(fresh_import())
    jobs = workload.make_jobs(inputs, args.seed)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cox = fresh_import()
        state = workload.setup(cox, jobs)
        setup_times.append(perf_counter() - start)

    loop = run_loop(workload, workload.run, state, jobs, inputs, seconds=args.seconds)
    reference = loop.digests[0]
    failed = len(loop.failures)
    errors = loop.failures + digest_errors(args.workload, args.seed, loop, reference)
    attempted = len(loop.latencies)

    lat_ms = sorted(x * 1e3 for x in loop.latencies)
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (attempted / loop.busy_s, "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (quantile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  jobs/pass {len(jobs)}  "
          f"passes {len(loop.digests)}  timed {loop.busy_s:.3f} s  digest {reference}")
    for name, (value, unit) in e2e.items():
        note = f"  (n={attempted})" if name.startswith("job_p") else ""
        print(f"  {name:<14} {value:12.4f} {unit}{note}")
    print(f"  failed_ratio   {failed}/{attempted}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    if args.trace:
        from tracer import Tracer, unit_of

        tracer = Tracer(cox, args.seed)
        traced = run_loop(workload, tracer.traced(workload.run), state, jobs, inputs, passes=1)
        tracer.uninstall()
        failed += len(traced.failures)
        errors += traced.failures + [f"traced {e}" for e in
                                     digest_errors(args.workload, args.seed, traced, reference)]
        attempted += len(traced.latencies)
        self_times = tracer.self_times()
        layer = tracer.layer_metrics(self_times, traced.busy_s / (loop.busy_s / len(loop.digests)))
        spans = tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")
        print(f"traced: {spans} spans, overhead {layer['trace.overhead_ratio']:.3f}x, self s: "
              + "  ".join(f"{k} {v:.3f}" for k, v in self_times.items()))
        for name, value in layer.items():
            print(f"  {name:<32} {value:.6g}")
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}

    for error in errors[:20]:
        print(f"FAILED {error}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
