"""Self-tests of the benchmark: wrong answers are counted, inputs follow the seed.

    python3 bench/selftest.py

Runs in a few seconds from the root of a checkout; exits 1 if any test fails.
"""

from __future__ import annotations

import json
import sys

from run import SRC, fresh_import, run_loop
from workloads import WORKLOADS, Inputs, JobOutput


def _loop(workload, run, state, jobs, inputs):
    return run_loop(workload, run, state, jobs, inputs, passes=1)


def injected_failures(cox, inputs) -> list[str]:
    """Three jobs per workload, the middle one corrupted: exactly one failure, no crash."""
    problems = []

    def expect(name, loop, failed):
        if len(loop.latencies) != 3 or len(loop.failures) != failed:
            problems.append(f"{name}: attempted {len(loop.latencies)}, "
                            f"failed {loop.failures}, expected {failed} of 3")

    verify = WORKLOADS["verify-finite"]
    job = verify._job("H3", "prop2")

    def wrong_count(state, j):
        out = verify.run(state, j)
        if j is jobs[1]:
            doc = json.loads(out.stdout)
            doc["instances_checked"] += 1
            out = JobOutput(out.code, json.dumps(doc))
        return out

    jobs = [job, job._replace(), job]
    expect("verify: wrong instances_checked", _loop(verify, wrong_count, cox, jobs, inputs), 1)

    cli = WORKLOADS["cli-oneshot"]
    reduce_jobs = [j for j in cli.make_jobs(inputs, 1) if j.kind == "reduce"][:3]

    def corrupted_nf(state, j):
        out = cli.run(state, j)
        if j is reduce_jobs[1]:
            doc = json.loads(out.stdout)
            nf = doc["normal_form"].split() + ["1"]  # one letter too many, length kept consistent
            doc["normal_form"], doc["length"] = " ".join(nf), len(nf)
            out = JobOutput(out.code, json.dumps(doc))
        return out

    expect("cli: corrupted normal form", _loop(cli, corrupted_nf, cox, reduce_jobs, inputs), 1)

    certify = WORKLOADS["certify-infinite"]
    all_jobs = certify.make_jobs(inputs, 1)
    cert_jobs = all_jobs[:3]
    state = certify.setup(cox, all_jobs)

    def bad_certificate(st, j):
        w, cert, ok = certify.run(st, j)
        if j is cert_jobs[1]:  # w is not the identity, so u w u^-1 != rho_{} = 1
            cert = type(cert)(frozenset(), cert.conjugator, cert.steps)
        return w, cert, ok

    expect("certify: certificate fails verify",
           _loop(certify, bad_certificate, state, cert_jobs, inputs), 1)

    def raises(st, j):
        if j is cert_jobs[1]:
            raise RuntimeError("injected")
        return certify.run(st, j)

    expect("certify: job raises", _loop(certify, raises, state, cert_jobs, inputs), 1)
    return problems


def seeded_inputs(cox) -> list[str]:
    problems = []
    for name, workload in WORKLOADS.items():
        if workload.make_jobs(Inputs(cox), 11) != workload.make_jobs(Inputs(cox), 11):
            problems.append(f"{name}: seed 11 gave different inputs twice")
    for name in ("certify-infinite", "cli-oneshot"):
        words = [[j.word for j in WORKLOADS[name].make_jobs(Inputs(cox), seed)]
                 for seed in (11, 12)]
        if words[0] == words[1]:
            problems.append(f"{name}: seeds 11 and 12 gave the same words")
    return problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    cox = fresh_import()
    inputs = Inputs(cox)
    problems = injected_failures(cox, inputs) + seeded_inputs(cox)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
