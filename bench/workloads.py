"""The three benchmark workloads: seeded inputs, job runners and exact checks.

A workload is built in three steps:

* ``make_jobs(inputs, seed)`` generates the job list from the seed, using the
  benchmark's own contexts (``Inputs``); the program later receives only the
  words and argv lists it produces.
* ``setup(cox, jobs)`` builds the contexts the workload names and runs the
  untimed warm-up jobs; it returns the state the timed jobs run against.
* ``run(state, job)`` is one timed job; ``check(inputs, job, out)`` compares
  its output with a seed-independent exact answer and returns an error message
  or ``None``; ``digest_bytes(out)`` is what the byte-identity digest hashes.

Every job runs in-process in one thread.  CLI jobs call ``coxcent.cli.main``
with stdout captured, exactly as a shell user would run ``coxcent ...``.
"""

from __future__ import annotations

import io
import json
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# The two non-catalog systems.  INF_BOND has infinite bonds and labels 3 and 4
# (field degree 4, coefficients grow with word length); DEG12 has labels 5 and
# 7, so it lives in Q(2cos pi/35), degree 12.
INF_BOND = ((1, 0, 3, 2), (0, 1, 3, 4), (3, 3, 1, 0), (2, 4, 0, 1))
DEG12 = ((1, 5, 2, 2), (5, 1, 7, 2), (2, 7, 1, 5), (2, 2, 5, 1))
MATRICES = {"inf4": INF_BOND, "deg12": DEG12}
MATRIX_FILES = {"deg12": DATA / "deg12.json"}

# instances_checked of `verify --type T --suite S`, pinned at the commit the
# baseline was recorded on; they are group invariants, so any change is a bug.
VERIFY_COUNTS = {
    ("H3", "prop1"): 32, ("H3", "prop2"): 6, ("H3", "main"): 32, ("H3", "classes"): 4,
    ("B4", "prop1"): 76, ("B4", "prop2"): 12, ("B4", "main"): 76, ("B4", "classes"): 9,
    ("A5", "prop1"): 76, ("A5", "prop2"): 13, ("A5", "main"): 76, ("A5", "classes"): 4,
    ("D5", "prop1"): 156, ("D5", "prop2"): 15, ("D5", "main"): 156, ("D5", "classes"): 6,
}

# sha256 of all job outputs of one pass for seed 0 (see run.py), recorded at
# the baseline commit; the CLI promises byte-identical output.
DEFAULT_SEED = 0
PINNED_DIGESTS = {
    "verify-finite": "14defa935bbf85364a8c70a9bd8b69186a2a4b5ddc3b563553493408ca2d2950",
    "certify-infinite": "5fa328473eeb30970fcd553e4c7e4e0bfadc08789860b9e306b9508641e94237",
    "cli-oneshot": "0adc6a49a52de05a33ed8d7f578dd2fa9691d4d2d824f2c4b2e877f6cb4eead9",
}

Job = namedtuple("Job", "kind system word argv")


JobOutput = namedtuple("JobOutput", "code stdout")  # a CLI job's exit code and stdout


def _random_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    # no letter twice in a row, so the word is not trivially shortened
    word: list[int] = []
    while len(word) < length:
        s = rng.randrange(rank)
        if not word or word[-1] != s:
            word.append(s)
    return tuple(word)


def _word_arg(word) -> str:
    return " ".join(str(s + 1) for s in word)


def build_context(cox, system: str):
    """The CoxeterContext of a catalog name or of one of the MATRICES."""
    spec = MATRICES.get(system)
    if spec is not None:
        return cox.CoxeterContext(spec)
    return cox.CoxeterContext.from_name(system)


class Inputs:
    """The benchmark's own contexts: they generate the inputs and check the outputs.

    They are built from the first import of coxcent and are never handed to a
    timed job, so the timed contexts start exactly as cold as set-up leaves them.
    """

    def __init__(self, cox):
        self.cox = cox
        self._contexts: dict = {}
        self._rhos: dict = {}

    def context(self, system: str):
        ctx = self._contexts.get(system)
        if ctx is None:
            ctx = self._contexts[system] = build_context(self.cox, system)
        return ctx

    def rho_words(self, system: str) -> list[tuple[int, ...]]:
        """Longest-element words of every (-1)-type subset, shortest first."""
        rhos = self._rhos.get(system)
        if rhos is None:
            ctx = self.context(system)
            cox = self.cox
            rhos = []
            for mask in range(1, 1 << ctx.rank):
                subset = frozenset(s for s in range(ctx.rank) if mask >> s & 1)
                if cox.is_minus_one_type(ctx, subset):
                    rhos.append(cox.longest_element(ctx, subset).word)
            rhos.sort(key=lambda w: (len(w), w))
            self._rhos[system] = rhos
        return rhos

    def involution_word(self, rng, system: str, slot: int, slots: int, length: int):
        """x . rho_J . x^-1 with x random; J is spread evenly over the (-1)-type list."""
        rhos = self.rho_words(system)
        rho = rhos[(slot * len(rhos)) // slots]
        x = _random_word(rng, self.context(system).rank, length)
        return x + rho + x[::-1]

    def certificate_error(self, system: str, subset, conjugator, word) -> str | None:
        """Re-run InvolutionCertificate.verify on a certificate read back from output."""
        cox = self.cox
        ctx = self.context(system)
        cert = cox.InvolutionCertificate(
            subset=frozenset(subset), conjugator=ctx.element(conjugator), steps=()
        )
        if not cert.verify(ctx.element(word)):
            return "certificate fails verify"
        return None


def _system_argv(system: str) -> list[str]:
    path = MATRIX_FILES.get(system)
    return ["--matrix", str(path)] if path is not None else ["--type", system]


def _run_cli(cli, argv) -> JobOutput:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse errors exit; the job then fails its check
            code = exc.code
    return JobOutput(code, out.getvalue())


def _parse_word(text: str) -> tuple[int, ...]:
    return tuple(int(t) - 1 for t in text.split())


class CliWorkload:
    """A workload whose jobs are coxcent CLI calls; the digest hashes their stdout."""

    @staticmethod
    def run(cox, job: Job) -> JobOutput:
        return _run_cli(cox.cli, job.argv)

    @staticmethod
    def digest_bytes(out: JobOutput) -> bytes:
        return out.stdout.encode()


# --- verify-finite -----------------------------------------------------------


class VerifyFinite(CliWorkload):
    """`coxcent verify` on H3, B4 (field degree 4) and A5, D5 (degree 1), all four suites."""

    name = "verify-finite"
    systems = ("H3", "B4", "A5", "D5")
    suites = ("prop1", "prop2", "main", "classes")
    warmup = ("H3", "prop2")  # the cheapest job

    @staticmethod
    def _job(system, suite):
        return Job("verify", system, None,
                   ("verify", "--type", system, "--suite", suite, "--json"))

    def make_jobs(self, inputs: Inputs, seed: int) -> list[Job]:
        jobs = [self._job(t, s) for t in self.systems for s in self.suites]
        random.Random(seed).shuffle(jobs)
        return jobs

    def setup(self, cox, jobs):
        for system in self.systems:
            build_context(cox, system)
        self.run(cox, self._job(*self.warmup))
        return cox

    @staticmethod
    def check(inputs: Inputs, job: Job, out: JobOutput) -> str | None:
        if out.code != 0:
            return f"exit code {out.code}"
        doc = json.loads(out.stdout)
        suite = job.argv[4]
        if doc.get("failures") != []:
            return f"failures reported: {doc.get('failures')!r}"
        expected = VERIFY_COUNTS[(job.system, suite)]
        if doc.get("instances_checked") != expected:
            return f"instances_checked {doc.get('instances_checked')} != {expected}"
        return None


# --- certify-infinite ----------------------------------------------------------


class CertifyInfinite:
    """Warm contexts; each job is element(word) -> involution_certificate -> verify."""

    name = "certify-infinite"
    systems = ("Atilde4", "E8", "H4", "inf4", "deg12")
    # x lengths per system: the infinite-bond and degree-12 systems grow
    # coefficients quickly with length, so their words stay shorter
    lengths = {
        "Atilde4": (4, 8, 12, 16, 20, 24),
        "E8": (4, 8, 12, 16, 20, 24),
        "H4": (4, 8, 12, 16),
        "inf4": (2, 3, 4, 5, 6),
        "deg12": (2, 3, 4),
    }
    per_system = 200

    def make_jobs(self, inputs: Inputs, seed: int) -> list[Job]:
        rng = random.Random(seed)
        jobs = []
        for i in range(self.per_system):
            for system in self.systems:
                lengths = self.lengths[system]
                word = inputs.involution_word(rng, system, i, self.per_system,
                                              lengths[i % len(lengths)])
                jobs.append(Job("certify", system, word, None))
        return jobs

    def setup(self, cox, jobs):
        state = (cox, {system: build_context(cox, system) for system in self.systems})
        for system in self.systems:  # warm-up: the first job of each system
            self.run(state, next(j for j in jobs if j.system == system))
        return state

    @staticmethod
    def run(state, job: Job):
        cox, contexts = state
        w = contexts[job.system].element(job.word)
        cert = cox.involution_certificate(w)
        return w, cert, cert.verify(w)

    @staticmethod
    def check(inputs: Inputs, job: Job, out) -> str | None:
        w, cert, ok = out
        if not ok:
            return "job's own verify returned False"
        if not cert.verify(w):
            return "certificate fails verify on re-run"
        return None

    @staticmethod
    def digest_bytes(out) -> bytes:
        w, cert, ok = out
        return (f"{_word_arg(w.word)}|{sorted(cert.subset)}|"
                f"{_word_arg(cert.conjugator.word)}|{list(cert.steps)}|{ok}\n").encode()


# --- cli-oneshot ---------------------------------------------------------------


class CliOneshot(CliWorkload):
    """Short CLI calls that each build their context from scratch."""

    name = "cli-oneshot"
    reduce_systems = ("E8", "H4", "Atilde4", "I2(12)", "deg12")
    involution_systems = ("E7", "F4", "H4", "E8")
    centralizer_systems = ("A3", "B3", "H3", "D4", "A4")
    overcap_system = "Atilde2"
    overcap_cap = 1000
    reduce_length = 40
    involution_lengths = (4, 8, 12, 16)
    centralizer_lengths = (2, 3, 4, 5)
    # one block: 9 reduce (R), 6 involution-nf (I), 4 centralizer (C) and one
    # over-cap centralizer (O), i.e. 45/30/20/5 %
    block = "RIRCRIRIRCRIRCRIRCIO"
    blocks = 10

    def make_jobs(self, inputs: Inputs, seed: int) -> list[Job]:
        rng = random.Random(seed)
        jobs = []
        slot = {"R": 0, "I": 0, "C": 0, "O": 0}
        for kind in self.block * self.blocks:
            k = slot[kind]
            slot[kind] += 1
            if kind == "R":
                system = self.reduce_systems[k % len(self.reduce_systems)]
                word = _random_word(rng, inputs.context(system).rank, self.reduce_length)
                jobs.append(self._job("reduce", system, word))
            elif kind == "I":
                system = self.involution_systems[k % len(self.involution_systems)]
                total = self.blocks * self.block.count("I")
                word = inputs.involution_word(
                    rng, system, k, total,
                    self.involution_lengths[k % len(self.involution_lengths)])
                jobs.append(self._job("involution-nf", system, word))
            elif kind == "C":
                system = self.centralizer_systems[k % len(self.centralizer_systems)]
                total = self.blocks * self.block.count("C")
                word = inputs.involution_word(
                    rng, system, k, total,
                    self.centralizer_lengths[k % len(self.centralizer_lengths)])
                jobs.append(self._job("centralizer", system, word))
            else:
                word = inputs.involution_word(rng, self.overcap_system, k, self.blocks, 5)
                jobs.append(self._job("overcap", self.overcap_system, word,
                                      ("--max-order", str(self.overcap_cap))))
        return jobs

    @staticmethod
    def _job(kind, system, word, extra=()):
        command = "centralizer" if kind == "overcap" else kind
        argv = (command, *_system_argv(system), "--word", _word_arg(word), *extra, "--json")
        return Job(kind, system, word, argv)

    def setup(self, cox, jobs):
        systems = (self.reduce_systems + self.involution_systems
                   + self.centralizer_systems + (self.overcap_system,))
        for system in systems:
            build_context(cox, system)
        for kind in ("reduce", "involution-nf", "centralizer"):  # warm-up
            self.run(cox, next(j for j in jobs if j.kind == kind))
        return cox

    @staticmethod
    def check(inputs: Inputs, job: Job, out: JobOutput) -> str | None:
        expected_code = 1 if job.kind == "overcap" else 0
        if out.code != expected_code:
            return f"exit code {out.code}, expected {expected_code}"
        doc = json.loads(out.stdout)
        ctx = inputs.context(job.system)
        if job.kind == "reduce":
            nf = _parse_word(doc["normal_form"])
            if doc["length"] != len(nf):
                return "length disagrees with the normal form"
            if ctx.element(nf).word != nf:
                return "normal form is not its own normal form"
            if not ctx.element(job.word + nf[::-1]).is_identity:
                return "input * normal_form^-1 is not the identity"
            return None
        if job.kind == "involution-nf":
            if not all(doc["checks"].values()):
                return f"CLI checks failed: {doc['checks']}"
            cert = (doc["I"], doc["u"])
        else:
            if job.kind == "centralizer":
                if doc.get("brute_force_match") is not True:
                    return "brute_force_match is not true"
                if doc["centralizer_order"] != len(doc["centralizer_elements"]):
                    return "centralizer_order disagrees with the element list"
            elif "cap" not in doc.get("error", ""):
                return "over-cap job did not report the enumeration cap"
            cert = (doc["certificate"]["I"], doc["certificate"]["u"])
        subset, u = cert
        return inputs.certificate_error(job.system, [s - 1 for s in subset],
                                        _parse_word(u), job.word)


WORKLOADS = {w.name: w for w in (VerifyFinite(), CertifyInfinite(), CliOneshot())}
