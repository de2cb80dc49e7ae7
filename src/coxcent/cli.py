"""coxcent: batch CLI for involution certificates and their exhaustive verification.

Commands: reduce, involution-nf, centralizer (with --word), verify (with
--suite).  A system is chosen with --type NAME (catalog grammar: A<n>, B<n>,
D<n>, E6|E7|E8, F4, H3|H4, I2(<m>), Atilde<n>) or --matrix FILE, a UTF-8 JSON
document {"rank": n, "m": [[...]]} with 0 encoding an infinite bond.
Generators are 1-based in all input and output.

Exactly one JSON document goes to standard output; diagnostics go to standard
error.  Identical inputs produce byte-identical output: every set is emitted
sorted (generator subsets ascending, element lists ShortLex) and the
algorithms take deterministic tie-breaks.  Exit status is 0 iff no check
failed and no error occurred.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import matrix_for_name
from .finite import (
    DEFAULT_ENUMERATION_CAP,
    SUITES,
    EnumerationCapExceeded,
    centralizer,
    conjugated_normalizer,
    enumerate_group,
    verify_suite,
)
from .group import CoxeterContext, word_from_string, word_to_string
from .involution import involution_certificate, is_minus_one_type


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


# the input each command takes besides its system
COMMAND_INPUT = {"reduce": "word", "involution-nf": "word", "centralizer": "word",
                 "verify": "suite"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxcent",
        description="Involution certificates and centralizer verification in Coxeter groups.",
    )
    parser.add_argument("command", choices=COMMAND_INPUT)
    system = parser.add_mutually_exclusive_group(required=True)
    system.add_argument("--type", dest="type_name", metavar="NAME")
    system.add_argument("--matrix", dest="matrix_file", metavar="FILE")
    parser.add_argument("--word", metavar="INDICES",
                        help="whitespace-separated 1-based generator indices")
    parser.add_argument("--suite", choices=SUITES)
    parser.add_argument("--max-order", type=_positive_int, default=DEFAULT_ENUMERATION_CAP,
                        metavar="N", help="enumeration cap (default %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="compact single-line JSON instead of indented")
    return parser


def _load_system(args, parser) -> tuple[CoxeterContext, str | dict]:
    if args.type_name is not None:
        try:
            return CoxeterContext(matrix_for_name(args.type_name)), args.type_name
        except ValueError as exc:
            parser.error(str(exc))
    try:
        with open(args.matrix_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        rank, m = doc["rank"], doc["m"]
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise ValueError(f"rank must be an integer, got {rank!r}")
        if len(m) != rank:
            raise ValueError(f"matrix has {len(m)} rows, declared rank {rank}")
        ctx = CoxeterContext(m)
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        parser.error(f"bad matrix file {args.matrix_file}: {exc}")
    return ctx, {"rank": rank, "m": [list(row) for row in ctx.matrix]}


def _parse_word(ctx, text, parser):
    try:
        word = word_from_string(text)
    except ValueError as exc:
        parser.error(str(exc))
    for s in word:
        if s >= ctx.rank:
            parser.error(f"bad generator index {s + 1!r}: rank is {ctx.rank}")
    return word


def _subset_out(subset) -> list[int]:
    return sorted(s + 1 for s in subset)


def _certificate_doc(cert) -> dict:
    return {
        "I": _subset_out(cert.subset),
        "u": word_to_string(cert.conjugator.word),
        "steps": [s + 1 for s in cert.steps],
    }


def _emit(doc, compact: bool) -> None:
    if compact:
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(json.dumps(doc, indent=2))


def _not_an_involution(system, el) -> tuple[dict, int]:
    return {
        "system": system,
        "error": "not an involution",
        "square_normal_form": word_to_string((el * el).word),
    }, 1


def cmd_reduce(ctx, system, word) -> tuple[dict, int]:
    el = ctx.element(word)
    doc = {
        "system": system,
        "input": word_to_string(word),
        "normal_form": word_to_string(el.word),
        "length": el.length,
        "right_descents": _subset_out(el.right_descents()),
        "left_descents": _subset_out(el.left_descents()),
    }
    return doc, 0


def cmd_involution_nf(ctx, system, word) -> tuple[dict, int]:
    el = ctx.element(word)
    try:
        cert = involution_certificate(el)
    except ValueError:  # the descent decides w^2 = 1; this is its only ValueError
        return _not_an_involution(system, el)
    u = cert.conjugator
    rho = cert.target()
    checks = {
        "minus_one_type": is_minus_one_type(ctx, cert.subset),
        "conjugation_exact": ctx.represents(u.word + el.word + u.word[::-1], rho),
    }
    doc = {
        "system": system,
        "w": word_to_string(el.word),
        "I": _subset_out(cert.subset),
        "u": word_to_string(u.word),
        "rho_I_word": word_to_string(rho.word),
        "steps": [s + 1 for s in cert.steps],
        "checks": checks,
    }
    return doc, 0 if all(checks.values()) else 1


def cmd_centralizer(ctx, system, word, cap) -> tuple[dict, int]:
    el = ctx.element(word)
    try:
        cert = involution_certificate(el)
    except ValueError:  # the descent decides w^2 = 1; this is its only ValueError
        return _not_an_involution(system, el)
    if not cert.verify(el):
        return {"system": system, "error": "certificate failed re-verification"}, 1
    try:
        group = enumerate_group(ctx, cap=cap)
    except EnumerationCapExceeded as exc:
        doc = {
            "system": system,
            "certificate": _certificate_doc(cert),
            "error": (
                f"enumeration cap of {exc.cap} exceeded; for infinite or large groups "
                "only the certificate (I, u) is available"
            ),
        }
        return doc, 1
    conjugated = conjugated_normalizer(cert, group)
    match = conjugated.indices == centralizer(el, group).indices
    doc = {
        "system": system,
        "certificate": _certificate_doc(cert),
        "centralizer_order": len(conjugated),
        "centralizer_elements": [word_to_string(e.word) for e in conjugated],
        "via": "conjugated-normalizer",
        "brute_force_match": match,
    }
    return doc, 0 if match else 1


def cmd_verify(ctx, system, suite, cap) -> tuple[dict, int]:
    try:
        group = enumerate_group(ctx, cap=cap)
    except EnumerationCapExceeded as exc:
        return {"system": system, "suite": suite,
                "error": f"enumeration cap of {exc.cap} exceeded"}, 1
    checked, failures = verify_suite(suite, group)
    doc = {
        "system": system,
        "suite": suite,
        "instances_checked": checked,
        "failures": failures,
    }
    return doc, 0 if not failures else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    needs = COMMAND_INPUT[args.command]
    if getattr(args, needs) is None:
        parser.error(f"{args.command} needs --{needs}")
    for other in set(COMMAND_INPUT.values()) - {needs}:
        if getattr(args, other) is not None:
            parser.error(f"{args.command} takes no --{other}")
    ctx, system = _load_system(args, parser)
    word = _parse_word(ctx, args.word, parser) if needs == "word" else None
    # the cmd_* names are looked up at each call, so a wrapper rebound over a
    # module global (as bench/tracer.py does) sees the call
    try:
        if args.command == "reduce":
            doc, code = cmd_reduce(ctx, system, word)
        elif args.command == "involution-nf":
            doc, code = cmd_involution_nf(ctx, system, word)
        elif args.command == "centralizer":
            doc, code = cmd_centralizer(ctx, system, word, args.max_order)
        else:
            doc, code = cmd_verify(ctx, system, args.suite, args.max_order)
    except (ValueError, ArithmeticError) as exc:
        print(f"coxcent: {exc}", file=sys.stderr)
        return 1
    _emit(doc, args.json)
    return code
