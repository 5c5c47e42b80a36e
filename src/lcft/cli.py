"""Batch front end: descriptor files in, tables and verdicts out.

Usage: ``lcft COMMAND CONFIG [--json] [--seed N] [--samples N]
[--precision N]``.

The config is a line-based key=value file describing one extension
(p, t, f, e, u0, precision) plus optional defaults for seed and samples
and the ``hasse`` character index; any other key, a key given twice, or
a non-integer value of any key but u0 is a config error that names the
file and line; ``parse_config`` stores those values as ints, so nothing
downstream parses them again. Every integer, in the config, in u0 and
in the --seed, --samples and --precision flags, is ASCII digits with an
optional sign (``ffield.parse_int``): "1_3" and the digits of other
scripts, which ``int()`` reads, are refused. u0 is written as g^k, g,
an integer or a comma-separated coefficient list; any other text is an
invalid descriptor whose message quotes it and lists those forms.
A flag wins over the config, which wins over the default: precision
``series.DEFAULT_PRECISION`` (32), seed 0, samples 100. Each command
builds one payload and prints it through ``_report``: under --json as
one JSON object led by the descriptor, else as text lines drawn from
the same values. Exit codes: 0 success,
1 descriptor validation failure, 2 property failure (a failed check, a
``recip`` row where the search disagrees, or a ValueError,
ArithmeticError or AssertionError raised by the computation; a
ValueError or ArithmeticError raised inside a check of ``check`` is
that check's FAIL line, "raised <Type>: <message>", and the other
checks still run, while any other such raise is reported as one stderr
line), 3 I/O or parse failure, malformed arguments, a config error, a
``samples`` below 1 or a ``character`` index out of range (both
``InputError``) and a reader that closed the output pipe included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import brauer, checks, reciprocity as rc
from .extension import TameAbelianExtension
from .ffield import parse_int
from .series import DEFAULT_PRECISION

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PROPERTY = 2
EXIT_IO = 3

CONFIG_KEYS = ("p", "t", "f", "e", "u0", "precision", "seed", "samples",
               "character")


class InputError(ValueError):
    """A bad value from outside the library, a flag or a config setting:
    exit 3, where a ValueError from the computation itself exits 2."""


def parse_config(path: str) -> dict:
    raw = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            # every key but u0 holds an int, parsed here once
            try:
                raw[key] = value if key == "u0" else parse_int(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: key {key!r} must be "
                                 f"an integer, got {value!r}") from None
    return raw


def _setting(flag, raw, key, default):
    """A flag's value, else the config's, else the default."""
    return flag if flag is not None else raw.get(key, default)


def build_extension(raw: dict, precision_override=None) -> TameAbelianExtension:
    try:
        p, t, f, e = raw["p"], raw["t"], raw["f"], raw["e"]
    except KeyError as exc:
        raise ValueError(f"missing descriptor key: {exc}") from exc
    return TameAbelianExtension.from_parameters(
        p, t, f, e, raw.get("u0", "1"),
        _setting(precision_override, raw, "precision", DEFAULT_PRECISION))


def _report(ext, args, out, payload, lines, code=EXIT_OK):
    """Print one command's result and return its exit code: under --json
    the payload led by the descriptor, else the text lines."""
    if args.json:
        out(json.dumps({"descriptor": ext.descriptor(), **payload}, indent=2))
    else:
        for line in lines:
            out(line)
    return code


def _galois_json(g) -> dict:
    return {"a": g.a, "c": str(g.c)}


def _class_json(b) -> dict:
    return {"valuation": b.valuation, "unit": str(b.unit)}


def cmd_validate(ext, raw, args, out):
    payload = {
        "modulus": ext.tower.modulus_str(),
        "generator_order": ext.tower.order,
        "degree": ext.degree,
        "structure": list(ext.structure()),
    }
    return _report(ext, args, out, payload, [
        f"valid extension: degree {ext.degree} "
        f"(e={ext.e}, f={ext.f}) over F_{ext.q}((t))",
        f"residue modulus over F_{ext.p}: {payload['modulus']}",
        f"galois structure: {payload['structure']}"])


def cmd_galois(ext, raw, args, out):
    group = ext.galois_group()
    payload = {
        "order": len(group),
        "structure": list(ext.structure()),
        "elements": [_galois_json(g) for g in group],
        "ramification": {
            str(i): [_galois_json(g) for g in ext.ramification_group(i)]
            for i in (-1, 0, 1)},
    }
    return _report(ext, args, out, payload, [
        f"galois group of order {len(group)}, "
        f"structure {payload['structure']}",
        *(f"  (a={row['a']}, c={row['c']})" for row in payload["elements"]),
        *(f"  |G_{i}| = {len(rows)}"
          for i, rows in payload["ramification"].items())])


def cmd_recip(ext, raw, args, out):
    invariants = list(rc.norm_group(ext).invariant_factors)
    # a row agrees when the search matched at v, v + f and v + 2f
    table = [{
        **_class_json(b),
        "galois": _galois_json(closed),
        "search_agrees": not mismatches,
    } for b, closed, mismatches in checks.oracle_table(ext)]
    lines = [f"reciprocity table over {len(table)} classes "
             f"(norm group {invariants}):"]
    for row in table:
        mark = "" if row["search_agrees"] else "   <- MISMATCH"
        lines.append(f"  u={row['unit']} t^{row['valuation']} -> "
                     f"(a={row['galois']['a']}, c={row['galois']['c']}){mark}")
    agree = all(row["search_agrees"] for row in table)
    return _report(ext, args, out,
                   {"norm_group_invariants": invariants, "table": table},
                   lines, EXIT_OK if agree else EXIT_PROPERTY)


def cmd_norm_group(ext, raw, args, out):
    pres = rc.norm_group(ext)
    payload = {
        "subfield_generator": str(pres.subfield_generator),
        "generator_rows": [list(r) for r in pres.generator_rows],
        "relation_matrix": [list(r) for r in pres.relation_matrix],
        "invariant_factors": list(pres.invariant_factors),
        "quotient_order": pres.quotient_order,
        "coset_representatives": [
            _class_json(b) for b in pres.coset_representatives],
    }
    return _report(ext, args, out, payload, [
        f"norm image generators (valuation, unit dlog): "
        f"{payload['generator_rows']}",
        f"K*/N invariant factors: {payload['invariant_factors']} "
        f"(order {pres.quotient_order})"])


def cmd_hasse(ext, raw, args, out):
    chars = brauer.character_group(ext)
    if "character" in raw:
        index = raw["character"]
        if not 0 <= index < len(chars):
            raise InputError(f"character index {index} out of range "
                             f"(only {len(chars)} characters)")
    else:
        # default: a character of maximal order (faithful when cyclic)
        index = max(range(len(chars)), key=lambda i: chars[i].order())
    chi = chars[index]
    sigma = ext.residue_frobenius_lift()
    table = []
    for b in rc.norm_group(ext).coset_representatives:
        inv = brauer.hasse_invariant(chi, b)
        table.append({
            "b": _class_json(b),
            "invariant_numerator": inv.numerator,
            "invariant_denominator": inv.denominator,
        })
    payload = {
        "character_index": index,
        "character_order": chi.order(),
        "chi_generator_value": str(chi(sigma)),
        "table": table,
    }
    return _report(ext, args, out, payload, [
        f"hasse invariants for character #{index} (order {chi.order()}):",
        *(f"  (v={row['b']['valuation']}, u={row['b']['unit']}) -> "
          f"{row['invariant_numerator']}/{row['invariant_denominator']}"
          for row in table)])


def cmd_check(ext, raw, args, out):
    seed = _setting(args.seed, raw, "seed", 0)
    samples = _setting(args.samples, raw, "samples", 100)
    if samples < 1:
        raise InputError("samples must be positive")
    results = checks.run_checks(ext, samples=samples, seed=seed)
    passed = all(r.passed for r in results)
    payload = {
        "seed": seed,
        "samples": samples,
        "passed": passed,
        "results": [{"name": r.name, "passed": r.passed,
                     "detail": r.detail} for r in results],
    }
    # the text header names all that reproduces the run; --json carries
    # the same values as its descriptor, seed and samples
    descriptor = ", ".join(f"{k}={v}" for k, v in ext.descriptor().items())
    return _report(ext, args, out, payload, [
        f"property suite on {descriptor} (seed={seed}, samples={samples}):",
        *("  " + r.line() for r in sorted(results, key=lambda r: r.name)),
        "ALL CHECKS PASSED" if passed else "SUITE FAILED"],
        EXIT_OK if passed else EXIT_PROPERTY)


HANDLERS = {
    "validate": cmd_validate,
    "galois": cmd_galois,
    "recip": cmd_recip,
    "norm-group": cmd_norm_group,
    "hasse": cmd_hasse,
    "check": cmd_check,
}


def _int_flag(text):
    """The value of an integer flag, read by ``parse_int``; bad text gets
    argparse's own message, as ``type=int`` would."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Malformed arguments are a parse failure: exit 3, not argparse's 2,
    which ``lcft`` gives to a failed property suite."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="lcft",
        description="tame local reciprocity maps over Laurent series fields")
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("config", help="key=value descriptor file")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--seed", type=_int_flag, default=None)
    parser.add_argument("--samples", type=_int_flag, default=None)
    parser.add_argument("--precision", type=_int_flag, default=None)
    args = parser.parse_args(argv)

    try:
        raw = parse_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        ext = build_extension(raw, args.precision)
    except ValueError as exc:
        print(f"invalid extension: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        code = HANDLERS[args.command](ext, raw, args, print)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, AssertionError) as exc:
        # a property that breaks mid-computation, not a bad input
        print(f"property failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_PROPERTY
    except BrokenPipeError:
        # the reader closed stdout (``lcft ... | head``): what is still
        # buffered goes to devnull, so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
