"""Command-line interface.

Exit codes: 0 success, 1 malformed input or usage error, 2 axiom or
closure violation (with a witness on stderr), 3 unknown fixture; each
error class in `errors` declares its own code.
Identical invocations produce byte-identical stdout; the optional
--report file additionally records inputs digest and timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from . import catalog, formats
from .algebra import Subset, affine_stuquandle, alexander_stuquandle
from .errors import FormatError, StuquandleError
from .polynomial import stuquandle_polynomial, substuquandle_polynomial
from .presentation import compare_invariants, enumerate_colorings, phi_invariant
from .rna import arc_presentation, folding_invariant

_USAGE_EXIT = 1
_VIOLATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # axiom violations, so remap usage problems to exit 1
    def error(self, message):
        raise FormatError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stuquandle", description=__doc__.splitlines()[0])
    parser.add_argument("--report", metavar="PATH", help="write a JSON run report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check all thirteen axioms of a structure file")
    p.add_argument("stuquandle")

    p = sub.add_parser("make", help="emit a structure from a parametric family")
    family = p.add_subparsers(dest="family", required=True)
    aff = family.add_parser("affine")
    aff.add_argument("--n", type=int, required=True)
    aff.add_argument("--a", type=int, required=True)
    aff.add_argument("--b", type=int, required=True)
    aff.add_argument("--e", type=int, required=True)
    alx = family.add_parser("alexander")
    alx.add_argument("--n", type=int, required=True)
    alx.add_argument("--t", type=int, required=True)
    alx.add_argument("--v", type=int, required=True)
    alx.add_argument("--coeffs", required=True,
                     help="six comma-separated integers a,b,c,d,e,f")

    p = sub.add_parser("poly", help="print the ten-variable polynomial")
    p.add_argument("stuquandle")

    p = sub.add_parser("subpoly", help="print the polynomial of a closed subset")
    p.add_argument("stuquandle")
    p.add_argument("--subset", required=True, help="comma-separated elements, e.g. 1,3")

    p = sub.add_parser("color", help="enumerate colorings of a presentation")
    p.add_argument("presentation")
    p.add_argument("stuquandle")

    p = sub.add_parser("phi", help="print the coloring-image polynomial multiset")
    p.add_argument("presentation")
    p.add_argument("stuquandle")

    p = sub.add_parser("compare", help="compare two presentations over one target")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("stuquandle")

    p = sub.add_parser("rna", help="arc diagram operations")
    rna = p.add_subparsers(dest="rna_command", required=True)
    conv = rna.add_parser("convert")
    conv.add_argument("arc")
    rphi = rna.add_parser("phi")
    rphi.add_argument("arc")
    rphi.add_argument("stuquandle")

    p = sub.add_parser("catalog", help="built-in fixtures")
    cat = p.add_subparsers(dest="catalog_command", required=True)
    cat.add_parser("list")
    show = cat.add_parser("show")
    show.add_argument("id")
    cat.add_parser("check")
    return parser


def _parse_elements(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise FormatError(f"bad element list {text!r}") from exc


def _run(args, out: list[str], inputs: list) -> int:
    def slurp(path):
        inputs.append(path)
        return path

    if args.command == "verify":
        X = formats.load_stuquandle(slurp(args.stuquandle))
        out.append(f"valid stuquandle: n={X.n}, 13 axioms hold")
        return 0

    if args.command == "make":
        if args.family == "affine":
            X = affine_stuquandle(args.n, args.a, args.b, args.e)
        else:
            coeffs = _parse_elements(args.coeffs)
            if len(coeffs) != 6:
                raise FormatError("--coeffs needs exactly six integers a,b,c,d,e,f")
            X = alexander_stuquandle(args.n, args.t, args.v, *coeffs)
        out.append(json.dumps(formats.stuquandle_to_dict(X), indent=2))
        return 0

    if args.command == "poly":
        X = formats.load_stuquandle(slurp(args.stuquandle))
        out.append(stuquandle_polynomial(X).render())
        return 0

    if args.command == "subpoly":
        X = formats.load_stuquandle(slurp(args.stuquandle))
        members = _parse_elements(args.subset)
        out.append(substuquandle_polynomial(Subset(X, members)).render())
        return 0

    if args.command == "color":
        P = formats.load_presentation(slurp(args.presentation))
        X = formats.load_stuquandle(slurp(args.stuquandle))
        colorings = enumerate_colorings(P, X)
        for c in colorings:
            out.append(" ".join(str(v) for v in c))
        out.append(f"count {len(colorings)}")
        return 0

    if args.command == "phi":
        P = formats.load_presentation(slurp(args.presentation))
        X = formats.load_stuquandle(slurp(args.stuquandle))
        out.append(phi_invariant(P, X).render())
        return 0

    if args.command == "compare":
        left = formats.load_presentation(slurp(args.left))
        right = formats.load_presentation(slurp(args.right))
        X = formats.load_stuquandle(slurp(args.stuquandle))
        out.append(json.dumps(compare_invariants(left, right, X), indent=2))
        return 0

    if args.command == "rna":
        if args.rna_command == "convert":
            arc = formats.load_arc_diagram(slurp(args.arc))
            pres = arc_presentation(arc)
            out.append(json.dumps(formats.presentation_to_dict(pres), indent=2))
            return 0
        arc = formats.load_arc_diagram(slurp(args.arc))
        X = formats.load_stuquandle(slurp(args.stuquandle))
        out.append(folding_invariant(arc, X).render())
        return 0

    if args.command == "catalog":
        if args.catalog_command == "list":
            out.extend(catalog.list_fixtures())
            return 0
        if args.catalog_command == "show":
            fx = catalog.fixture(args.id)
            doc = {"id": fx.id, "kind": fx.kind,
                   "payload": catalog.payload_document(fx), "expected": fx.expected}
            out.append(json.dumps(doc, indent=2))
            return 0
        with tempfile.TemporaryDirectory() as tmp:
            rows = catalog.run_golden_sweep(tmp)
        failures = 0
        for fid, name, ok, detail in rows:
            if ok:
                out.append(f"ok   {fid} {name}")
            else:
                failures += 1
                out.append(f"FAIL {fid} {name}: {detail}")
        out.append(f"{len(rows) - failures} of {len(rows)} checks passed")
        return 0 if failures == 0 else _VIOLATION_EXIT

    raise FormatError(f"unknown command {args.command!r}")


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    started = time.monotonic()
    out: list[str] = []
    inputs: list = []
    try:
        args = parser.parse_args(argv)
        code = _run(args, out, inputs)
    except (StuquandleError, ValueError) as exc:
        # each package error names its own exit code; a plain ValueError is 1
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", _USAGE_EXIT)

    text = "\n".join(out)
    if text:
        print(text)
    if args.report:
        report = {
            "command": argv,
            "inputs": {str(p): _digest(p) for p in inputs},
            "outputs": out,
            "elapsed_seconds": time.monotonic() - started,
        }
        try:
            Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return _USAGE_EXIT
    return code


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
