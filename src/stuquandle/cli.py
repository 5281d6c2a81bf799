"""Command-line interface.

Exit codes: 0 success, 1 malformed input or usage error, both raised as
ValueError (or stdout closed before all output was written, as by `| head`;
no error line then), 2 axiom or closure violation (with a witness on
stderr), 3 unknown fixture; each error class in `errors` declares its code.
Identical invocations produce byte-identical stdout; the optional
--report file additionally records inputs digest and timing.

Every command is one entry of `_COMMANDS`, which drives both the parser and
the dispatch. A call builds only the parser of the command it names: building
every command's parser takes longer than a small job. Help, an unknown
command and every usage error re-parse with the full tree, so their text and
exit codes come from the one parser that knows every command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from . import catalog, formats
from .algebra import Subset, affine_stuquandle, alexander_stuquandle
from .errors import StuquandleError
from .polynomial import stuquandle_polynomial, substuquandle_polynomial
from .presentation import compare_invariants, enumerate_colorings, phi_invariant
from .rna import arc_presentation, folding_invariant

_USAGE_EXIT = 1
_VIOLATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for axiom
    # violations, so a usage problem is a ValueError, exit 1
    def error(self, message):
        raise ValueError(message)


def _parse_elements(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad element list {text!r}") from exc


# A runner gets the parsed arguments, the output lines to extend and `load`,
# which records an input path for the report; it returns only a nonzero exit code.

def _verify(args, out, load):
    X = formats.load_stuquandle(load(args.stuquandle))
    out.append(f"valid stuquandle: n={X.n}, 13 axioms hold")


def _make_affine(args, out, load):
    X = affine_stuquandle(args.n, args.a, args.b, args.e)
    out.append(json.dumps(formats.stuquandle_to_dict(X), indent=2))


def _make_alexander(args, out, load):
    coeffs = _parse_elements(args.coeffs)
    if len(coeffs) != 6:
        raise ValueError("--coeffs needs exactly six integers a,b,c,d,e,f")
    X = alexander_stuquandle(args.n, args.t, args.v, *coeffs)
    out.append(json.dumps(formats.stuquandle_to_dict(X), indent=2))


def _poly(args, out, load):
    X = formats.load_stuquandle(load(args.stuquandle))
    out.append(stuquandle_polynomial(X).render())


def _subpoly(args, out, load):
    X = formats.load_stuquandle(load(args.stuquandle))
    members = _parse_elements(args.subset)
    out.append(substuquandle_polynomial(Subset(X, members)).render())


def _color(args, out, load):
    P = formats.load_presentation(load(args.presentation))
    X = formats.load_stuquandle(load(args.stuquandle))
    colorings = enumerate_colorings(P, X)
    for c in colorings:
        out.append(" ".join(str(v) for v in c))
    out.append(f"count {len(colorings)}")


def _phi(args, out, load):
    P = formats.load_presentation(load(args.presentation))
    X = formats.load_stuquandle(load(args.stuquandle))
    out.append(phi_invariant(P, X).render())


def _compare(args, out, load):
    left = formats.load_presentation(load(args.left))
    right = formats.load_presentation(load(args.right))
    X = formats.load_stuquandle(load(args.stuquandle))
    out.append(json.dumps(compare_invariants(left, right, X), indent=2))


def _rna_convert(args, out, load):
    pres = arc_presentation(formats.load_arc_diagram(load(args.arc)))
    out.append(formats.presentation_text(pres))


def _rna_phi(args, out, load):
    arc = formats.load_arc_diagram(load(args.arc))
    X = formats.load_stuquandle(load(args.stuquandle))
    out.append(folding_invariant(arc, X).render())


def _catalog_show(args, out, load):
    fx = catalog.fixture(args.id)
    doc = {"id": fx.id, "kind": fx.kind,
           "payload": catalog.payload_document(fx), "expected": fx.expected}
    out.append(json.dumps(doc, indent=2))


def _catalog_check(args, out, load):
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
    return failures and _VIOLATION_EXIT


# The commands, for parsing and dispatch alike: name -> (help, runner,
# arguments) or, for a family of subcommands, name -> (help, dest, {name:
# command}). An argument "--x" is a required option, an integer unless
# _OPTIONS says otherwise.
_COMMANDS = {
    "verify": ("check all thirteen axioms of a structure file", _verify, "stuquandle"),
    "make": ("emit a structure from a parametric family", "family", {
        "affine": (None, _make_affine, "--n --a --b --e"),
        "alexander": (None, _make_alexander, "--n --t --v --coeffs"),
    }),
    "poly": ("print the ten-variable polynomial", _poly, "stuquandle"),
    "subpoly": ("print the polynomial of a closed subset", _subpoly, "stuquandle --subset"),
    "color": ("enumerate colorings of a presentation", _color, "presentation stuquandle"),
    "phi": ("print the coloring-image polynomial multiset", _phi, "presentation stuquandle"),
    "compare": ("compare two presentations over one target", _compare, "left right stuquandle"),
    "rna": ("arc diagram operations", "rna_command", {
        "convert": (None, _rna_convert, "arc"),
        "phi": (None, _rna_phi, "arc stuquandle"),
    }),
    "catalog": ("built-in fixtures", "catalog_command", {
        "list": (None, lambda args, out, load: out.extend(catalog.list_fixtures()), ""),
        "show": (None, _catalog_show, "id"),
        "check": (None, _catalog_check, ""),
    }),
}
_OPTIONS = {"--coeffs": {"help": "six comma-separated integers a,b,c,d,e,f"},
            "--subset": {"help": "comma-separated elements, e.g. 1,3"}}


def _add_command(sub, name, help, run, arguments):
    # a subcommand given no help gets no line in its family's help
    p = sub.add_parser(name, **({"help": help} if help else {}))
    if isinstance(run, str):
        family = p.add_subparsers(dest=run, required=True)
        for child, command in arguments.items():
            _add_command(family, child, *command)
        return
    for arg in arguments.split():
        if arg.startswith("--"):
            p.add_argument(arg, required=True, **_OPTIONS.get(arg, {"type": int}))
        else:
            p.add_argument(arg)
    p.set_defaults(run=run)


def _build_parser(only=None) -> _Parser:
    """The parser of every command, or of the command `only` alone."""
    parser = _Parser(prog="stuquandle", description=__doc__.splitlines()[0])
    parser.add_argument("--report", metavar="PATH", help="write a JSON run report")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        if only in (None, name):
            _add_command(sub, name, *command)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the parser of the first command named in argv alone. The
    root's options are the same in both trees, so a reduced parse that
    succeeds gives what the full tree gives; help, no named command and
    any usage error re-parse with the full tree instead."""
    name = next((a for a in argv if a in _COMMANDS), None)
    if name and not any(a.startswith(("-h", "--h")) for a in argv):
        try:
            return _build_parser(name).parse_args(argv)
        except ValueError:
            pass
    return _build_parser().parse_args(argv)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    out: list[str] = []
    inputs: list = []

    def load(path):
        inputs.append(path)
        return path

    try:
        args = _parse(argv)
        code = args.run(args, out, load) or 0
    except (StuquandleError, ValueError) as exc:
        # each package error names its own exit code; a plain ValueError is 1
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", _USAGE_EXIT)

    text = "\n".join(out)
    try:
        if text:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # exit does not raise again (the recipe of the `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _USAGE_EXIT
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
