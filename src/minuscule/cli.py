"""Command-line front end.

Grammar (``TYPE`` stands for ``--type A --rank 1 --weights 1,1,1,1``)::

    minuscule root minuscule --type E --rank 6 [--format json|csv]
    minuscule paths enumerate TYPE [--cap N] [--format json|csv]
    minuscule paths rotate TYPE [--input FILE]
    minuscule paths orbits TYPE [--ell N] [--format json|csv]
    minuscule tableau promote [--input FILE] [--format json|csv]
    minuscule tableau from-path TYPE [--input FILE] [--format json|csv]
    minuscule tableau to-path [--input FILE]
    minuscule crystal invariants TYPE [--cap N] [--format json|csv]
    minuscule crystal rotate TYPE [--input FILE]
    minuscule kostka --shape 2,2 --content 1,1,1,1 [--oracle] [--format text|json|csv]
    minuscule csp check TYPE [--ell N] [--poly C0,C1,...] [--format json|csv]
    minuscule battery [--scope quick|full] [--seed N] [--format json|text]

Each leaf subcommand above names its own handler in the parser, so argparse
alone picks the command and ``run`` only calls ``args.handler``.

Weight sequences are comma-separated fundamental-weight indices, 1-based,
Bourbaki numbering; ``--rank`` is at most ``rootsys.MAX_RANK`` (32).  Output
is JSON on stdout; ``--format`` offers only the encodings a subcommand
produces.  Exit codes are 0 for success or a passing verification, 1 for a
verification failure, 2 for invalid input, reported as one ``error:`` line
on stderr (a ``MinusculeError``, or ``--input`` data that cannot be read or
parsed; a malformed flag adds the usage line), and 3 for an internal error:
a result that failed its own invariant check (``AlgorithmInvariantViolated``)
or any other exception, reported as one JSON line on stderr with the
``error`` type, the ``argv`` and the ``message``.  Every output is exact and
byte-deterministic.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from . import battery as battery_mod
from . import crystals, csp, kostka, paths, rootsys, tableaux
from .errors import AlgorithmInvariantViolated, MinusculeError
from .paths import LittelmannPath, WeightSequence
from .poly import IntPolynomial


class _UsageError(Exception):
    pass


class _InputError(MinusculeError):
    """``--input`` data that cannot be read or is not JSON of the expected shape."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # no flag starts with a dash and a digit, so -1,0,1 is a value, as -1 is
        return None if arg_string[1:2].isdigit() else super()._parse_optional(arg_string)


def _int(text: str) -> int:
    """The one reader of a CLI integer: an optional sign and ASCII digits,
    inside any whitespace.  ``int`` alone also reads ``1_0`` as 10 and
    reads non-ASCII digits."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _cap(text: str) -> int:
    """A search cap: an integer of at least 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"cap must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="minuscule", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, help_text):
        p = sub.add_parser(name, help=help_text)
        return p.add_subparsers(dest="subcommand", required=True)

    def leaf(parent, name, help_text, handler):
        p = parent.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    def add_type_flags(p, weights=True):
        p.add_argument("--type", required=True, dest="family",
                       help="root-system family letter, A..G")
        p.add_argument("--rank", required=True, type=_int)
        if weights:
            p.add_argument("--weights", required=True,
                           help="comma-separated fundamental-weight indices")

    def add_format(p, choices=("json", "csv"), default="json"):
        p.add_argument("--format", choices=choices, default=default)

    def add_cap(p):
        p.add_argument("--cap", type=_cap, default=paths.DEFAULT_PATH_CAP,
                       help="most paths or invariants to find, at least 1")

    def add_input(p, what):
        p.add_argument("--input", default="-", help=f"{what} file, - for stdin")

    root = group("root", "root-system queries")
    p = leaf(root, "minuscule", "list the minuscule fundamental weights", _root_minuscule)
    add_type_flags(p, weights=False)
    add_format(p)

    pth = group("paths", "dominant-path operations")
    p = leaf(pth, "enumerate", "list all paths of the type", _paths_enumerate)
    add_type_flags(p)
    add_format(p)
    add_cap(p)
    p = leaf(pth, "rotate", "rotate one path, read from --input", _paths_rotate)
    add_type_flags(p)
    add_input(p, "path JSON")
    p = leaf(pth, "orbits", "rotation orbits and fixed-point counts", _paths_orbits)
    add_type_flags(p)
    add_format(p)
    p.add_argument("--ell", type=_int, default=1)

    tab = group("tableau", "tableau operations")
    p = leaf(tab, "promote", "jeu-de-taquin promotion", _tableau_promote)
    add_input(p, "JSON")
    add_format(p)
    p = leaf(tab, "from-path", "tableau of a path", _tableau_from_path)
    add_input(p, "JSON")
    add_format(p)
    add_type_flags(p)
    p = leaf(tab, "to-path", "path of a tableau", _tableau_to_path)
    add_input(p, "JSON")

    cry = group("crystal", "tensor-crystal operations")
    p = leaf(cry, "invariants", "highest-weight elements of weight zero", _crystal_invariants)
    add_type_flags(p)
    add_format(p)
    add_cap(p)
    p = leaf(cry, "rotate", "commutor rotation of one element", _crystal_rotate)
    add_type_flags(p)
    add_input(p, "element JSON")

    p = leaf(sub, "kostka", "Kostka-Foulkes polynomial", _kostka)
    p.add_argument("--shape", required=True, help="comma-separated partition")
    p.add_argument("--content", required=True, help="comma-separated content vector")
    p.add_argument("--oracle", action="store_true",
                   help="use the alternating-sum route instead of charge")
    add_format(p, ("json", "csv", "text"), default="text")

    p = leaf(group("csp", "cyclic-sieving verification"), "check",
             "verify the sieving triple", _csp_check)
    add_type_flags(p)
    p.add_argument("--ell", type=_int, default=1)
    p.add_argument("--poly", default=None,
                   help="comma-separated coefficients, ascending; omit for the "
                        "automatic type-A polynomial")
    add_format(p)

    p = leaf(sub, "battery", "run the property battery", _battery)
    p.add_argument("--scope", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=_int, default=0)
    add_format(p, ("json", "text"))

    return parser


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(_int(x) for x in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"bad {what} {text!r}: {exc}") from exc


def _sequence(args) -> WeightSequence:
    rs = rootsys.build_root_system(args.family, args.rank)
    indices = _parse_ints(args.weights, "--weights")
    weights = tuple(rs.fundamental_weight(i) for i in indices)
    return WeightSequence(rs, weights)


def _read_json(source: str, stdin):
    """Parse JSON from a file, or from ``stdin`` when ``source`` is "-"."""
    try:
        if source == "-":
            text = stdin.read()
        else:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read input {source!r}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an int literal over Python's
        # digit limit; RecursionError covers nesting too deep to decode
        raise _InputError(f"invalid JSON input: {exc}") from exc


def _path_from_json(seq: WeightSequence, data) -> LittelmannPath:
    """A path read as JSON: its point list, or an object with ``points`` and
    an optional ``type``; the constructor validates the points."""
    if isinstance(data, dict):
        if "type" in data and data["type"] != [list(w) for w in seq.weights]:
            raise _InputError("path type in the input disagrees with --weights")
        if "points" not in data:
            raise _InputError("path input has no \"points\" list")
        data = data["points"]
    return LittelmannPath(seq, data)


def _element_from_json(seq: WeightSequence, data) -> crystals.TensorCrystalElement:
    """A crystal element read as JSON, an object with a ``factors`` list;
    the constructor validates the factors."""
    if not isinstance(data, dict) or "factors" not in data:
        raise _InputError("element input is not an object with a \"factors\" list")
    return crystals.TensorCrystalElement(seq, data["factors"])


def _emit(args, payload, out, csv_rows=()):
    """JSON on stdout, or ``csv_rows`` under ``--format csv``."""
    if args.format == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row), file=out)
    else:
        print(json.dumps(payload), file=out)


def _root_minuscule(args, out, stdin):
    rs = rootsys.build_root_system(args.family, args.rank)
    weights = rootsys.minuscule_weights(rs)
    payload = {
        "type": str(rs),
        "minuscule_indices": [w.index(1) + 1 for w in weights],
        "minuscule_weights": [list(w) for w in weights],
    }
    _emit(args, payload, out, csv_rows=[[w.index(1) + 1] for w in weights])
    return 0


def _paths_enumerate(args, out, stdin):
    found = paths.enumerate_paths(_sequence(args), cap=args.cap)
    payload = [p.to_json_dict() for p in found]
    rows = [[c for point in p.points for c in point] for p in found]
    _emit(args, payload, out, csv_rows=rows)
    return 0


def _paths_rotate(args, out, stdin):
    path = _path_from_json(_sequence(args), _read_json(args.input, stdin))
    print(json.dumps(paths.rotate(path).to_json_dict()), file=out)
    return 0


def _paths_orbits(args, out, stdin):
    structure = paths.orbit_structure(_sequence(args), args.ell)
    _emit(args, structure.to_json_dict(), out, csv_rows=[structure.fixed_counts])
    return 0


def _tableau_promote(args, out, stdin):
    promoted = tableaux.promote(tableaux.RowStrictTableau(_read_json(args.input, stdin)))
    _emit(args, promoted.to_json_list(), out, csv_rows=promoted.rows)
    return 0


def _tableau_from_path(args, out, stdin):
    seq = _sequence(args)
    t = tableaux.path_to_tableau(_path_from_json(seq, _read_json(args.input, stdin)))
    _emit(args, t.to_json_list(), out, csv_rows=t.rows)
    return 0


def _tableau_to_path(args, out, stdin):
    t = tableaux.RowStrictTableau(_read_json(args.input, stdin))
    print(json.dumps(tableaux.tableau_to_path(t).to_json_dict()), file=out)
    return 0


def _crystal_invariants(args, out, stdin):
    elements = crystals.invariant_elements(_sequence(args), cap=args.cap)
    payload = [b.to_json_dict() for b in elements]
    rows = [[c for f in b.factors for c in f] for b in elements]
    _emit(args, payload, out, csv_rows=rows)
    return 0


def _crystal_rotate(args, out, stdin):
    element = _element_from_json(_sequence(args), _read_json(args.input, stdin))
    print(json.dumps(crystals.commutor_rotate(element).to_json_dict()), file=out)
    return 0


def _kostka(args, out, stdin):
    shape = _parse_ints(args.shape, "--shape")
    content = _parse_ints(args.content, "--content")
    compute = kostka.q_kostant if args.oracle else kostka.kostka_foulkes
    polynomial = compute(shape, content)
    if args.format == "text":
        print(polynomial, file=out)
    else:
        _emit(args, list(polynomial.coeffs), out, csv_rows=[polynomial.coeffs])
    return 0


def _csp_check(args, out, stdin):
    seq = _sequence(args)
    poly = None if args.poly is None else IntPolynomial(_parse_ints(args.poly, "--poly"))
    report = csp.csp_check(seq, args.ell, poly)
    _emit(args, report.to_json_dict(), out,
          csv_rows=[report.fixed_counts, [int(b) for b in report.evaluations_ok]])
    return 0 if report.verdict == "pass" else 1


def _battery(args, out, stdin):
    results = battery_mod.run_battery(args.scope, args.seed)
    payload = {
        "scope": args.scope,
        "suites": [
            {
                "name": r.name,
                "passed": r.passed,
                "checks": r.checks,
                "failures": r.failures,
            }
            for r in results
        ],
        "verdict": "pass" if all(r.passed for r in results) else "fail",
    }
    if args.format == "text":
        for r in results:
            print(f"{r.name}: {'pass' if r.passed else 'FAIL'} ({r.checks} checks)",
                  file=out)
            for f in r.failures:
                print(f"  {f}", file=out)
        print(f"battery: {payload['verdict']}", file=out)
    else:
        _emit(args, payload, out)
    return 0 if payload["verdict"] == "pass" else 1


def _internal_error(exc, argv, err) -> int:
    """Report a bug as one JSON line on stderr; exit code 3."""
    print(json.dumps({"error": type(exc).__name__, "argv": list(argv),
                      "message": str(exc)}), file=err)
    return 3


def run(argv, stdout=None, stderr=None, stdin=None) -> int:
    """Dispatch one invocation; returns the exit code instead of exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    inp = stdin if stdin is not None else sys.stdin
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, out, inp)
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        parser.print_usage(err)
        return 2
    except AlgorithmInvariantViolated as exc:  # a bug, not bad input: before MinusculeError
        return _internal_error(exc, argv, err)
    except MinusculeError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except Exception as exc:  # anything else, on any input, is a bug
        return _internal_error(exc, argv, err)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
