"""Command-line front end.

Grammar::

    minuscule root minuscule --type A --rank 3
    minuscule paths enumerate|rotate|orbits --type A --rank 1 --weights 1,1,1,1 [--ell N]
    minuscule tableau promote|from-path|to-path [--input FILE]
    minuscule crystal invariants|rotate --type ... --rank ... --weights ... [--input FILE]
    minuscule kostka --shape 2,2 --content 1,1,1,1 [--oracle]
    minuscule csp check --type A --rank 1 --weights 1,1,1,1 --ell 1 [--poly C0,C1,...]
    minuscule battery [--scope quick|full]

Weight sequences are comma-separated fundamental-weight indices, 1-based,
Bourbaki numbering.  Structured output is JSON on stdout; exit codes are
0 for success or a passing verification, 1 for a verification failure,
2 for invalid input.  Every output is exact and byte-deterministic.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import battery as battery_mod
from . import crystals, csp, kostka, paths, rootsys, tableaux
from .errors import MinusculeError
from .paths import LittelmannPath, WeightSequence
from .poly import IntPolynomial


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _cap(text: str) -> int:
    """A search cap: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid cap {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"cap must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="minuscule", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_flags(p, weights=True):
        p.add_argument("--type", required=True, dest="family",
                       help="root-system family letter, A..G")
        p.add_argument("--rank", required=True, type=int)
        if weights:
            p.add_argument("--weights", required=True,
                           help="comma-separated fundamental-weight indices")

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--cap", type=_cap, default=None,
                       help="enumeration/orbit size cap, at least 1")

    root = sub.add_parser("root", help="root-system queries")
    root_sub = root.add_subparsers(dest="subcommand", required=True)
    root_min = root_sub.add_parser("minuscule", help="list the minuscule fundamental weights")
    add_type_flags(root_min, weights=False)
    add_common(root_min)

    pth = sub.add_parser("paths", help="dominant-path operations")
    pth_sub = pth.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (("enumerate", "list all paths of the type"),
                            ("rotate", "rotate one path, read from --input"),
                            ("orbits", "rotation orbits and fixed-point counts")):
        p = pth_sub.add_parser(name, help=help_text)
        add_type_flags(p)
        add_common(p)
        if name == "rotate":
            p.add_argument("--input", default="-", help="path JSON file, - for stdin")
        if name == "orbits":
            p.add_argument("--ell", type=int, default=1)

    tab = sub.add_parser("tableau", help="tableau operations")
    tab_sub = tab.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (("promote", "jeu-de-taquin promotion"),
                            ("from-path", "tableau of a path"),
                            ("to-path", "path of a tableau")):
        p = tab_sub.add_parser(name, help=help_text)
        p.add_argument("--input", default="-", help="JSON file, - for stdin")
        add_common(p)
        if name == "from-path":
            add_type_flags(p)

    cry = sub.add_parser("crystal", help="tensor-crystal operations")
    cry_sub = cry.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (("invariants", "highest-weight elements of weight zero"),
                            ("rotate", "commutor rotation of one element")):
        p = cry_sub.add_parser(name, help=help_text)
        add_type_flags(p)
        add_common(p)
        if name == "rotate":
            p.add_argument("--input", default="-", help="element JSON file, - for stdin")

    kst = sub.add_parser("kostka", help="Kostka-Foulkes polynomial")
    kst.add_argument("--shape", required=True, help="comma-separated partition")
    kst.add_argument("--content", required=True, help="comma-separated content vector")
    kst.add_argument("--oracle", action="store_true",
                     help="use the alternating-sum route instead of charge")
    kst.add_argument("--format", choices=("json", "csv", "text"), default="text")
    kst.add_argument("--cap", type=_cap, default=None)

    csp_cmd = sub.add_parser("csp", help="cyclic-sieving verification")
    csp_sub = csp_cmd.add_subparsers(dest="subcommand", required=True)
    chk = csp_sub.add_parser("check", help="verify the sieving triple")
    add_type_flags(chk)
    chk.add_argument("--ell", type=int, default=1)
    chk.add_argument("--poly", default=None,
                     help="comma-separated coefficients, ascending; omit for the "
                          "automatic type-A polynomial")
    add_common(chk)

    bat = sub.add_parser("battery", help="run the property battery")
    bat.add_argument("--scope", choices=("quick", "full"), default="quick")
    bat.add_argument("--seed", type=int, default=0)
    add_common(bat)

    return parser


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad {what} {text!r}: {exc}") from exc
    if not values:
        raise _UsageError(f"{what} must be non-empty")
    return values


def _sequence(args) -> WeightSequence:
    rs = rootsys.build_root_system(args.family, args.rank)
    indices = _parse_ints(args.weights, "--weights")
    weights = tuple(rs.fundamental_weight(i) for i in indices)
    return WeightSequence(rs, weights)


def _read_json(source: str, stdin):
    if source == "-":
        text = stdin.read()
    else:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"invalid JSON input: {exc}") from exc


def _path_from_json(seq: WeightSequence, data) -> LittelmannPath:
    if isinstance(data, dict):
        if "type" in data:
            declared = tuple(tuple(w) for w in data["type"])
            if declared != seq.weights:
                raise _UsageError("path type in the input disagrees with --weights")
        points = data["points"]
    else:
        points = data
    return LittelmannPath(seq, tuple(tuple(p) for p in points))


def _emit(args, payload, out, csv_rows=None):
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        print(json.dumps(payload), file=out)
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else [[json.dumps(payload)]]
        for row in rows:
            print(",".join(str(x) for x in row), file=out)
    else:
        print(payload if isinstance(payload, str) else json.dumps(payload), file=out)


def _cmd_root(args, out):
    rs = rootsys.build_root_system(args.family, args.rank)
    weights = rootsys.minuscule_weights(rs)
    payload = {
        "type": str(rs),
        "minuscule_indices": [w.index(1) + 1 for w in weights],
        "minuscule_weights": [list(w) for w in weights],
    }
    _emit(args, payload, out, csv_rows=[[w.index(1) + 1] for w in weights])
    return 0


def _cmd_paths(args, out, stdin):
    seq = _sequence(args)
    if args.subcommand == "enumerate":
        cap = paths.DEFAULT_PATH_CAP if args.cap is None else args.cap
        found = paths.enumerate_paths(seq, cap=cap)
        payload = [p.to_json_dict() for p in found]
        rows = [[c for point in p.points for c in point] for p in found]
        _emit(args, payload, out, csv_rows=rows)
        return 0
    if args.subcommand == "rotate":
        path = _path_from_json(seq, _read_json(args.input, stdin))
        _emit(args, paths.rotate(path).to_json_dict(), out)
        return 0
    structure = paths.orbit_structure(seq, args.ell)
    rows = [structure.fixed_counts]
    _emit(args, structure.to_json_dict(), out, csv_rows=rows)
    return 0


def _cmd_tableau(args, out, stdin):
    if args.subcommand == "from-path":
        seq = _sequence(args)
        path = _path_from_json(seq, _read_json(args.input, stdin))
        t = tableaux.path_to_tableau(path)
        _emit(args, t.to_json_list(), out, csv_rows=t.rows)
        return 0
    data = _read_json(args.input, stdin)
    t = tableaux.RowStrictTableau(tuple(tuple(row) for row in data))
    if args.subcommand == "promote":
        promoted = tableaux.promote(t)
        _emit(args, promoted.to_json_list(), out, csv_rows=promoted.rows)
        return 0
    path = tableaux.tableau_to_path(t)
    _emit(args, path.to_json_dict(), out)
    return 0


def _cmd_crystal(args, out, stdin):
    seq = _sequence(args)
    if args.subcommand == "invariants":
        cap = crystals.DEFAULT_NODE_CAP if args.cap is None else args.cap
        elements = crystals.invariant_elements(seq, cap=cap)
        payload = [b.to_json_dict() for b in elements]
        rows = [[c for f in b.factors for c in f] for b in elements]
        _emit(args, payload, out, csv_rows=rows)
        return 0
    data = _read_json(args.input, stdin)
    element = crystals.TensorCrystalElement(
        seq, tuple(tuple(f) for f in data["factors"]))
    _emit(args, crystals.commutor_rotate(element).to_json_dict(), out)
    return 0


def _cmd_kostka(args, out):
    shape = _parse_ints(args.shape, "--shape")
    content = _parse_ints(args.content, "--content")
    compute = kostka.q_kostant if args.oracle else kostka.kostka_foulkes
    polynomial = compute(shape, content)
    if args.format == "json":
        print(json.dumps(list(polynomial.coeffs)), file=out)
    elif args.format == "csv":
        print(",".join(str(c) for c in polynomial.coeffs), file=out)
    else:
        print(polynomial, file=out)
    return 0


def _cmd_csp(args, out):
    seq = _sequence(args)
    poly = None
    if args.poly is not None:
        poly = IntPolynomial(_parse_ints(args.poly, "--poly"))
    report = csp.csp_check(seq, args.ell, poly)
    _emit(args, report.to_json_dict(), out,
          csv_rows=[report.fixed_counts, [int(b) for b in report.evaluations_ok]])
    return 0 if report.verdict == "pass" else 1


def _cmd_battery(args, out):
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


def run(argv, stdout=None, stderr=None, stdin=None) -> int:
    """Dispatch one invocation; returns the exit code instead of exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    inp = stdin if stdin is not None else sys.stdin
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "root":
            return _cmd_root(args, out)
        if args.command == "paths":
            return _cmd_paths(args, out, inp)
        if args.command == "tableau":
            return _cmd_tableau(args, out, inp)
        if args.command == "crystal":
            return _cmd_crystal(args, out, inp)
        if args.command == "kostka":
            return _cmd_kostka(args, out)
        if args.command == "csp":
            return _cmd_csp(args, out)
        return _cmd_battery(args, out)
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        parser.print_usage(err)
        return 2
    except (MinusculeError, FileNotFoundError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
