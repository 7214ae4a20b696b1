"""Command line front end.

JSON goes to stdout and is byte-stable for a fixed input; the human
summary goes to stderr.  Exit codes: 0 computed, 2 inconclusive or
unproven outcomes present, 3 soundness alarm, 4 input error, a malformed
command line included.

The theorem deciders (analysis) and the built-in corpus (fixtures) are
imported by the commands that use them, so a call loads only the
modules its command runs.
"""

import argparse
import hashlib
import json
import sys

from .closures import integral_closure_module, ratliff_rush_module
from .errors import (DeadlineExceeded, InputError, ReescalcError,
                     SoundnessAlert, UnstableChainError)
from .problem import parse_problem
from .groebner import contains
from .rees import INFINITE, fitting_ideal, is_parameter_module, maximal_ideal

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_SOUNDNESS = 3
EXIT_INPUT = 4

COMMANDS = ("rr", "iclose", "br", "thm12", "buchsbaum", "fitting", "param",
            "indec", "fixtures")


def _jsonable(value):
    if value is INFINITE:
        return "INFINITE"
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _generator_lists(U):
    if U.rank == 1:
        return [str(g[0]) for g in U.gens]
    return [[str(p) for p in g] for g in U.gens]


def _closure_payload(res):
    result = {
        "generators": _generator_lists(res.submodule),
        "method": res.method,
        "stabilization_index": res.stabilization_index,
        "window": res.window,
    }
    result.update(_jsonable(res.extra))
    certification = {"certified": res.certified, "method": res.method}
    return result, certification


def _run_rr(problem, opts, n_max):
    E = problem.embedding()
    res = ratliff_rush_module(E, 1, opts)
    result, certification = _closure_payload(res)
    return result, certification, [], EXIT_OK


def _run_iclose(problem, opts, n_max):
    E = problem.embedding()
    res = integral_closure_module(E, candidates=problem.candidate_columns()
                                  or None, opts=opts)
    result, certification = _closure_payload(res)
    warnings = []
    if not res.certified:
        warnings.append("closure is candidate-verified, not proved maximal")
    return result, certification, warnings, EXIT_OK


def _run_br(problem, opts, n_max):
    from .analysis import br_coefficients
    B = br_coefficients(problem.embedding(), n_max=n_max)
    return B, {"certified": True}, [], EXIT_OK


def _run_thm12(problem, opts, n_max):
    from .analysis import theorem12_check
    E = problem.embedding()
    rep = theorem12_check(E, n_max=n_max,
                          candidates=problem.candidate_columns() or None,
                          opts=opts)
    certification = rep["certification"]
    status = EXIT_INCONCLUSIVE if certification["inconclusive"] else EXIT_OK
    return _jsonable(rep), _jsonable(certification), rep["warnings"], status


def _run_buchsbaum(problem, opts, n_max):
    from .analysis import buchsbaum_check
    check = buchsbaum_check(problem.embedding(),
                            candidates=problem.candidate_columns() or None,
                            opts=opts)
    certification = {"certified": check.pop("certified"),
                     "method": check.pop("closure_method")}
    return _jsonable(check), certification, [], EXIT_OK


def _run_fitting(problem, opts, n_max):
    E = problem.embedding()
    ideals = {}
    for i in range(E.rank):
        ideals[str(i)] = _generator_lists(fitting_ideal(E, i))
    return {"fitting_ideals": ideals}, {"certified": True}, [], EXIT_OK


def _run_param(problem, opts, n_max):
    E = problem.embedding()
    verdict, reasons = is_parameter_module(E)
    result = {"verdict": verdict, "reasons": _jsonable(reasons)}
    # F/M of finite length l is supported at the origin alone iff
    # m^l * F lies in M; otherwise mu and inside_mF, read at the origin,
    # and the colength, summed over every point, do not meet.
    if not reasons["finite_colength"] or contains(
            E.submodule(), maximal_ideal(E.ctx, E.rank, reasons["colength"])):
        return result, {"certified": True}, [], EXIT_OK
    return result, {"certified": False}, [
        "the module is supported away from the origin: mu and inside_mF "
        "are read at the origin, the colength over every point of the "
        "support, so the verdict mixes a local and a global reading"
    ], EXIT_INCONCLUSIVE


def _run_indec(problem, opts, n_max):
    from .analysis import indecomposability_check
    E = problem.embedding()
    check = indecomposability_check(E, problem.factor_ideals(), opts=opts)
    status = EXIT_OK if check["verdict"] else EXIT_INCONCLUSIVE
    return _jsonable(check), {"certified": check["verdict"]}, [], status


def _run_fixtures():
    from .fixtures import run_all
    all_ok, rows = run_all()
    status = EXIT_OK if all_ok else EXIT_INCONCLUSIVE
    return ({"all_ok": all_ok, "checks": _jsonable(rows)},
            {"certified": all_ok}, [], status)


_RUNNERS = {
    "rr": _run_rr,
    "iclose": _run_iclose,
    "br": _run_br,
    "thm12": _run_thm12,
    "buchsbaum": _run_buchsbaum,
    "fitting": _run_fitting,
    "param": _run_param,
    "indec": _run_indec,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises InputError on a malformed command line, which main reports
    as it reports any other input error (exit 4), where argparse would
    print its usage and exit 2, the code for an inconclusive run."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _ArgumentParser(
        prog="reescalc",
        description="Exact closure and graded-data computations for modules "
                    "inside free modules over a two-variable polynomial ring.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", nargs="?",
                        help="problem file (unused by the fixtures command)")
    parser.add_argument("--lmax", type=int, default=None)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--nmax", type=int, default=None)
    parser.add_argument("--char", type=int, default=None)
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also write the JSON report to this path")
    return parser


def main(argv=None):
    warnings = []
    try:
        args = build_parser().parse_args(argv)
        if args.command == "fixtures":
            digest = hashlib.sha256(b"").hexdigest()
            options = {}
            result, certification, extra_warnings, status = _run_fixtures()
        else:
            if not args.file:
                print("error: this command needs a problem file",
                      file=sys.stderr)
                return EXIT_INPUT
            with open(args.file, "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            try:
                text = raw.decode("utf-8-sig")
            except UnicodeDecodeError as exc:
                raise InputError(f"problem file is not UTF-8: {exc}") from None
            problem = parse_problem(text, char_override=args.char)
            if args.lmax is not None:
                problem.options["lmax"] = args.lmax
            if args.window is not None:
                problem.options["window"] = args.window
            n_max = args.nmax if args.nmax is not None \
                else problem.options.get("nmax")
            opts = problem.closure_options()
            if problem.ctx.characteristic:
                warnings.append(
                    "prime-field coefficients: the infinite-field hypothesis "
                    "is only heuristically satisfied")
            options = {"lmax": opts.l_max, "window": opts.window,
                       "smax": opts.s_max, "nmax": n_max,
                       "char": problem.ctx.characteristic}
            with opts.deadline():
                result, certification, extra_warnings, status = \
                    _RUNNERS[args.command](problem, opts, n_max)
        warnings.extend(extra_warnings)
    except SoundnessAlert as exc:
        print(f"SOUNDNESS ALERT: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS
    except (UnstableChainError, DeadlineExceeded) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ReescalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = {
        "input_digest": digest,
        "command": args.command,
        "options": options,
        "result": result,
        "certification": certification,
        "warnings": warnings,
        "timings": {},
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.json_path:
        try:
            with open(args.json_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    sys.stdout.write(text)
    summary = f"{args.command}: exit {status}"
    if isinstance(result, dict) and "verdict" in result:
        summary += f", verdict {result['verdict']}"
    print(summary, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
