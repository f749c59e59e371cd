"""Command-line front end: verification suites, dimension tables, box-tensor
computation, and matrix/window file plumbing in the stable text formats.

Every command prints a run report as JSON with sorted keys and exits 0
exactly when all of its checks pass.  Parse and validation failures exit 2
with the error captured in the report; a failed internal cross-check
(CrossCheckError) exits 1.  Randomized suites take an
explicit --seed; changing the seed changes case selection, never pass/fail.
"""

import argparse
import json
import re
import sys
import time

# the package's exports read as `mcctensor.cli.<name>` too, each looked up
# in its layer on access, so none can go stale
from . import __getattr__  # noqa: F401
from .errors import CertificateError, CrossCheckError, MccError

# Each command imports the layers it uses inside its own body, so that a
# process compiles only the layers its command runs.  Nothing in the package
# imports this module: under `python -m mcctensor.cli` that would run it a
# second time.

MAX_DEPTH_CAP = 3


class Suite:
    """Collects named pass/fail checks with per-check timing."""

    def __init__(self):
        self.checks = []

    def run(self, name, fn):
        t0 = time.monotonic()
        try:
            outcome = fn() or {}
            witness = outcome.get("witness")
            detail = outcome.get("detail")
        except MccError as e:
            witness = {"error": type(e).__name__, "message": str(e)}
            detail = None
        ms = int((time.monotonic() - t0) * 1000)
        entry = {"name": name, "status": "fail" if witness is not None else "pass",
                 "ms": ms}
        if detail is not None:
            entry["detail"] = detail
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)


MS_WIDTH = 7
# a check's "ms" line in the report, as json.dumps(indent=2) writes the
# entries of the top-level "checks" list
_CHECK_MS = re.compile(r'^(      "ms": )(\d+)', re.M)


def _emit(report):
    checks = report.get("checks", [])
    report["ok"] = all(c["status"] == "pass" for c in checks)
    text = json.dumps(report, indent=2, sort_keys=True)
    # right-align the timings, so that the report's size does not depend on
    # the clock; JSON allows the whitespace before a value
    print(_CHECK_MS.sub(lambda m: m.group(1) + m.group(2).rjust(MS_WIDTH), text))
    return 0 if report["ok"] else 1


def _dimension_checks(suite, max_level, dims):
    """Two checks on `suite`: vanishing certificates for the 2^m-fold powers,
    m = 0..max_level, then their Hochschild-style totals against the
    independent closed-walk staircase dimensions `dims`; returns the rows."""
    from .floer import hfk_dimensions

    rows = []

    def certify():
        try:
            rows.extend(hfk_dimensions(max_level))
        except CertificateError as e:
            return {"witness": {"error": str(e), "report": e.report}}
        return {"detail": {"powers": [r["power"] for r in rows], "certified": True}}

    def bridge():
        if not rows:
            return {"witness": {"error": "no dimension rows (certificate check "
                                         "did not produce them)"}}
        totals = [r["total"] for r in rows]
        if totals != dims:
            return {"witness": {"box_totals": totals, "staircase": dims}}
        return {"detail": {"totals": totals}}

    suite.run("vanishing-certificates", certify)
    suite.run("dimension-bridge", bridge)
    return rows


# -- verify ----------------------------------------------------------------------------

def cmd_verify(args):
    from . import verify
    from .solenoidal import fig8, staircase_dims
    from .towers import dyadic_solenoid

    seed = args.seed
    depth_cap = args.depth_cap
    suite = Suite()
    verify.run(suite, seed, depth_cap)
    dims = staircase_dims(fig8(), dyadic_solenoid(depth_cap), depth_cap)
    _dimension_checks(suite, depth_cap, dims)
    report = {"command": "verify", "seed": seed, "depth_cap": depth_cap,
              "checks": suite.checks, "artifacts": []}
    return _emit(report)


# -- dims ------------------------------------------------------------------------------

def cmd_dims(args):
    from .solenoidal import load_graph, staircase_dims
    from .towers import dyadic_solenoid

    max_level = args.max_level
    if not 0 <= max_level <= MAX_DEPTH_CAP:
        raise MccError(
            f"max level must be between 0 and {MAX_DEPTH_CAP} "
            f"(closed-walk enumeration cap)")
    g = load_graph(args.graph)
    tower = dyadic_solenoid(max_level)
    dims = staircase_dims(g, tower, max_level)
    is_fig8 = args.graph == "fig8"
    suite = Suite()
    table = []
    if is_fig8 and args.fmt == "json":
        rows = _dimension_checks(suite, max_level, dims)
        for m, total in enumerate(dims):
            entry = {"level": m, "total": total,
                     "lower": 1, "middle": total - 2, "upper": 1}
            if m < len(rows):
                entry["floer_total"] = rows[m]["total"]
            table.append(entry)
    else:
        table = [{"level": m, "total": total} for m, total in enumerate(dims)]

    artifacts = []
    if args.fmt == "csv":
        csv_text = "\n".join(f"{row['level']},{row['total']}" for row in table)
        csv_text += "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            artifacts.append(args.out)
        else:
            sys.stdout.write(csv_text)
            return 0
    elif args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
        artifacts.append(args.out)

    report = {"command": "dims", "graph": args.graph, "max_level": max_level,
              "format": args.fmt, "table": table, "checks": suite.checks,
              "artifacts": artifacts}
    return _emit(report)


# -- box -------------------------------------------------------------------------------

def cmd_box(args):
    from .floer import (bimodule_to_dict, box_power, box_tensor, resolve_bimodule,
                        write_bimodule)

    pair = box_tensor(resolve_bimodule(args.left), resolve_bimodule(args.right))
    result = box_power(pair, args.power)
    artifacts = []
    report = {"command": "box", "left": args.left, "right": args.right,
              "power": args.power,
              "result": {"generators": len(result.generators),
                         "terms": len(result.terms)},
              "checks": [], "artifacts": artifacts}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_bimodule(result, fh)
        artifacts.append(args.out)
    else:
        report["result"]["bimodule"] = bimodule_to_dict(result)
    return _emit(report)


# -- hh --------------------------------------------------------------------------------

def cmd_hh(args):
    from .floer import (box_power, hochschild_generators, resolve_bimodule,
                        vanishing_certificate)

    p = box_power(resolve_bimodule(args.bimodule), args.power)
    gens = hochschild_generators(p)
    result = {"diagonal_generators": gens, "count": len(gens)}

    def certify():
        cert = result["certificate"] = vanishing_certificate(p)
        if cert["granted"]:
            return None
        return {"witness": {
            "failed": [c for c in cert["checks"] if not c["ok"]],
            "fixpoint": cert["fixpoint"],
            "extended_fixpoint": cert["extended_fixpoint"]}}

    suite = Suite()
    suite.run("vanishing-certificate", certify)
    report = {"command": "hh", "bimodule": args.bimodule, "power": args.power,
              "result": result, "checks": suite.checks, "artifacts": []}
    return _emit(report)


# -- mcc apply -------------------------------------------------------------------------

def cmd_mcc_apply(args):
    from .f2cat import parse_matrix
    from .mcc import apply_mcc, dump_window, load_window

    with open(args.matrix, "r", encoding="utf-8") as fh:
        matrix = parse_matrix(fh.read())
    window = load_window(args.window)
    depth = args.depth if args.depth is not None else window.depth
    out = apply_mcc(matrix, window, depth)
    text = dump_window(out)
    artifacts = []
    report = {"command": "mcc apply", "matrix": args.matrix,
              "window": args.window, "depth": depth,
              "result": {"support_size": len(out.support),
                         "invariance_level": out.inv_level,
                         "basis": list(out.basis.labels)},
              "checks": [], "artifacts": artifacts}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        artifacts.append(args.out)
    else:
        report["result"]["window"] = text
    return _emit(report)


# -- parser ----------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mcctensor",
        description="Exact F2 tensor calculus on dyadic towers: verification "
                    "suites, sector dimension tables, box-tensor products.")
    sub = parser.add_subparsers(dest="cmd")

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized case selection")
    p_verify.add_argument("--depth-cap", type=int, default=MAX_DEPTH_CAP,
                          dest="depth_cap", choices=range(0, MAX_DEPTH_CAP + 1),
                          help="largest tower level exercised (0..3)")
    p_verify.set_defaults(func=cmd_verify)

    p_dims = sub.add_parser("dims", help="per-level sector dimension table")
    p_dims.add_argument("graph", help='graph file path or the builtin "fig8"')
    p_dims.add_argument("max_level", type=int, help="deepest level (0..3)")
    p_dims.add_argument("fmt", nargs="?", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    p_dims.add_argument("--out", default=None, help="write the table here")
    p_dims.set_defaults(func=cmd_dims)

    p_box = sub.add_parser("box", help="box-tensor product of two bimodules")
    p_box.add_argument("left", help='bimodule file or builtin (tb_inv, ta, box)')
    p_box.add_argument("right", help='bimodule file or builtin (tb_inv, ta, box)')
    p_box.add_argument("--power", type=int, default=1,
                       help="iterate the product this many times (>= 1)")
    p_box.add_argument("--out", default=None, help="write the term table here")
    p_box.set_defaults(func=cmd_box)

    p_hh = sub.add_parser("hh", help="diagonal generators plus certificate")
    p_hh.add_argument("bimodule", help='bimodule file or builtin (tb_inv, ta, box)')
    p_hh.add_argument("--power", type=int, default=1,
                      help="box power to take first (>= 1)")
    p_hh.set_defaults(func=cmd_hh)

    p_mcc = sub.add_parser("mcc", help="window-level matrix actions")
    mcc_sub = p_mcc.add_subparsers(dest="mcc_cmd")
    p_apply = mcc_sub.add_parser("apply", help="act on a window file by a "
                                               "matrix file's tensor power")
    p_apply.add_argument("matrix", help="matrix file (rows:/cols: text format)")
    p_apply.add_argument("window", help="window file (tower:/basis:/depth:)")
    p_apply.add_argument("--depth", type=int, default=None,
                         help="output depth (default: the window's depth)")
    p_apply.add_argument("--out", default=None, help="write the result window here")
    p_apply.set_defaults(func=cmd_mcc_apply)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except CrossCheckError as e:
        # an internal cross-check failed: a failed check, not bad input
        error = {"type": type(e).__name__, "message": str(e), "witness": e.values}
        code = 1
    except (MccError, OSError, ValueError) as e:
        error = {"type": type(e).__name__, "message": str(e)}
        code = 2
    report = {"command": getattr(args, "cmd", None), "ok": False, "error": error}
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
