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
import random
import re
import sys
import time

from .errors import CertificateError, CrossCheckError, MccError
from .f2cat import F2Matrix, LabeledSet, compose, parse_matrix
from .mcc import MccWindow, apply_mcc, dump_window, load_window
from .solenoidal import (
    GraphMorphism,
    apply_solenoidal,
    compose_morphisms,
    composition_counterexample_search,
    fig8,
    load_graph,
    staircase_dims,
)
from .floer import (
    box_power,
    box_tensor,
    dumps_bimodule,
    golden_box_text,
    hfk_dimensions,
    hochschild_generators,
    resolve_bimodule,
    vanishing_certificate,
)
from .towers import act_word, cc_sum, dyadic_solenoid

MAX_DEPTH_CAP = 3


def _jsonable(obj):
    """Coerce report payloads (tuples, sets, words) into plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


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

    @property
    def ok(self):
        return all(c["status"] == "pass" for c in self.checks)


MS_WIDTH = 7
# a check's "ms" line in the report, as json.dumps(indent=2) writes the
# entries of the top-level "checks" list
_CHECK_MS = re.compile(r'^(      "ms": )(\d+)', re.M)


def _emit(report):
    checks = report.get("checks", [])
    report["ok"] = all(c["status"] == "pass" for c in checks)
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    # right-align the timings, so that the report's size does not depend on
    # the clock; JSON allows the whitespace before a value
    print(_CHECK_MS.sub(lambda m: m.group(1) + m.group(2).rjust(MS_WIDTH), text))
    return 0 if report["ok"] else 1


def _random_matrix(rng, rows, cols, density=0.5):
    entries = [(r, c) for r in rows for c in cols if rng.random() < density]
    return F2Matrix.from_entries(rows, cols, entries)


def _sample_words(rng, tower, depth, letters, most):
    pool = list(tower.words(depth, letters))
    return rng.sample(pool, rng.randint(0, min(most, len(pool))))


# -- verify: the eight suites ---------------------------------------------------------

def _check_functoriality(rng, tower, depth_cap, cases=200):
    """Composition law at window level: acting by NM equals acting by M then
    N at any output depth from the window's own depth up."""
    letters = ("a", "b", "c")
    top = min(2, depth_cap)
    for _ in range(cases):
        bas_b = letters[:rng.randint(1, 3)]
        bas_c = letters[:rng.randint(1, 3)]
        bas_d = letters[:rng.randint(1, 3)]
        m_mat = _random_matrix(rng, bas_c, bas_b)
        n_mat = _random_matrix(rng, bas_d, bas_c)
        wd = rng.randint(0, top)
        window = MccWindow(tower, bas_b, wd,
                           _sample_words(rng, tower, wd, bas_b, 6))
        d = rng.randint(wd, top)
        lhs = apply_mcc(compose(n_mat, m_mat), window, d)
        rhs = apply_mcc(n_mat, apply_mcc(m_mat, window, d), d)
        if lhs != rhs:
            return {"witness": {
                "m": m_mat.to_lists(), "n": n_mat.to_lists(),
                "window_support": sorted(window.support),
                "window_depth": wd, "out_depth": d,
                "lhs": sorted(lhs.support), "rhs": sorted(rhs.support)}}
    return {"detail": {"cases": cases}}


def _check_sigma_levels(rng, tower, depth_cap, cases=100):
    """The conditionally convergent sum of an invariant table is the same at
    every evaluation level at or above the invariance level."""
    letters = ("x", "y")
    depth = min(3, depth_cap)
    for _ in range(cases):
        h = rng.randint(0, depth)
        kern = tower.kernel(depth, h)
        # orbit closure under the level-h kernel keeps the table invariant
        support = set()
        for w in _sample_words(rng, tower, depth, letters, 6):
            for s in kern:
                support.add(act_word(s, w))
        values = [cc_sum(tower, letters, support, depth, lvl)
                  for lvl in range(h, depth + 1)]
        if len(set(values)) > 1:
            return {"witness": {
                "support": sorted(support), "invariance_level": h,
                "values_by_level": values}}
    return {"detail": {"cases": cases}}


def _check_sector_idempotent(rng, tower, g, depth_cap, cases=60):
    """Projecting onto the closed-walk sector twice equals projecting once."""
    from .solenoidal import e_S_project

    top = min(2, depth_cap)
    for _ in range(cases):
        d = rng.randint(0, top)
        window = MccWindow(tower, g.edges, d,
                           _sample_words(rng, tower, d, g.edges.labels, 5))
        once = e_S_project(window, g)
        twice = e_S_project(once, g)
        if once != twice:
            return {"witness": {"depth": d,
                                "once": sorted(once.support),
                                "twice": sorted(twice.support)}}
    return {"detail": {"cases": cases}}


def _random_endomorphism(rng, g):
    """A random endpoint-compatible edge map: each edge maps to a random sum
    of the edges sharing its endpoints."""
    by_ends = {}
    for e in g.edges.labels:
        by_ends.setdefault((g.s[e], g.t[e]), []).append(e)
    entries = []
    for e in g.edges.labels:
        for c in by_ends[(g.s[e], g.t[e])]:
            if rng.random() < 0.5:
                entries.append((c, e))
    return GraphMorphism(g, g, entries)


def _check_solenoidal_functor(rng, tower, g, depth_cap, cases=60):
    """For endpoint-compatible morphisms the sector action is functorial."""
    top1 = min(1, depth_cap)
    top2 = min(2, depth_cap)
    for _ in range(cases):
        m = _random_endomorphism(rng, g)
        n = _random_endomorphism(rng, g)
        nm = compose_morphisms(n, m)
        d = rng.randint(0, top1)
        window = MccWindow(tower, g.edges, d,
                           _sample_words(rng, tower, d, g.edges.labels, 4))
        out_d = rng.randint(d, top2)
        lhs = apply_solenoidal(nm, window, out_d)
        rhs = apply_solenoidal(n, apply_solenoidal(m, window, out_d), out_d)
        if lhs != rhs:
            return {"witness": {
                "m_entries": sorted(m.entries), "n_entries": sorted(n.entries),
                "window_support": sorted(window.support), "depth": d,
                "out_depth": out_d,
                "lhs": sorted(lhs.support), "rhs": sorted(rhs.support)}}
    return {"detail": {"cases": cases}}


def _check_counterexample(seed):
    """Incompatible morphism pairs must break the composition law; the search
    has to produce a witness within its default trial budget."""
    wit = composition_counterexample_search(fig8(), seed=seed)
    if wit is None:
        return {"witness": {"error": "no composition counterexample found "
                                     "within the default bound"}}
    return {"detail": {"trials": wit["trials"],
                       "m_entries": wit["m_entries"],
                       "n_entries": wit["n_entries"],
                       "word": wit["word"], "depth": wit["depth"]}}


def _check_box_golden():
    """The computed seed box product must match the shipped table byte for
    byte in canonical JSON form."""
    computed = dumps_bimodule(box_tensor(
        resolve_bimodule("tb_inv"), resolve_bimodule("ta"), name="box"))
    golden = golden_box_text()
    if computed != golden:
        return {"witness": {"error": "computed box table differs from the "
                                     "shipped golden JSON"}}
    return {"detail": {"bytes": len(golden)}}


def _check_certificates(depth_cap, rows_out):
    """Vanishing certificates for the 2^m-fold powers, m = 0..depth_cap."""
    try:
        rows = hfk_dimensions(depth_cap, cross_check=False)
    except CertificateError as e:
        return {"witness": {"error": str(e), "report": e.report}}
    rows_out.extend(rows)
    return {"detail": {"powers": [r["power"] for r in rows],
                       "certified": True}}


def _check_dimension_bridge(rows, dims):
    """Hochschild-style totals from box powers against the independent
    closed-walk staircase dimensions `dims`."""
    if not rows:
        return {"witness": {"error": "no dimension rows (certificate check "
                                     "did not produce them)"}}
    totals = [r["total"] for r in rows]
    if totals != dims:
        return {"witness": {"box_totals": totals, "staircase": dims}}
    return {"detail": {"totals": totals}}


def cmd_verify(args):
    seed = args.seed
    depth_cap = args.depth_cap
    tower = dyadic_solenoid(max(depth_cap, 2))
    g = fig8()
    suite = Suite()
    rng = random.Random(seed)
    suite.run("functoriality-window-level",
              lambda: _check_functoriality(rng, tower, depth_cap))
    suite.run("sigma-level-independence",
              lambda: _check_sigma_levels(rng, tower, depth_cap))
    suite.run("sector-projection-idempotent",
              lambda: _check_sector_idempotent(rng, tower, g, depth_cap))
    suite.run("solenoidal-functor-law",
              lambda: _check_solenoidal_functor(rng, tower, g, depth_cap))
    suite.run("incompatible-composition-witness",
              lambda: _check_counterexample(seed))
    suite.run("box-table-golden-match", _check_box_golden)
    rows = []
    suite.run("vanishing-certificates",
              lambda: _check_certificates(depth_cap, rows))
    suite.run("dimension-bridge",
              lambda: _check_dimension_bridge(rows, staircase_dims(
                  fig8(), dyadic_solenoid(depth_cap), depth_cap)))
    report = {"command": "verify", "seed": seed, "depth_cap": depth_cap,
              "checks": suite.checks, "artifacts": []}
    return _emit(report)


# -- dims ------------------------------------------------------------------------------

def cmd_dims(args):
    fmt = args.format or args.fmt or "json"
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
    if is_fig8 and fmt == "json":
        rows = []
        suite.run("vanishing-certificates",
                  lambda: _check_certificates(max_level, rows))
        suite.run("dimension-bridge",
                  lambda: _check_dimension_bridge(rows, dims))
        for m, total in enumerate(dims):
            entry = {"level": m, "total": total,
                     "lower": 1, "middle": total - 2, "upper": 1}
            if m < len(rows):
                entry["floer_total"] = rows[m]["total"]
            table.append(entry)
    else:
        table = [{"level": m, "total": total} for m, total in enumerate(dims)]

    artifacts = []
    if fmt == "csv":
        csv_text = "\n".join(f"{row['level']},{row['total']}" for row in table)
        csv_text += "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            artifacts.append(args.out)
        else:
            sys.stdout.write(csv_text)
            return 0 if suite.ok else 1
    elif args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_jsonable(table), fh, indent=2, sort_keys=True)
            fh.write("\n")
        artifacts.append(args.out)

    report = {"command": "dims", "graph": args.graph, "max_level": max_level,
              "format": fmt, "table": table, "checks": suite.checks,
              "artifacts": artifacts}
    return _emit(report)


# -- box -------------------------------------------------------------------------------

def cmd_box(args):
    if args.power < 1:
        raise MccError("power must be >= 1")
    left = resolve_bimodule(args.left)
    right = resolve_bimodule(args.right)
    pair = box_tensor(left, right, name="box")
    result = box_power(pair, args.power) if args.power > 1 else pair
    text = dumps_bimodule(result)
    artifacts = []
    report = {"command": "box", "left": args.left, "right": args.right,
              "power": args.power,
              "result": {"generators": len(result.generators),
                         "terms": len(result.terms)},
              "checks": [], "artifacts": artifacts}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        artifacts.append(args.out)
    else:
        report["result"]["bimodule"] = json.loads(text)
    return _emit(report)


# -- hh --------------------------------------------------------------------------------

def cmd_hh(args):
    if args.power < 1:
        raise MccError("power must be >= 1")
    p = resolve_bimodule(args.bimodule)
    if args.power > 1:
        p = box_power(p, args.power)
    gens = hochschild_generators(p)
    result = {"diagonal_generators": sorted(gens), "count": len(gens)}

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
    p_dims.add_argument("fmt", nargs="?", choices=("json", "csv"), default=None,
                        help="output format (positional alternative)")
    p_dims.add_argument("--format", choices=("json", "csv"), default=None,
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
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
