"""The randomized and golden checks of `mcctensor verify`.

`run` adds six named checks to the command's suite; the certificate and
dimension-bridge checks that follow them live in `cli`, because `dims fig8`
runs them too.  Only `verify` imports this module.  Layer functions are
read through their modules at call time (`mcc.apply_mcc`), so a function
replaced on its layer while the suite runs is the one called, and no
reference to it stays behind here.
"""

import random

from . import f2cat, floer, mcc, solenoidal, towers


def run(suite, seed, depth_cap):
    """Run the six checks on `suite` (a `cli.Suite`), in report order."""
    tower = towers.dyadic_solenoid(max(depth_cap, 2))
    g = solenoidal.fig8()
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


def _random_matrix(rng, rows, cols, density=0.5):
    entries = [(r, c) for r in rows for c in cols if rng.random() < density]
    return f2cat.F2Matrix.from_entries(rows, cols, entries)


def _sample_words(rng, tower, depth, letters, most):
    pool = list(tower.words(depth, letters))
    return rng.sample(pool, rng.randint(0, min(most, len(pool))))


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
        window = mcc.MccWindow(tower, bas_b, wd,
                               _sample_words(rng, tower, wd, bas_b, 6))
        d = rng.randint(wd, top)
        lhs = mcc.apply_mcc(f2cat.compose(n_mat, m_mat), window, d)
        rhs = mcc.apply_mcc(n_mat, mcc.apply_mcc(m_mat, window, d), d)
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
                support.add(towers.act_word(s, w))
        values = [towers.cc_sum(tower, letters, support, depth, lvl)
                  for lvl in range(h, depth + 1)]
        if len(set(values)) > 1:
            return {"witness": {
                "support": sorted(support), "invariance_level": h,
                "values_by_level": values}}
    return {"detail": {"cases": cases}}


def _check_sector_idempotent(rng, tower, g, depth_cap, cases=60):
    """Projecting onto the closed-walk sector twice equals projecting once."""
    top = min(2, depth_cap)
    for _ in range(cases):
        d = rng.randint(0, top)
        window = mcc.MccWindow(tower, g.edges, d,
                               _sample_words(rng, tower, d, g.edges.labels, 5))
        once = solenoidal.e_S_project(window, g)
        twice = solenoidal.e_S_project(once, g)
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
    return solenoidal.GraphMorphism(g, g, entries)


def _check_solenoidal_functor(rng, tower, g, depth_cap, cases=60):
    """For endpoint-compatible morphisms the sector action is functorial."""
    top1 = min(1, depth_cap)
    top2 = min(2, depth_cap)
    act = solenoidal.apply_solenoidal
    for _ in range(cases):
        m = _random_endomorphism(rng, g)
        n = _random_endomorphism(rng, g)
        nm = solenoidal.compose_morphisms(n, m)
        d = rng.randint(0, top1)
        window = mcc.MccWindow(tower, g.edges, d,
                               _sample_words(rng, tower, d, g.edges.labels, 4))
        out_d = rng.randint(d, top2)
        lhs = act(nm, window, out_d)
        rhs = act(n, act(m, window, out_d), out_d)
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
    wit = solenoidal.composition_counterexample_search(solenoidal.fig8(), seed=seed)
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
    computed = floer.dumps_bimodule(floer.seed_box())
    golden = floer.golden_box_text()
    if computed != golden:
        return {"witness": {"error": "computed box table differs from the "
                                     "shipped golden JSON"}}
    return {"detail": {"bytes": len(golden)}}
