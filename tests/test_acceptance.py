"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion lines.
Every numbered test is self-contained: it rebuilds what it checks from the
public API and compares against independently derived values, so a failure
here means the package no longer delivers the corresponding guarantee.
"""

import json
import random
import time

from mcctensor.f2cat import F2Matrix, LabeledSet, compose, invert
from mcctensor.floer import (bimodule_from_dict, box_power, box_tensor,
                             cfda_ta, cfda_tb_inv, derived_power_certificate,
                             golden_box_text, hfk_dimensions, seed_box,
                             vanishing_certificate)
from mcctensor.mcc import (MccWindow, apply_mcc, cc_probe, odd_spike_series,
                           single_spike_series, staircase_position,
                           symmetrized_series)
from mcctensor.solenoidal import (GraphBasis, GraphMorphism, apply_solenoidal,
                                  closed_walk_tensors, compose_morphisms,
                                  composition_counterexample_search, fig8,
                                  hh0_quotient_dim, staircase_dims,
                                  walks_of_length)
from mcctensor.towers import act_word, cc_sum, dyadic_solenoid

TOWER = dyadic_solenoid(3)
XY = LabeledSet(["x", "y"])


def test_ac1_box_table_reproduction():
    """The box tensor of the two shipped factors equals the shipped table."""
    t0 = time.monotonic()
    got = box_tensor(cfda_tb_inv(), cfda_ta())
    elapsed = time.monotonic() - t0
    golden = bimodule_from_dict(json.loads(golden_box_text()))
    assert len(got.generators) == 5
    assert got.generators == golden.generators
    assert got.terms == golden.terms  # exact term-set equality
    assert elapsed < 1.0, f"box assembly took {elapsed:.3f}s"
    print("AC1: PASS — box table reproduced exactly in %.3fs" % elapsed)


def test_ac2_dimension_tower_two_paths():
    """Levels 0..3 give totals 5, 9, 49, 2209 on both computation paths."""
    t0 = time.monotonic()
    stair = staircase_dims(fig8(), TOWER, 3)
    rows = hfk_dimensions(3)
    floer = [r["total"] for r in rows]
    assert stair == [5, 9, 49, 2209]
    assert floer == [5, 9, 49, 2209]
    assert [r["lower"] + r["middle"] + r["upper"] for r in rows] == floer
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"dimension tower took {elapsed:.1f}s"
    print("AC2: PASS — both paths agree on 5, 9, 49, 2209 in %.2fs" % elapsed)


def test_ac3_vanishing_certificates_all_powers():
    """Certificates for the 1-, 2-, 4-, 8-fold powers all pass P1-P4 with a
    fixpoint avoiding the forbidden labels; the base fixpoint is pinned."""
    forbidden = {"r2", "i0", "i1", "1"}
    base = seed_box()
    certs = {
        1: vanishing_certificate(base),
        2: vanishing_certificate(box_power(base, 2)),
        4: vanishing_certificate(box_power(base, 4)),
        8: derived_power_certificate(box_power(base, 4), 1),
    }
    for n, cert in sorted(certs.items()):
        assert cert["granted"] is True, f"power {n} refused"
        names = [c["name"] for c in cert["checks"]]
        assert len(names) == 4 and all(c["ok"] for c in cert["checks"]), n
        assert not set(cert["fixpoint"]) & forbidden, n
    assert certs[1]["fixpoint"] == ["r1", "r3"]
    print("AC3: PASS — powers 1, 2, 4, 8 certified, fixpoints clean")


def test_ac4_functoriality_suite():
    """(N compose M) acting on a window equals acting twice: 200 random
    cases over bases of up to 3 letters and depths up to 2, zero failures."""
    rng = random.Random(4)
    failures = []
    for case in range(200):
        k = rng.randint(1, 3)
        basis = LabeledSet(["abc"[i] for i in range(k)])
        m, n = (F2Matrix.from_rows(
            basis, basis, [[rng.randint(0, 1) for _ in range(k)]
                           for _ in range(k)]) for _ in range(2))
        wd = rng.randint(0, 2)
        size = TOWER.size(wd)
        support = {tuple(rng.choice(basis.labels) for _ in range(size))
                   for _ in range(rng.randint(0, 5))}
        w = MccWindow(TOWER, basis, wd, support)
        d = rng.randint(wd, 2)
        if apply_mcc(compose(n, m), w, d) != apply_mcc(n, apply_mcc(m, w, d), d):
            failures.append(case)
    assert failures == []
    print("AC4: PASS — 200/200 functoriality cases exact")


def test_ac5_sigma_cancellation_level_independent():
    """For 100 random invariant functions the parity sum is the same at
    every level from the invariance level through depth 3."""
    rng = random.Random(5)
    for _ in range(100):
        h = rng.randint(0, 3)
        support = set()
        for _ in range(rng.randint(1, 6)):
            w = tuple(rng.choice("xy") for _ in range(TOWER.size(3)))
            for s in TOWER.kernel(3, h):
                support.add(act_word(s, w))
        vals = {cc_sum(TOWER, ("x", "y"), support, 3, lvl)
                for lvl in range(h, 4)}
        assert len(vals) == 1
    print("AC5: PASS — 100 invariant functions, level-independent sums")


def random_compatible_endomorphism(g, rng):
    by_sig = {}
    for e in g.edges.labels:
        by_sig.setdefault((g.s[e], g.t[e]), []).append(e)
    entries = []
    for sig, es in by_sig.items():
        for c in es:
            for b in es:
                if rng.random() < 0.5:
                    entries.append((c, b))
    return GraphMorphism(g, g, entries)


def test_ac6_solenoidal_functor_law_and_counterexample():
    """Exact functor law for compatible morphisms; the randomized search
    finds an incompatible pair breaking it within the default bound."""
    g = fig8()
    rng = random.Random(6)
    tensors = {d: closed_walk_tensors(g, TOWER, d) for d in (0, 1)}
    for _ in range(60):
        m = random_compatible_endomorphism(g, rng)
        n = random_compatible_endomorphism(g, rng)
        d = rng.choice([0, 1])
        support = set(rng.sample(tensors[d], rng.randint(0, 3)))
        w = MccWindow(TOWER, g.edges, d, support)
        out_d = rng.randint(d, 2)
        lhs = apply_solenoidal(compose_morphisms(n, m), w, out_d)
        rhs = apply_solenoidal(n, apply_solenoidal(m, w, out_d), out_d)
        assert lhs == rhs
    wit = composition_counterexample_search(g)  # default bound
    assert wit is not None
    assert wit["trials"] <= 5000
    # the witness pair really is endpoint-incompatible
    incompatible = any(
        (g.s[c], g.t[c]) != (g.s[b], g.t[b])
        for entries in (wit["m_entries"], wit["n_entries"])
        for (c, b) in entries)
    assert incompatible
    print("AC6: PASS — functor law exact; incompatible witness at trial %d"
          % wit["trials"])


def test_ac7_hh0_oracle_equivalence():
    """Closed-walk counting equals literal quotient-by-relations row
    reduction on 50 random graphs at powers 1-4."""
    rng = random.Random(7)
    for _ in range(50):
        n_idem = rng.randint(1, 3)
        idem = ["k%d" % i for i in range(n_idem)]
        names = ["e%d" % i for i in range(rng.randint(1, 5))]
        s = {e: rng.choice(idem) for e in names}
        t = {e: rng.choice(idem) for e in names}
        g = GraphBasis(idem, names, s, t)
        for power in (1, 2, 3, 4):
            assert len(walks_of_length(g, power)) == hh0_quotient_dim(g, power)
    print("AC7: PASS — 50 graphs x powers 1-4, walks == quotient dimension")


def test_ac8_change_of_basis_roundtrip():
    """apply_mcc(M inverse) undoes apply_mcc(M) on depth-<=2 windows for 50
    random invertible matrices."""
    rng = random.Random(8)
    count = 0
    while count < 50:
        k = rng.randint(1, 3)
        basis = LabeledSet(["abc"[i] for i in range(k)])
        m = F2Matrix.from_rows(
            basis, basis,
            [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)])
        m_inv = invert(m)
        if m_inv is None:
            continue
        count += 1
        for depth in (0, 1, 2):
            support = {tuple(rng.choice(basis.labels)
                             for _ in range(TOWER.size(depth)))
                       for _ in range(rng.randint(0, 4))}
            w = MccWindow(TOWER, basis, depth, support)
            assert apply_mcc(m_inv, apply_mcc(m, w, depth), depth) == w
    print("AC8: PASS — 50 invertible changes of basis round-trip exactly")


def test_ac9_series_probe_verdicts_and_membership_shift():
    """The three reference series probe as divergent / cc-at-0 / cc-at-1,
    and subtracting the level-1-visible word shifts the odd window into the
    deep part of the staircase."""
    assert cc_probe(single_spike_series(TOWER), 3)["verdict"] == \
        "divergent through probe depth"
    assert cc_probe(symmetrized_series(TOWER), 3)["verdict"] == \
        "cc-witnessed at level 0"
    assert cc_probe(odd_spike_series(TOWER), 3)["verdict"] == \
        "cc-witnessed at level 1"
    w7 = odd_spike_series(TOWER).window(3)
    h7, d7 = staircase_position(w7)
    assert h7 <= 1 and not d7 > 1  # visible at level 1, so not in the deep part
    w6 = w7 + MccWindow(TOWER, XY, 1, {("x", "y")})
    assert staircase_position(w6) == (1, 2)
    h6, d6 = staircase_position(w6)
    assert h6 <= 1 < d6  # invariant at scale 1 yet invisible below depth 2
    assert w6.restriction_is_zero(1)
    print("AC9: PASS — probe verdicts pinned; membership shift confirmed")
