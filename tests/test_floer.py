"""Torus algebra, type-DA bimodules, box powers, vanishing certificates."""

import itertools
import json
import os
import subprocess
import sys
import time

import pytest

import mcctensor.floer as floer_module
from mcctensor.errors import (CertificateError, ChainingError, CrossCheckError,
                              LabelMismatchError, MccError, SizeCapError,
                              ZeroInputCycleError)
from mcctensor.floer import (DABimodule, TorusAlgebra, bimodule_from_dict,
                             bimodule_to_dict, box_generators, box_power,
                             box_tensor, cfda_ta, cfda_tb_inv, derived_power_certificate,
                             dumps_bimodule, golden_box_text,
                             hfk_dimensions, hochschild_generators,
                             idempotent_counts, load_bimodule, resolve_bimodule,
                             seed_box, torus_algebra, vanishing_certificate)
from mcctensor.solenoidal import fig8, staircase_dims
from mcctensor.towers import dyadic_solenoid

ALG = torus_algebra()


def test_algebra_products():
    assert ALG.mult("r1", "r2") == "r12"
    assert ALG.mult("r2", "r3") == "r23"
    assert ALG.mult("r1", "r23") == "r123"
    assert ALG.mult("r12", "r3") == "r123"
    assert ALG.mult("r2", "r1") is None
    assert ALG.mult("r3", "r2") is None
    assert ALG.mult("r1", "r1") is None
    assert ALG.mult("r123", "r123") is None


def test_algebra_basis_is_the_grading_zero_summand():
    assert ALG.basis == ("i0", "i1", "r1", "r2", "r3", "r12", "r23", "r123")
    assert torus_algebra() is ALG
    for a in ("ie", "i01", "r4"):
        with pytest.raises(LabelMismatchError):
            ALG.mult(a, a)
        with pytest.raises(LabelMismatchError):
            ALG.mult("r1", a)


def test_algebra_idempotent_action():
    assert ALG.mult("i0", "r1") == "r1"
    assert ALG.mult("r1", "i1") == "r1"
    assert ALG.mult("i1", "r1") is None
    assert ALG.mult("r1", "i0") is None
    assert ALG.mult("i0", "i0") == "i0"
    assert ALG.mult("i0", "i1") is None
    # every basis element is fixed by its own idempotents and killed by the
    # other ones
    for a in ALG.basis:
        left, right = ALG.idem(a)
        for e in ("i0", "i1"):
            assert ALG.mult(e, a) == (a if e == left else None)
            assert ALG.mult(a, e) == (a if e == right else None)


def test_algebra_associative_exhaustive():
    def m(a, b):
        if a is None or b is None:
            return None
        return ALG.mult(a, b)

    for a, b, c in itertools.product(ALG.basis, repeat=3):
        assert m(m(a, b), c) == m(a, m(b, c))


def make(gens, terms):
    return DABimodule(gens, terms)


def test_bimodule_validation_generators():
    with pytest.raises(ChainingError):
        make([("a", "ie", "i0")], [])
    with pytest.raises(LabelMismatchError):
        make([("a", "i0", "i0"), ("a", "i1", "i1")], [])


def test_bimodule_validation_terms():
    gens = [("a", "i0", "i0"), ("b", "i0", "i1")]
    # inputs must be chords, never idempotents or the unit
    with pytest.raises(ChainingError):
        make(gens, [("a", ("i0",), "r12", "a")])
    with pytest.raises(ChainingError):
        make(gens, [("a", ("1",), "r12", "a")])
    # output must be a chord or the unit
    with pytest.raises(ChainingError):
        make(gens, [("a", ("r12",), "i0", "a")])
    # unit output needs equal left idempotents
    with pytest.raises(ChainingError):
        make([("a", "i0", "i0"), ("c", "i1", "i0")], [("a", ("r12",), "1", "c")])
    # chord output idempotents must match the arrow
    with pytest.raises(ChainingError):
        make(gens, [("a", ("r12",), "r2", "b")])
    # inputs must chain from the source's right idempotent
    with pytest.raises(ChainingError):
        make(gens, [("a", ("r2",), "r12", "a")])
    # and end at the target's right idempotent
    with pytest.raises(ChainingError):
        make(gens, [("a", ("r12",), "r12", "b")])
    with pytest.raises(LabelMismatchError):
        make(gens, [("zz", (), "r12", "a")])


def test_bimodule_duplicate_terms_cancel():
    gens = [("a", "i0", "i0"), ("b", "i0", "i0")]
    t = ("a", ("r12",), "r12", "b")
    assert make(gens, [t, t]).terms == ()
    assert make(gens, [t, t, t]).terms == (t,)


def test_bimodule_zero_input_cycle_rejected():
    gens = [("a", "i0", "i0"), ("b", "i0", "i0")]
    with pytest.raises(ZeroInputCycleError) as e:
        make(gens, [("a", (), "r12", "b"), ("b", (), "r12", "a")])
    assert e.value.cycle == ["a", "b", "a"]


def test_bimodule_long_zero_input_cycle_rejected():
    n = 1500
    gens = [(f"g{i}", "i0", "i0") for i in range(n)]
    terms = [(f"g{i}", (), "r12", f"g{(i + 1) % n}") for i in range(n)]
    with pytest.raises(ZeroInputCycleError) as e:
        make(gens, terms)
    # the search starts at the least name, g0, and follows the chain round
    assert e.value.cycle == [f"g{i}" for i in range(n)] + ["g0"]


def test_seed_bimodule_shapes():
    tb = cfda_tb_inv()
    ta = cfda_ta()
    assert [g for (g, _, _) in tb.generators] == ["p", "q", "r"]
    assert [g for (g, _, _) in ta.generators] == ["f", "g", "h"]
    assert len(tb.terms) == 10 and len(ta.terms) == 10
    assert tb.terms_from("p")[0] == ("p", (), "r3", "r")
    assert ta.terms_from("h") == [("h", (), "r1", "g"), ("h", ("r2",), "1", "f"),
                                  ("h", ("r23",), "r3", "g")]


def test_box_generators_pairing():
    gens = box_generators(cfda_tb_inv().generators, cfda_ta().generators)
    assert gens == [("p|f", "i0", "i0"), ("p|h", "i0", "i1"),
                    ("q|g", "i1", "i1"), ("r|f", "i1", "i0"),
                    ("r|h", "i1", "i1")]


def colliding_box():
    """The seed box renamed so that two pairs of its square share the name
    'a||b': 'a|' then 'b', and 'a' then '|b'."""
    name = {"p|f": "a|", "p|h": "b", "q|g": "a", "r|f": "|b", "r|h": "c"}
    box = seed_box()
    return DABimodule([(name[g], l, r) for (g, l, r) in box.generators],
                      [(name[x], ins, out, name[y]) for (x, ins, out, y) in box.terms])


@pytest.mark.parametrize("square", [lambda p: box_power(p, 2),
                                    lambda p: derived_power_certificate(p, 3)],
                         ids=["box_power", "derived_power_certificate"])
def test_box_generator_names_two_pairs_share_are_refused(square):
    with pytest.raises(LabelMismatchError, match=r"^box generator name 'a\|\|b' "
                                                 r"names two pairs$"):
        square(colliding_box())


def test_box_matches_shipped_reference():
    box = seed_box()
    assert len(box.generators) == 5
    assert len(box.terms) == 21
    golden = bimodule_from_dict(json.loads(golden_box_text()))
    assert box == golden
    assert dumps_bimodule(box) == golden_box_text()


def test_box_contains_length_three_input_term():
    # a genuinely higher operation: three inputs consumed in one term
    assert ("r|f", ("r3", "r2", "r1"), "r2", "p|h") in seed_box().terms


def test_box_generator_types_match_middle_edges():
    g = fig8()
    middle = sorted((g.s[e], g.t[e]) for e in g.edges.labels
                    if {g.s[e], g.t[e]} <= {"i0", "i1"})
    pairs = sorted((l, r) for (_, l, r) in seed_box().generators)
    assert pairs == middle


def test_box_power_associativity():
    p = seed_box()
    p2 = box_tensor(p, p)
    left3 = box_tensor(p2, p)
    right3 = box_tensor(p, p2)
    assert left3 == right3
    assert box_tensor(p2, p2) == box_tensor(left3, p)
    assert box_power(p, 4) == box_tensor(p2, p2)
    with pytest.raises(MccError):
        box_power(p, 0)


@pytest.mark.parametrize("k, size", [(3, 34), (5, 233)])
def test_odd_box_powers_multiply_by_the_base(k, size):
    # an odd k takes box_power's multiply step after its squarings
    p = seed_box()
    chain = p
    for _ in range(k - 1):
        chain = box_tensor(chain, p)
    assert len(chain.generators) == size
    assert box_power(p, k) == chain


def test_box_power_sizes():
    p = seed_box()
    p2 = box_power(p, 2)
    assert len(p2.generators) == 13 and len(p2.terms) == 105
    p4 = box_power(p, 4)
    assert len(p4.generators) == 89 and len(p4.terms) == 4095


def test_box_tensor_refuses_products_over_the_generator_cap():
    p4 = box_power(seed_box(), 4)
    with pytest.raises(SizeCapError, match="4181 generators, over the cap 1000"):
        box_tensor(p4, p4)
    # the count is read off C(P^4)^2, before any pair is formed
    assert len(box_generators(p4.generators, p4.generators)) == 4181


def test_idempotent_counts_multiply_under_box_products():
    p = seed_box()
    assert idempotent_counts(p.generators) == [[1, 1], [1, 2]]
    c2 = [[2, 3], [3, 5]]
    assert idempotent_counts(box_power(p, 2).generators) == c2
    assert idempotent_counts(box_tensor(box_power(p, 2), p).generators) == [[5, 8], [8, 13]]
    assert idempotent_counts(box_power(p, 4).generators) == [[13, 21], [21, 34]]


def test_box_power_refuses_an_over_cap_power_before_building(monkeypatch):
    def no_build(m, n, name=None):
        raise AssertionError("box_tensor called")

    p = seed_box()
    monkeypatch.setattr(floer_module, "box_tensor", no_build)
    for k, size in ((7, 1597), (8, 4181), (16, 4181)):
        with pytest.raises(SizeCapError) as e:
            box_power(p, k)
        assert str(e.value) == \
            f"box product would have {size} generators, over the cap 1000"


def test_hochschild_generators():
    assert hochschild_generators(seed_box()) == ["p|f", "q|g", "r|h"]
    assert len(hochschild_generators(box_power(seed_box(), 2))) == 7


def test_vanishing_certificate_seed():
    cert = vanishing_certificate(seed_box())
    assert cert["granted"] is True
    assert all(c["ok"] for c in cert["checks"])
    assert [c["name"][:2] for c in cert["checks"]] == ["P1", "P2", "P3", "P4"]
    assert cert["fixpoint"] == ["r1", "r3"]
    assert cert["extended_fixpoint"] == ["r1", "r123", "r23", "r3"]
    assert cert["forbidden"] == ["1", "i0", "i1", "r2"]
    assert not set(cert["fixpoint"]) & set(cert["forbidden"])


def test_vanishing_certificate_powers():
    # doubling grows the spontaneous fixpoint (chains of zero-input terms
    # spell new spontaneous words) but never past the extended closure,
    # which itself never grows
    base = vanishing_certificate(seed_box())
    assert base["fixpoint"] == ["r1", "r3"]
    prev = base
    for k in (2, 4):
        cert = vanishing_certificate(box_power(seed_box(), k))
        assert cert["granted"] is True
        assert cert["fixpoint"] == ["r1", "r123", "r23", "r3"]
        assert set(prev["fixpoint"]) <= set(cert["fixpoint"])
        assert set(cert["fixpoint"]) <= set(prev["extended_fixpoint"])
        assert set(cert["extended_fixpoint"]) <= set(prev["extended_fixpoint"])
        prev = cert


def p1_violating_bimodule():
    return make([("a", "i1", "i1"), ("b", "i0", "i1")],
                [("a", (), "r2", "b")])


def test_vanishing_certificate_refuses_spontaneous_r2():
    cert = vanishing_certificate(p1_violating_bimodule())
    assert cert["granted"] is False
    p1 = cert["checks"][0]
    assert p1["name"].startswith("P1") and p1["ok"] is False
    assert p1["witness"] == ["a", (), "r2", "b"]
    assert "r2" in cert["fixpoint"]


def test_vanishing_certificate_refuses_mutated_box():
    box = seed_box()
    extra = ("q|g", ("r23",), "r2", "p|h")
    mutated = DABimodule(box.generators,
                         list(box.terms) + [extra])
    cert = vanishing_certificate(mutated)
    assert cert["granted"] is False
    p1 = cert["checks"][0]
    assert p1["ok"] is False and p1["witness"] == list(extra)


# -- the DA structure equation, which the certificates' induction assumes -------------

# each chord's splittings into two chords, the inverse of TorusAlgebra._products
CHORD_SPLITS = {}
for (a, b), ab in TorusAlgebra._products.items():
    CHORD_SPLITS.setdefault(ab, []).append((a, b))


def times(b, c):
    """The product of two outputs, the unit "1" acting as the identity."""
    return c if b == "1" else b if c == "1" else TorusAlgebra._products.get((b, c))


def structure_defect(p):
    """The terms (x, inputs, output, y) left over, mod 2, in the DA structure
    equation of p: the products b*c of every term x -> b z followed by a
    term z -> c y, plus every term whose inputs multiply two adjacent
    inputs of the word into one.  The differential of the torus algebra is
    zero and strict unitality adds no terms, so a DA bimodule leaves none.
    Terms are indexed by (source, output) so that only pairs whose outputs
    multiply are formed."""
    by_source_output = {}
    for (z, ins, c, y) in p.terms:
        by_source_output.setdefault((z, c), []).append((ins, y))
    outputs = {c for (_, c) in by_source_output}
    defect = set()
    for (x, ins, b, z) in p.terms:
        for c in outputs:
            bc = times(b, c)
            for (ins2, y) in by_source_output.get((z, c), ()) if bc else ():
                defect ^= {(x, ins + ins2, bc, y)}
        for i, a in enumerate(ins):
            for pair in CHORD_SPLITS.get(a, ()):
                defect ^= {(x, ins[:i] + pair + ins[i + 1:], b, z)}
    return sorted(defect)


def test_structure_equation_holds_on_the_seeds_and_box_powers():
    for p in (cfda_tb_inv(), cfda_ta(), seed_box(), box_power(seed_box(), 2)):
        assert structure_defect(p) == []
    p4 = box_power(seed_box(), 4)
    start = time.perf_counter()
    assert structure_defect(p4) == []
    assert time.perf_counter() - start < 1.0


def test_structure_equation_fails_without_the_first_box_term():
    box = seed_box()
    assert box.terms[0] == ("p|f", (), "r3", "r|f")
    broken = DABimodule(box.generators, box.terms[1:])
    assert structure_defect(broken)[0] == ("p|f", ("r123", "r2", "r12"), "r123", "r|f")


def test_structure_equation_fails_without_any_one_term():
    for p in (cfda_tb_inv(), cfda_ta(), seed_box(), box_power(seed_box(), 2)):
        for t in p.terms:
            rest = [u for u in p.terms if u != t]
            assert structure_defect(DABimodule(p.generators, rest)) != [], t


def test_derived_certificate_matches_direct_assembly():
    base = seed_box()
    cert = derived_power_certificate(base, 2)
    assert cert["granted"] is True and cert["derived"] is True
    assert cert["doublings"] == 2 and cert["fixpoint_is_exact"] is True
    # per-doubling fixpoints agree with the directly assembled powers
    assert cert["fixpoint_by_doubling"][0] == \
        vanishing_certificate(base)["fixpoint"]
    for d, k in ((1, 2), (2, 4)):
        assert cert["fixpoint_by_doubling"][d] == \
            vanishing_certificate(box_power(base, k))["fixpoint"]
    assert cert["fixpoint"] == ["r1", "r123", "r23", "r3"]
    assert cert["extended_fixpoint_is_bound"] is True
    assert all(c["derived"] for c in cert["checks"])
    with pytest.raises(MccError):
        derived_power_certificate(base, -1)


def test_derived_certificate_eight_fold_routes_agree():
    # one doubling from the assembled 4-fold power and three from the seed
    # compute the same 8-fold fixpoint
    via_p4 = derived_power_certificate(box_power(seed_box(), 4), 1)
    via_seed = derived_power_certificate(seed_box(), 3)
    assert via_p4["fixpoint_is_exact"] and via_seed["fixpoint_is_exact"]
    assert via_p4["fixpoint"] == via_seed["fixpoint"] == \
        ["r1", "r123", "r23", "r3"]


def test_derived_certificate_saturates_under_a_small_work_cap(monkeypatch):
    base = seed_box()
    built = []
    real_box_generators = floer_module.box_generators

    def recording_box_generators(m_gens, n_gens):
        built.append(real_box_generators(m_gens, n_gens))
        return built[-1]

    monkeypatch.setattr(floer_module, "box_generators", recording_box_generators)
    monkeypatch.setattr(floer_module, "DERIVED_WORK_CAP", 20)
    cert = derived_power_certificate(base, 4)
    assert cert["granted"] is True
    # the first doubling reaches the extended closure, so the fixpoint is
    # exact at every depth and the cap is never met
    assert cert["fixpoint_is_exact"] is True and cert["saturated_at_doubling"] == 1
    assert cert["fixpoint"] == cert["extended_fixpoint"]
    # 5 -> 13 generators is built; the 89 the next doubling would need is not
    assert [len(g) for g in built] == [13]
    assert cert["fixpoint_by_doubling"] == [["r1", "r3"]] + [cert["extended_fixpoint"]] * 4


def test_derived_certificate_stops_before_the_sixteen_fold_power():
    # P^4 -> P^8 (4,181 generators) is squared once and saturates; P^16
    # (9,227,465 generators, over DERIVED_WORK_CAP) is never needed
    cert = derived_power_certificate(box_power(seed_box(), 4), 2)
    assert cert["granted"] is True
    assert cert["fixpoint_is_exact"] is True and cert["saturated_at_doubling"] == 1
    assert cert["fixpoint_by_doubling"][1:] == [["r1", "r123", "r23", "r3"]] * 2


def test_derived_certificate_is_exact_at_every_depth_from_the_seed(monkeypatch):
    built = []
    real_box_generators = floer_module.box_generators
    monkeypatch.setattr(floer_module, "box_generators",
                        lambda m, n: built.append(len(m)) or real_box_generators(m, n))
    for d in range(1, 11):
        cert = derived_power_certificate(seed_box(), d)
        assert cert["granted"] and cert["fixpoint_is_exact"]
        assert cert["fixpoint"] == ["r1", "r123", "r23", "r3"]
        assert cert["saturated_at_doubling"] == 1
        assert len(cert["fixpoint_by_doubling"]) == d + 1
    # each call builds the seed box (3 x 3) and then squares only to P^2
    assert built == [3, 5] * 10


def test_derived_certificate_does_not_saturate_where_an_end_starts_nothing():
    # the fixpoint reaches the bound {r12} at once, but c|a ends at i1 and
    # no generator starts there, so every doubling is still squared
    base = make([("a", "i0", "i1"), ("c", "i0", "i0"), ("c2", "i0", "i0")],
                [("c", (), "r12", "c2")])
    cert = derived_power_certificate(base, 2)
    assert cert["granted"] and cert["saturated_at_doubling"] is None
    assert cert["fixpoint_by_doubling"] == [["r12"]] * 3


def test_derived_certificate_refuses_an_unsaturated_base_over_the_cap(monkeypatch):
    monkeypatch.setattr(floer_module, "DERIVED_WORK_CAP", 12)
    with pytest.raises(SizeCapError, match=r"doubling 1: 13 generators, 7 terms, over the cap 12$"):
        derived_power_certificate(seed_box(), 2)


def test_derived_certificate_refuses_bad_base():
    with pytest.raises(CertificateError) as e:
        derived_power_certificate(p1_violating_bimodule(), 1)
    assert e.value.report["granted"] is False


def test_derived_certificate_refusal_names_the_failed_property():
    with pytest.raises(CertificateError, match=r"refused: P1-r2-output-needs-r2-input "
                                               r"fails on \['a', \(\), 'r2', 'b'\]$"):
        derived_power_certificate(p1_violating_bimodule(), 1)


def test_hfk_dimension_rows():
    rows = hfk_dimensions(3)
    assert [(r["lower"], r["middle"], r["upper"], r["total"]) for r in rows] == \
        [(1, 3, 1, 5), (1, 7, 1, 9), (1, 47, 1, 49), (1, 2207, 1, 2209)]
    assert [r["certificate"] for r in rows] == \
        ["direct", "derived", "derived", "derived"]
    assert [r["power"] for r in rows] == [1, 2, 4, 8]


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_hfk_dimensions_to_level_ten_follow_the_lucas_numbers():
    # P^k has the Lucas number L(2k) diagonal generators, so the total at
    # level m is L(2^(m+1)) + 2, and the staircase dimension agrees
    start = time.perf_counter()
    rows = hfk_dimensions(10)
    assert time.perf_counter() - start < 1.0
    totals = [r["total"] for r in rows]
    assert totals == [lucas(2 ** (m + 1)) + 2 for m in range(11)]
    assert totals == staircase_dims(fig8(), dyadic_solenoid(10), 10)
    assert rows[4]["total"] == 4870849


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep
               + os.environ.get("PYTHONPATH", ""))


def test_hfk_dimensions_to_level_13_load_and_build_nothing_else():
    code = (
        "import sys, time\n"
        "from mcctensor.floer import hfk_dimensions\n"
        "start = time.perf_counter()\n"
        "rows = hfk_dimensions(13)\n"
        "ms = (time.perf_counter() - start) * 1000\n"
        "print(sorted(m for m in sys.modules if m.startswith('mcctensor')))\n"
        "print([r['total'] for r in rows])\n"
        "print(ms)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules, totals, ms = proc.stdout.splitlines()
    assert modules == str(["mcctensor", "mcctensor.errors", "mcctensor.floer"])
    assert totals == str([lucas(2 ** (m + 1)) + 2 for m in range(14)])
    assert float(ms) < 10


@pytest.mark.parametrize("level", [14, 30])
def test_hfk_dimensions_refuse_totals_past_the_digit_limit(level):
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="^level 14: its total has 6849 decimal "
                                           "digits, over the interpreter's limit of 4300$"):
        hfk_dimensions(level)
    assert time.perf_counter() - start < 0.05


def test_hfk_dimensions_assemble_no_power(monkeypatch):
    seed = seed_box()
    calls = []
    real = floer_module.vanishing_certificate

    def no_build(m, n, name=None):
        raise AssertionError("box_tensor called")

    monkeypatch.setattr(floer_module, "seed_box", lambda: seed)
    monkeypatch.setattr(floer_module, "box_tensor", no_build)
    monkeypatch.setattr(floer_module, "vanishing_certificate",
                        lambda p: calls.append(p) or real(p))
    start = time.perf_counter()
    rows = hfk_dimensions(4)
    assert time.perf_counter() - start < 1.0
    assert calls == [seed]
    assert rows[-1]["middle"] == 4870847


def test_hfk_dimensions_refuse_mutated_seed(monkeypatch):
    box = seed_box()
    extra = ("q|g", ("r23",), "r2", "p|h")
    mutated = DABimodule(box.generators,
                         list(box.terms) + [extra])
    monkeypatch.setattr(floer_module, "seed_box", lambda: mutated)
    with pytest.raises(CertificateError) as e:
        hfk_dimensions(1)
    assert "P1" in str(e.value)


def p3_violating_bimodule():
    # unit outputs fed by r12 alone: P3 fails on both, nothing else does
    return make([("a", "i0", "i0"), ("b", "i0", "i0")],
                [("b", ("r12",), "1", "a"), ("a", ("r12",), "1", "b")])


def test_vanishing_certificate_refuses_p3_alone():
    cert = vanishing_certificate(p3_violating_bimodule())
    assert cert["granted"] is False
    assert [c["ok"] for c in cert["checks"]] == [True, True, False, True]
    p3 = cert["checks"][2]
    assert p3["name"].startswith("P3")
    assert p3["witness"] == ["a", ("r12",), "1", "b"]  # first in sorted order
    assert cert["fixpoint"] == []


def forced_grant(p):
    """p's certificate with the verdict overridden, to reach the refusals
    that a granted certificate makes unreachable."""
    return dict(vanishing_certificate(p), granted=True)


def test_derived_certificate_refuses_zero_input_unit_term(monkeypatch):
    base = make([("a", "i0", "i0"), ("b", "i0", "i0")],
                [("a", (), "1", "b")])
    cert = forced_grant(base)
    monkeypatch.setattr(floer_module, "vanishing_certificate", lambda p: cert)
    with pytest.raises(CertificateError, match="zero-input term"):
        derived_power_certificate(base, 1)


def test_derived_certificate_refuses_closure_fed_unit_term(monkeypatch):
    base = make([("a", "i0", "i0"), ("b", "i0", "i0"), ("c", "i0", "i0")],
                [("a", (), "r12", "b"), ("b", ("r12",), "1", "c")])
    cert = forced_grant(base)
    assert "r12" in cert["extended_fixpoint"]
    monkeypatch.setattr(floer_module, "vanishing_certificate", lambda p: cert)
    with pytest.raises(CertificateError, match="feedable entirely") as e:
        derived_power_certificate(base, 1)
    assert "('b', ('r12',), '1', 'c')" in str(e.value)


def test_derived_certificate_granted_reads_the_closure(monkeypatch):
    # a granted base certificate whose extended fixpoint meets the
    # forbidden labels: `granted` is not a constant, it follows the closure
    box = seed_box()
    cert = vanishing_certificate(box)
    assert cert["granted"] is True
    widened = dict(cert, extended_fixpoint=sorted(cert["extended_fixpoint"] + ["i0"]))
    monkeypatch.setattr(floer_module, "vanishing_certificate", lambda p: widened)
    out = derived_power_certificate(box, 1)
    assert out["granted"] is False
    assert "i0" in out["extended_fixpoint"] and out["fixpoint_is_exact"] is True


def test_hfk_dimensions_certify_each_power_once(monkeypatch):
    calls = []
    real = floer_module.vanishing_certificate
    monkeypatch.setattr(floer_module, "vanishing_certificate",
                        lambda p: calls.append(len(p.terms)) or real(p))
    hfk_dimensions(3)
    assert calls == [21]


def test_hfk_dimensions_derive_deeper_powers_from_the_deepest_assembled(monkeypatch):
    calls = []
    real = floer_module.derived_power_certificate
    monkeypatch.setattr(floer_module, "derived_power_certificate",
                        lambda base, doublings, **kw: calls.append(
                            (len(base.generators), doublings)) or real(base, doublings, **kw))
    hfk_dimensions(3)
    # the seed is the only power at hand: one induction covers every level
    assert calls == [(5, 3)]


# -- cross-checks raise CrossCheckError, also under python -O -------------------------

def test_box_target_check_is_a_cross_check(monkeypatch):
    real = floer_module.box_generators
    monkeypatch.setattr(floer_module, "box_generators", lambda m, n: real(m, n)[:-1])
    with pytest.raises(CrossCheckError) as e:
        box_tensor(cfda_tb_inv(), cfda_ta())
    assert e.value.values == {"source": "p|f", "target": "r|h",
                              "left_term": ["p", ["r12"], "r1", "r"],
                              "inputs": ["r1"]}


def test_derived_fixpoint_bound_is_a_cross_check(monkeypatch):
    # claim the spontaneous fixpoint as the extended closure: the first
    # doubling already reaches r123 and r23 outside it
    real = floer_module.vanishing_certificate
    monkeypatch.setattr(floer_module, "vanishing_certificate",
                        lambda p: dict(real(p), extended_fixpoint=real(p)["fixpoint"]))
    with pytest.raises(CrossCheckError) as e:
        derived_power_certificate(seed_box(), 1)
    assert e.value.values == {"fixpoint": ["r1", "r123", "r23", "r3"],
                              "bound": ["r1", "r3"]}


CROSS_CHECK_TESTS = (
    "tests/test_floer.py::test_box_target_check_is_a_cross_check",
    "tests/test_floer.py::test_derived_fixpoint_bound_is_a_cross_check",
    "tests/test_cli.py::test_dimension_bridge_mismatch_exits_1",
    "tests/test_solenoidal.py::test_hh0_oracle_is_a_cross_check",
)


def test_acceptance_and_cross_checks_hold_under_python_O():
    # -O strips the tests' own asserts, but pytest.raises still fails when a
    # cross-check no longer raises
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", *CROSS_CHECK_TESTS],
        cwd=ROOT, env=SRC_ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "14 passed" in proc.stdout


def test_bimodule_json_roundtrip(tmp_path):
    for p in (cfda_tb_inv(), cfda_ta(), seed_box()):
        assert bimodule_from_dict(bimodule_to_dict(p)) == p
    path = tmp_path / "m.json"
    path.write_text(dumps_bimodule(cfda_ta()))
    assert load_bimodule(str(path)) == cfda_ta()
    with pytest.raises(MccError):
        bimodule_from_dict({"algebra": "exterior", "generators": [], "terms": []})


def test_generator_order_does_not_matter():
    # two bimodules that differ only in generator order are one bimodule:
    # equal, equally hashed, written alike, read back equal, squared alike
    gens = [("q", "i1", "i1"), ("p", "i0", "i0")]
    terms = [("p", ("r1",), "r1", "q")]
    m, n = make(gens, terms), make(gens[::-1], terms)
    assert m == n and hash(m) == hash(n)
    assert m.generators == (("p", "i0", "i0"), ("q", "i1", "i1"))
    assert dumps_bimodule(m) == dumps_bimodule(n)
    assert bimodule_from_dict(json.loads(dumps_bimodule(m))) == m
    assert hochschild_generators(m) == hochschild_generators(n) == ["p", "q"]
    assert box_tensor(m, m) == box_tensor(n, n)
    box = seed_box()
    for perm in itertools.islice(itertools.permutations(box.generators), 0, None, 17):
        shuffled = DABimodule(perm, box.terms)
        assert shuffled == box and hash(shuffled) == hash(box)


def test_resolve_bimodule_names(tmp_path):
    assert resolve_bimodule("tb_inv") == cfda_tb_inv()
    assert resolve_bimodule("ta") == cfda_ta()
    assert resolve_bimodule("box") == seed_box()
    path = tmp_path / "m.json"
    path.write_text(dumps_bimodule(seed_box()))
    assert resolve_bimodule(str(path)) == seed_box()
