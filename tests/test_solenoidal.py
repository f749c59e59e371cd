"""Graph bimodule sectors: closed walks, the sector idempotent, morphism actions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import mcctensor.solenoidal as solenoidal_module
from mcctensor.errors import (CompatibilityError, CrossCheckError,
                              LabelMismatchError, MccError, ParseError)
from mcctensor.f2cat import F2Matrix, compose
from mcctensor.mcc import MccWindow, apply_mcc
from mcctensor.solenoidal import (GraphBasis, GraphMorphism,
                                  closed_walk_count_trace,
                                  closed_walk_tensors,
                                  compose_morphisms,
                                  composition_counterexample_search,
                                  dump_graph, e_S_project, fig8,
                                  hh0_inline_power, hh0_quotient_dim,
                                  in_sector, load_graph,
                                  parse_graph, staircase_dims,
                                  transfer_matrix, walks_of_length)
from mcctensor.towers import dyadic_solenoid

TOWER = dyadic_solenoid(2)
G = fig8()


def single_loop():
    return GraphBasis(["v"], ["a"], {"a": "v"}, {"a": "v"})


def test_fig8_shape():
    assert list(G.idempotents.labels) == ["ie", "i0", "i1", "i01"]
    assert len(G.edges) == 7
    assert G.out_edges("i1") == ["w", "x", "y"]


def test_graph_rejects_bad_edges():
    with pytest.raises(LabelMismatchError):
        GraphBasis(["v"], ["a"], {"a": "v"}, {"a": "zzz"})
    with pytest.raises(LabelMismatchError):
        GraphBasis(["v"], ["a"], {}, {"a": "v"})


def test_walks_length_one_are_loops():
    assert set(walks_of_length(G, 1)) == {("t",), ("u",), ("x",), ("y",), ("z",)}


def test_walks_length_two():
    expect = {("t", "t"), ("u", "u"), ("v", "w"), ("w", "v"), ("x", "x"),
              ("x", "y"), ("y", "x"), ("y", "y"), ("z", "z")}
    assert set(walks_of_length(G, 2)) == expect
    with pytest.raises(MccError):
        walks_of_length(G, 0)


def test_walk_counts_match_transfer_trace():
    for length in (1, 2, 3, 4, 8):
        assert len(walks_of_length(G, length)) == \
            closed_walk_count_trace(G, length)
    assert closed_walk_count_trace(G, 8) == 2209


def test_walk_counts_refuse_length_zero():
    with pytest.raises(MccError, match="walk length must be >= 1"):
        closed_walk_count_trace(G, 0)
    with pytest.raises(MccError, match="walk length must be >= 1"):
        hh0_quotient_dim(G, 0)


def test_transfer_matrix_entries():
    assert transfer_matrix(G) == [
        [1, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 2, 0],
        [0, 0, 0, 1],
    ]


def test_closed_walk_tensors_level_sizes():
    assert len(closed_walk_tensors(G, TOWER, 0)) == 5
    assert len(closed_walk_tensors(G, TOWER, 1)) == 9
    assert len(closed_walk_tensors(G, TOWER, 2)) == 49
    assert ("v", "w") in closed_walk_tensors(G, TOWER, 1)


def test_staircase_dims_fig8():
    assert staircase_dims(G, TOWER, 2) == [5, 9, 49]
    assert staircase_dims(G, dyadic_solenoid(3), 3) == [5, 9, 49, 2209]


def test_staircase_dims_single_loop():
    assert staircase_dims(single_loop(), TOWER, 2) == [1, 1, 1]


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_staircase_dims_fig8_are_lucas_numbers():
    # fig8's transfer matrix is (1) + [[1,1],[1,2]] + (1), whose 2-by-2 block
    # has trace(C^k) = L(2k); a third check beside the trace and the box side
    dims = staircase_dims(G, dyadic_solenoid(5), 5)
    assert dims == [lucas(2 ** (m + 1)) + 2 for m in range(6)]
    assert dims[-1] == 23_725_150_497_409


def test_staircase_dims_list_no_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("staircase_dims listed walks")
    monkeypatch.setattr(solenoidal_module, "walks_of_length", refuse)
    monkeypatch.setattr(solenoidal_module, "_chained_words", refuse)
    assert staircase_dims(G, dyadic_solenoid(3), 3) == [5, 9, 49, 2209]


def test_in_sector_and_projection():
    full = MccWindow(TOWER, G.edges, 1, set(TOWER.words(1, G.edges.labels)))
    assert not in_sector(G, full)
    proj = e_S_project(full, G)
    assert in_sector(G, proj)
    assert proj.support == set(closed_walk_tensors(G, TOWER, 1))
    with pytest.raises(LabelMismatchError):
        e_S_project(MccWindow(TOWER, ["x", "y"], 1, set()), G)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.tuples(st.sampled_from("tuvwxyz"), st.sampled_from("tuvwxyz")),
               max_size=8))
def test_sector_projection_idempotent(words):
    w = MccWindow(TOWER, G.edges, 1, words)
    once = e_S_project(w, G)
    assert once.support <= w.support
    assert e_S_project(once, G) == once


def swap_xy_morphism():
    keep = [(e, e) for e in "tuvwz"]
    return GraphMorphism(G, G, keep + [("x", "y"), ("y", "x")])


def test_morphism_validation():
    m = swap_xy_morphism()
    assert ("x", "y") in m.entries
    with pytest.raises(CompatibilityError):
        GraphMorphism(G, G, [("t", "v")])
    with pytest.raises(LabelMismatchError):
        GraphMorphism(G, G, [("t", "qq")])


def test_identity_and_composition_of_morphisms():
    ident = GraphMorphism(G, G, [(e, e) for e in G.edges.labels])
    m = swap_xy_morphism()
    assert compose_morphisms(ident, m).entries == m.entries
    assert compose_morphisms(m, m).entries == ident.entries


def test_apply_solenoidal_swap():
    from mcctensor.solenoidal import apply_solenoidal
    w = MccWindow(TOWER, G.edges, 1, {("x", "y")})
    out = apply_solenoidal(swap_xy_morphism(), w, 1)
    assert out.support == {("y", "x")}


def test_apply_solenoidal_projects_off_sector_input_away():
    from mcctensor.solenoidal import apply_solenoidal
    off = MccWindow(TOWER, G.edges, 1, {("v", "v")})
    assert apply_solenoidal(swap_xy_morphism(), off, 1).is_zero()
    # only the off-sector words go: the loop t survives next to v
    w = MccWindow(TOWER, G.edges, 0, {("t",), ("v",)})
    assert apply_solenoidal(swap_xy_morphism(), w, 0).support == {("t",)}


def random_compatible_endomorphism(rng):
    by_sig = {}
    for e in G.edges.labels:
        by_sig.setdefault((G.s[e], G.t[e]), []).append(e)
    entries = []
    for sig, es in by_sig.items():
        for c in es:
            for b in es:
                if rng.random() < 0.5:
                    entries.append((c, b))
    return GraphMorphism(G, G, entries)


def test_solenoidal_functor_law_for_compatible_morphisms():
    from mcctensor.solenoidal import apply_solenoidal
    rng = random.Random(41)
    tensors = {d: closed_walk_tensors(G, TOWER, d) for d in (0, 1)}
    for _ in range(40):
        m = random_compatible_endomorphism(rng)
        n = random_compatible_endomorphism(rng)
        d = rng.choice([0, 1])
        support = set(rng.sample(tensors[d], rng.randint(0, 3)))
        w = MccWindow(TOWER, G.edges, d, support)
        out_d = rng.randint(d, 2)
        lhs = apply_solenoidal(compose_morphisms(n, m), w, out_d)
        rhs = apply_solenoidal(n, apply_solenoidal(m, w, out_d), out_d)
        assert lhs == rhs


def test_hh0_inline_power_with_oracle():
    assert hh0_inline_power(G, 1)[0] == 5
    dim, reps = hh0_inline_power(G, 2)
    assert dim == 9 and ("v", "w") in reps
    assert hh0_quotient_dim(G, 1) == 5
    assert hh0_quotient_dim(G, 4) == 49


def test_hh0_oracle_is_a_cross_check(monkeypatch):
    real = solenoidal_module.hh0_quotient_dim
    monkeypatch.setattr(solenoidal_module, "hh0_quotient_dim",
                        lambda g, n: real(g, n) + 1)
    with pytest.raises(CrossCheckError) as e:
        hh0_inline_power(G, 2)
    assert e.value.values == {"n": 2, "oracle": 10, "walks": 9}


def test_hh0_random_graphs_walks_equal_quotient():
    rng = random.Random(43)
    for _ in range(25):
        n_idem = rng.randint(1, 3)
        idem = ["k%d" % i for i in range(n_idem)]
        n_edges = rng.randint(1, 5)
        names = ["e%d" % i for i in range(n_edges)]
        s = {e: rng.choice(idem) for e in names}
        t = {e: rng.choice(idem) for e in names}
        g = GraphBasis(idem, names, s, t)
        for power in (1, 2, 3, 4):
            assert len(walks_of_length(g, power)) == hh0_quotient_dim(g, power)


def test_counterexample_search_finds_incompatible_witness():
    wit = composition_counterexample_search(G)
    assert wit is not None
    assert wit["depth"] == 0
    assert wit["trials"] == 481
    assert wit["m_entries"] == [("v", "t")]
    assert wit["n_entries"] == [("t", "v")]
    assert wit["word"] == ("t",)
    # replay both evaluation orders: the witness is genuine, not a fluke
    tower = dyadic_solenoid(1)
    m = F2Matrix.from_entries(G.edges, G.edges, wit["m_entries"])
    n = F2Matrix.from_entries(G.edges, G.edges, wit["n_entries"])
    w = MccWindow(tower, G.edges, wit["depth"], {wit["word"]})
    lhs = e_S_project(apply_mcc(compose(n, m), w, wit["depth"]), G)
    mid = e_S_project(apply_mcc(m, w, wit["depth"]), G)
    rhs = e_S_project(apply_mcc(n, mid, wit["depth"]), G)
    assert lhs != rhs
    assert sorted(lhs.support) == wit["lhs_support"]
    assert sorted(rhs.support) == wit["rhs_support"]


def test_counterexample_search_is_deterministic():
    assert composition_counterexample_search(G) == \
        composition_counterexample_search(G)


def test_counterexample_search_bound_zero():
    assert composition_counterexample_search(G, bound=0) is None


def test_counterexample_search_terminates_when_all_pairs_compatible():
    # a single loop admits no incompatible pair; the budget must still drain
    assert composition_counterexample_search(single_loop(), bound=200) is None


def two_cycle():
    """Two idempotents and one edge each way: no loops, so no depth-0
    closed walk and nothing for the exhaustive single-entry probe."""
    return GraphBasis(["a", "b"], ["v", "w"], {"v": "a", "w": "b"}, {"v": "b", "w": "a"})


def functor_law_sides(g, m_entries, n_entries, word, depth):
    tower = dyadic_solenoid(1)
    m = F2Matrix.from_entries(g.edges, g.edges, m_entries)
    n = F2Matrix.from_entries(g.edges, g.edges, n_entries)
    w = MccWindow(tower, g.edges, depth, {word})
    lhs = e_S_project(apply_mcc(compose(n, m), w, depth), g)
    rhs = e_S_project(apply_mcc(n, e_S_project(apply_mcc(m, w, depth), g), depth), g)
    return lhs, rhs


def test_loopless_two_cycle_has_a_depth_one_witness():
    g = two_cycle()
    assert closed_walk_tensors(g, dyadic_solenoid(1), 0) == []
    lhs, rhs = functor_law_sides(g, [("v", "v"), ("v", "w")], [("v", "v"), ("w", "v")],
                                 ("v", "w"), 1)
    assert lhs != rhs


@pytest.mark.parametrize("seed", range(10))
def test_counterexample_search_phase_two_on_loopless_graph(seed):
    # Phase 1 has no depth-0 window here; a depth-0 draw in Phase 2 must
    # skip to the next trial, not end the search
    g = two_cycle()
    wit = composition_counterexample_search(g, seed=seed)
    assert wit is not None and wit["depth"] == 1
    lhs, rhs = functor_law_sides(g, wit["m_entries"], wit["n_entries"], wit["word"], 1)
    assert lhs != rhs
    assert sorted(lhs.support) == wit["lhs_support"]
    assert sorted(rhs.support) == wit["rhs_support"]


def test_graph_text_roundtrip():
    g2 = parse_graph(dump_graph(G))
    assert list(g2.idempotents.labels) == list(G.idempotents.labels)
    assert list(g2.edges.labels) == list(G.edges.labels)
    assert g2.s == G.s and g2.t == G.t


TOKEN_LABELS = st.text(min_size=1, max_size=3).filter(
    lambda label: label.split() == [label] and "#" not in label)


@st.composite
def token_graphs(draw):
    idem = draw(st.lists(TOKEN_LABELS, min_size=1, max_size=3, unique=True))
    edges = draw(st.lists(TOKEN_LABELS, max_size=4, unique=True))
    ends = st.sampled_from(idem)
    return GraphBasis(idem, edges, {e: draw(ends) for e in edges},
                      {e: draw(ends) for e in edges})


@settings(max_examples=200, deadline=None)
@given(token_graphs())
def test_graph_text_round_trips(g):
    g2 = parse_graph(dump_graph(g))
    assert list(g2.idempotents.labels) == list(g.idempotents.labels)
    assert list(g2.edges.labels) == list(g.edges.labels)
    assert g2.s == g.s and g2.t == g.t


@pytest.mark.parametrize("idem, edges, bad", [
    (["v w"], ["a"], "'v w'"),
    (["v"], ["a#"], "'a#'"),
], ids=["space", "hash"])
def test_graph_dump_refuses_labels_that_alias(idem, edges, bad):
    g = GraphBasis(idem, edges, {e: idem[0] for e in edges}, {e: idem[0] for e in edges})
    with pytest.raises(LabelMismatchError, match=bad):
        dump_graph(g)


def test_graph_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("edge a v v\n")  # no idempotents header
    with pytest.raises(ParseError) as e:
        parse_graph("idempotents: v\nedge a v\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_graph("idempotents: v\nedge a v v\nedge a v v\n")
    with pytest.raises(ParseError):
        parse_graph("idempotents: v\nedge a v zzz\n")
    with pytest.raises(ParseError):
        parse_graph("idempotents: v\nwhat is this\n")
    with pytest.raises(ParseError, match="repeated header 'idempotents'") as e:
        parse_graph("idempotents: v\nedge a v v\nidempotents: v w\n")
    assert e.value.line == 3


def test_load_graph(tmp_path):
    assert load_graph("fig8").s == G.s
    p = tmp_path / "g.txt"
    p.write_text(dump_graph(single_loop()))
    assert load_graph(str(p)).s == {"a": "v"}
