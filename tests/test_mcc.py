"""Windows, the tensor-power action, sectors, staircase positions, probes."""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mcctensor import mcc as mcc_module
from mcctensor.errors import (CrossCheckError, DepthError, InvarianceError,
                              LabelMismatchError, ParseError,
                              TowerValidationError)
from mcctensor.f2cat import (F2Matrix, LabeledSet, apply, compose, invert,
                             tensor_power_finite, word_label)
from mcctensor.mcc import (LazyTower, MccWindow, apply_mcc, cc_probe,
                           dump_window, load_window, odd_spike_series,
                           parse_window, single_spike_series, staircase_position,
                           symmetrized_series)
from mcctensor.towers import dump_tower, dyadic_solenoid, parse_tower

TOWER = dyadic_solenoid(3)
XY = LabeledSet(["x", "y"])


def win(depth, *words):
    return MccWindow(TOWER, XY, depth, {tuple(w) for w in words})


def test_window_construction_and_values():
    w = win(1, "xy", "yy")
    assert w.depth == 1 and not w.is_zero()
    assert w.value(("x", "y")) == 1
    assert w.value(("x", "x")) == 0
    assert w.inv_level == 1
    assert win(1).is_zero()


def test_window_rejects_bad_words():
    with pytest.raises(DepthError):
        win(1, "xyx")
    with pytest.raises(LabelMismatchError):
        win(1, "xz")


def test_window_names_the_first_letter_outside_the_basis():
    for support, letter in (([("x", "y"), ("x", "q"), ("r", "s")], "q"),
                            ([("r", "q")], "r")):
        with pytest.raises(LabelMismatchError) as e:
            MccWindow(TOWER, XY, 1, support)
        assert str(e.value) == f"support word uses letter {letter!r} outside basis ['x', 'y']"


def test_window_invariance_level_recomputed():
    assert win(2, "xyxy").inv_level == 1
    assert win(2, "xxxx").inv_level == 0
    assert win(2, "xxxy").inv_level == 2
    assert win(2, "xy" * 2, "yx" * 2).inv_level == 0


def test_at_depth_pullback_and_restriction():
    w = win(1, "xy")
    up = w.at_depth(3)
    assert up.support == {("x", "y") * 4}
    assert up == w  # equality aligns depths
    # restriction genuinely forgets deep support
    deep = win(2, "xyxy", "xxxy")
    down = deep.at_depth(1)
    assert down.support == {("x", "y")}
    assert deep.restriction_is_zero(0)
    assert not deep.restriction_is_zero(1)


def test_window_sum_aligns_depths():
    a = win(1, "xy")
    b = win(2, "xyxy", "xxxy")
    s = a + b
    assert s.depth == 2
    assert s.support == {("x", "x", "x", "y")}
    assert a + a == win(1)
    with pytest.raises(LabelMismatchError):
        a + MccWindow(TOWER, ["p", "q"], 1, set())


def test_window_cc_sum_method():
    assert win(1, "xx").cc_sum(0) == 1
    assert win(1, "xy", "yx").cc_sum(0) == 0
    assert win(1, "xy").cc_sum(1) == 1
    with pytest.raises(InvarianceError):
        win(1, "xy").cc_sum(0)


def swap_matrix():
    return F2Matrix.from_rows(XY, XY, [[0, 1], [1, 0]])


def test_apply_mcc_swap_example():
    out = apply_mcc(swap_matrix(), win(1, "xy"), 1)
    assert out.support == {("y", "x")}
    out2 = apply_mcc(swap_matrix(), win(1, "xy"), 2)
    assert out2.support == {("y", "x", "y", "x")}


def test_apply_mcc_label_mismatch():
    m = F2Matrix.from_rows(LabeledSet(["a"]), LabeledSet(["a"]), [[1]])
    with pytest.raises(LabelMismatchError):
        apply_mcc(m, win(1, "xy"), 1)


def test_apply_mcc_matches_finite_tensor_oracle():
    rng = random.Random(19)
    for _ in range(40):
        depth = rng.randint(0, 2)
        nrows = rng.randint(1, 3)
        rows = LabeledSet(["abc"[i] for i in range(nrows)])
        m = F2Matrix.from_rows(
            rows, XY, [[rng.randint(0, 1) for _ in range(2)] for _ in range(nrows)])
        support = {tuple(rng.choice("xy") for _ in range(TOWER.size(depth)))
                   for _ in range(rng.randint(0, 4))}
        w = MccWindow(TOWER, XY, depth, support)
        out = apply_mcc(m, w, depth)
        # independent path: materialize the finite tensor power and apply it
        t = tensor_power_finite(m, LabeledSet(TOWER.level(depth).labels))
        expected = apply(t, {word_label(f) for f in w.support})
        assert {word_label(g) for g in out.support} == expected


@st.composite
def functor_cases(draw):
    letters = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                            unique=True))
    basis = LabeledSet(sorted(letters))
    k = len(basis)
    m, n = (F2Matrix.from_rows(
        basis, basis, [[draw(st.integers(0, 1)) for _ in range(k)]
                       for _ in range(k)]) for _ in range(2))
    wd = draw(st.integers(0, 2))
    size = TOWER.size(wd)
    support = draw(st.sets(
        st.tuples(*[st.sampled_from(sorted(letters)) for _ in range(size)]),
        max_size=5))
    d = draw(st.integers(wd, 2))
    return m, n, MccWindow(TOWER, basis, wd, support), d


@settings(max_examples=120, deadline=None)
@given(functor_cases())
def test_apply_mcc_functorial_at_or_above_window_depth(case):
    m, n, w, d = case
    lhs = apply_mcc(compose(n, m), w, d)
    rhs = apply_mcc(n, apply_mcc(m, w, d), d)
    assert lhs == rhs


@st.composite
def windows_and_deeper(draw):
    depth = draw(st.integers(0, 3))
    size = TOWER.size(depth)
    support = draw(st.sets(st.tuples(*[st.sampled_from("xy")] * size), max_size=5))
    return MccWindow(TOWER, XY, depth, support), draw(st.integers(depth, 3))


@settings(max_examples=100, deadline=None)
@given(windows_and_deeper())
def test_window_hash_agrees_with_eq_across_depths(case):
    a, d = case
    b = a.at_depth(d)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_apply_mcc_invariance_bound_is_a_cross_check(monkeypatch):
    # every table reads as invariant only at its own depth, so the output at
    # depth 2 claims level 2 against an input at level 1
    monkeypatch.setattr(mcc_module._tw, "invariance_level_table",
                        lambda tower, support, m: m)
    with pytest.raises(CrossCheckError) as e:
        apply_mcc(swap_matrix(), win(1, "xy"), 2)
    assert e.value.values == {"output_inv_level": 2, "input_inv_level": 1,
                              "out_depth": 2}


OPTIMIZED_PROBE = """
from mcctensor import mcc, towers
from mcctensor.errors import CrossCheckError
from mcctensor.f2cat import F2Matrix, LabeledSet

tower = towers.dyadic_solenoid(2)
xy = LabeledSet(["x", "y"])
swap = F2Matrix.from_rows(xy, xy, [[0, 1], [1, 0]])
window = mcc.MccWindow(tower, xy, 1, {("x", "y")})
towers.invariance_level_table = lambda tower, support, m: m
try:
    mcc.apply_mcc(swap, window, 2)
except CrossCheckError:
    print("apply_mcc bound raised")
"""


def test_cross_checks_survive_optimized_mode():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["apply_mcc bound raised"]


def test_apply_mcc_invertible_roundtrip():
    m = F2Matrix.from_rows(XY, XY, [[1, 1], [0, 1]])
    m_inv = invert(m)
    rng = random.Random(23)
    for _ in range(20):
        depth = rng.randint(0, 2)
        support = {tuple(rng.choice("xy") for _ in range(TOWER.size(depth)))
                   for _ in range(rng.randint(0, 4))}
        w = MccWindow(TOWER, XY, depth, support)
        assert apply_mcc(m_inv, apply_mcc(m, w, depth), depth) == w


def odd_window(depth=3):
    return odd_spike_series(TOWER).window(depth)


def test_staircase_position_examples():
    assert staircase_position(win(1, "xy")) == (1, 1)
    assert staircase_position(win(2, "xxxx")) == (0, 0)
    assert staircase_position(win(1)) == (0, math.inf)
    w7 = odd_window()
    assert len(w7.support) == 7
    assert staircase_position(w7) == (1, 1)
    # subtracting the level-1-visible word pushes the class one layer deeper
    w6 = w7 + win(1, "xy")
    assert len(w6.support) == 6
    assert staircase_position(w6) == (1, 2)


def test_membership_shift_in_level_one_quotient():
    # position (h, d) with h <= 1 < d means: invariant at scale 1 and
    # invisible to every level-<=1 restriction
    w7 = odd_window()
    h7, d7 = staircase_position(w7)
    assert h7 <= 1 and not d7 > 1
    w6 = w7 + win(1, "xy")
    h6, d6 = staircase_position(w6)
    assert h6 <= 1 and d6 > 1
    assert w6.restriction_is_zero(1)


def test_quotient_class_examples():
    # the class in the level-h staircase quotient (h >= inv_level) is the
    # window restricted to depth h
    w7 = odd_window()
    assert w7.at_depth(1) == win(1, "xy")
    assert w7.at_depth(2).support == odd_spike_series(TOWER).table(2)


def test_quotient_class_linear():
    rng = random.Random(31)
    for _ in range(25):
        depth = rng.randint(1, 3)
        mk = lambda: MccWindow(
            TOWER, XY, depth,
            {tuple(rng.choice("xy") for _ in range(TOWER.size(depth)))
             for _ in range(rng.randint(0, 4))})
        a, b = mk(), mk()
        lvl = max(a.inv_level, b.inv_level, (a + b).inv_level)
        assert (a + b).at_depth(lvl) == a.at_depth(lvl) + b.at_depth(lvl)


def test_lazy_tower_tables_and_window():
    lazy = odd_spike_series(TOWER)
    assert lazy.table(0) == frozenset()
    assert lazy.table(1) == {("x", "y")}
    assert lazy.table(2) == {("x", "y", "x", "y"), ("x", "y", "x", "x"),
                             ("x", "x", "x", "y")}
    assert len(lazy.table(3)) == 7
    assert lazy.window(2).support == lazy.table(2)


def test_lazy_tower_restriction_compat_enforced():
    bad = LazyTower(TOWER, XY, lambda m: {("x",)} if m == 0 else set(),
                    name="bad")
    with pytest.raises(TowerValidationError):
        cc_probe(bad, 1)


def test_cc_probe_names_the_incompatible_restriction():
    bad = LazyTower(TOWER, XY, lambda m: {("x", "x")} if m == 1 else set())
    with pytest.raises(TowerValidationError) as e:
        cc_probe(bad, 2)
    assert str(e.value) == (
        "lazy element is not restriction-compatible at level 0: level-1 table "
        "restricts to [('x',)] but level-0 table is []")


def test_cc_probe_divergent_series():
    rep = cc_probe(single_spike_series(TOWER), 3)
    assert [l["inv_level"] for l in rep["levels"]] == [0, 1, 2, 3]
    assert rep["stabilized"] is False
    assert rep["witness_level"] is None
    assert rep["verdict"] == "divergent through probe depth"


def test_cc_probe_symmetrized_series():
    rep = cc_probe(symmetrized_series(TOWER), 3)
    assert [l["inv_level"] for l in rep["levels"]] == [0, 0, 0, 0]
    assert rep["stabilized"] is True
    assert rep["witness_level"] == 0
    assert rep["verdict"] == "cc-witnessed at level 0"


def test_cc_probe_odd_series():
    rep = cc_probe(odd_spike_series(TOWER), 3)
    assert [l["inv_level"] for l in rep["levels"]] == [0, 1, 1, 1]
    assert rep["verdict"] == "cc-witnessed at level 1"
    assert rep["witness_level"] == 1
    assert rep["probe_depth"] == 3 and rep["name"] == "odd-spike"


def test_window_text_roundtrip():
    w = win(2, "xyxy", "xxxy")
    back = parse_window(dump_window(w))
    assert back == w and back.depth == w.depth
    # the dumped reference builds a new tower, equal by structure
    assert back.tower is not TOWER and back.tower == TOWER


def test_window_text_multichar_labels():
    basis = LabeledSet(["e1", "e2"])
    w = MccWindow(TOWER, basis, 1, {("e1", "e2")})
    text = dump_window(w)
    assert "e1,e2 1" in text
    assert parse_window(text) == w


def token_label(label, banned):
    return label.split() == [label] and not any(c in label for c in banned)


@st.composite
def labeled_windows(draw):
    """Windows over random bases: one-character labels (',' included) or
    longer ones, which the format joins with ','; no label holds ':', so no
    word line reads as a header."""
    if draw(st.booleans()):
        labels = st.characters().filter(lambda c: token_label(c, "#:"))
    else:
        labels = st.text(min_size=1, max_size=3).filter(lambda s: token_label(s, "#:,"))
    basis = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    depth = draw(st.integers(0, 2))
    word = st.tuples(*[st.sampled_from(basis)] * TOWER.size(depth))
    return MccWindow(TOWER, basis, depth, draw(st.sets(word, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(labeled_windows())
def test_window_text_round_trips(w):
    back = parse_window(dump_window(w))
    assert back == w and back.depth == w.depth and back.basis == w.basis


@pytest.mark.parametrize("basis, bad", [
    (["x y", "z"], "'x y'"),
    (["x", "#"], "'#'"),
    (["", "x"], "''"),
    (["e1", "a,b"], "'a,b'"),
    (["e1", ","], "','"),
], ids=["space", "hash", "empty", "comma", "bare-comma"])
def test_window_dump_refuses_labels_that_alias(basis, bad):
    with pytest.raises(LabelMismatchError, match=bad):
        dump_window(MccWindow(TOWER, basis, 0, set()))


def test_window_dump_refuses_words_that_read_as_headers():
    letters = list("tower:")
    w = MccWindow(TOWER, letters, 1, {("t", "o")})
    assert parse_window(dump_window(w)) == w
    with pytest.raises(LabelMismatchError, match="'tower:tt'"):
        dump_window(MccWindow(TOWER, letters, 3, {tuple("tower:tt")}))
    with pytest.raises(LabelMismatchError, match="'depth:,e'"):
        dump_window(MccWindow(TOWER, ["depth:", "e"], 1, {("depth:", "e")}))


@pytest.mark.parametrize("dirname", ["plain", "a#b"])
def test_window_dump_names_a_file_tower_by_its_absolute_path(tmp_path, dirname):
    # '#' would start a comment in the tower: line, so that path is refused
    folder = tmp_path / dirname
    folder.mkdir()
    (folder / "t.txt").write_text(dump_tower(dyadic_solenoid(1)))
    (folder / "w.txt").write_text("tower: file t.txt\nbasis: x y\ndepth: 1\nxy 1\n")
    w = load_window(str(folder / "w.txt"))
    assert w.tower.name == f"file {folder / 't.txt'}"
    if "#" not in dirname:
        assert dump_window(w).startswith(f"tower: {w.tower.name}\n")
        return
    with pytest.raises(LabelMismatchError, match="tower reference .*a#b"):
        dump_window(w)


def test_window_dump_refuses_a_tower_without_a_reference():
    # a parsed tower text carries no reference, so no tower: line could
    # name it and the dump would not parse back
    w = MccWindow(parse_tower(dump_tower(dyadic_solenoid(1))), ["x", "y"], 1, {("x", "y")})
    with pytest.raises(LabelMismatchError, match="no reference"):
        dump_window(w)


def test_window_over_a_file_tower_parses_back_from_its_dump(tmp_path):
    (tmp_path / "t.txt").write_text(dump_tower(dyadic_solenoid(2)))
    (tmp_path / "w.txt").write_text("tower: file t.txt\nbasis: x y\ndepth: 2\nxyxy 1\n")
    w = load_window(str(tmp_path / "w.txt"))
    back = parse_window(dump_window(w))
    assert back == w and back.tower.name == w.tower.name
    # a relative path is read from base_dir
    assert parse_window((tmp_path / "w.txt").read_text(), str(tmp_path)) == w


def test_window_text_xor_semantics():
    w = parse_window("tower: dyadic 3\nbasis: x y\ndepth: 1\nxy 1\nxy 1\n")
    assert w.is_zero()
    w = parse_window("tower: dyadic 3\nbasis: x y\ndepth: 1\nxy 1\nxy 0\n")
    assert w.support == {("x", "y")}


def test_window_parse_errors():
    with pytest.raises(ParseError):
        parse_window("tower: dyadic 3\ndepth: 1\nxy 1\n")  # no basis
    with pytest.raises(ParseError):
        parse_window("tower: dyadic 3\nbasis: x y\nxy 1\n")  # no depth
    with pytest.raises(ParseError):
        parse_window("basis: x y\ndepth: 1\n")  # no tower anywhere
    with pytest.raises(ParseError) as e:
        parse_window("tower: dyadic 3\nbasis: x y\ndepth: 1\nxy 2\n")
    assert e.value.line == 4
    with pytest.raises(ParseError):
        parse_window("tower: dyadic 3\nbasis: x y\ndepth: 1\nxyx 1\n")
    with pytest.raises(ParseError):
        parse_window("tower: dyadic 3\nbasis: x y\ndepth: 1\nxz 1\n")
    with pytest.raises(ParseError):
        parse_window("tower: dyadic 3\nbasis: x y\ndepth: one\n")
    with pytest.raises(ParseError, match="repeated header 'depth'") as e:
        parse_window("tower: dyadic 3\nbasis: x y\ndepth: 1\nxy 1\ndepth: 2\n")
    assert e.value.line == 5


def test_window_depth_past_its_tower_is_refused_at_its_line():
    with pytest.raises(ParseError) as e:
        parse_window("tower: dyadic 1\nbasis: x y\ndepth: 3\n")
    assert e.value.line == 3
    assert str(e.value) == "line 3: level 3 out of range 0..1"


@pytest.mark.parametrize("ref", ["dyadic x", "dyadic 2 xq"])
def test_window_tower_header_needs_integer_counts(tmp_path, ref):
    text = f"# a window\ntower: {ref}\nbasis: x y\ndepth: 1\nxy 1\n"
    p = tmp_path / "w.txt"
    p.write_text(text)
    for parse in (lambda: parse_window(text), lambda: load_window(str(p))):
        with pytest.raises(ParseError) as e:
            parse()
        assert e.value.line == 2
        assert str(e.value) == \
            f"line 2: unknown tower reference {ref!r} (expected e.g. 'dyadic 3')"


def test_window_keeps_the_line_of_a_tower_file_error(tmp_path):
    (tmp_path / "t.tower").write_text("levels: 1\nlevel 0: 0\ngen s 0: (0 1)\n")
    p = tmp_path / "w.txt"
    p.write_text("tower: file t.tower\nbasis: x y\ndepth: 0\n")
    with pytest.raises(ParseError) as e:
        load_window(str(p))
    assert e.value.line == 3 and str(e.value).startswith("line 3: ")


def test_load_window_from_file(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("tower: dyadic 2\nbasis: x y\ndepth: 1\nxy 1\n")
    w = load_window(str(p))
    assert w.support == {("x", "y")} and w.tower.max_level == 2
