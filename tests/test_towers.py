"""Dyadic towers: words, kernels, invariance, the conditionally convergent sum."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from mcctensor.errors import (DepthError, InvarianceError, LabelMismatchError,
                              MissingShiftError, ParseError, TowerValidationError)
from mcctensor.towers import (DyadicTower, act_word, cc_sum, dump_tower,
                              dyadic_solenoid, invariance_level,
                              invariance_level_table, parse_tower,
                              tower_from_reference)


@pytest.fixture(scope="module")
def tower():
    return dyadic_solenoid(3)


def test_solenoid_level_sizes(tower):
    assert tower.max_level == 3
    assert [tower.size(m) for m in range(4)] == [1, 2, 4, 8]
    assert list(tower.level(2).labels) == ["0", "1", "2", "3"]


def test_solenoid_group_and_kernel_sizes(tower):
    assert [len(tower.group(m)) for m in range(4)] == [1, 2, 4, 8]
    # kernel of the projection m -> h has index 2^h
    assert len(tower.kernel(3, 0)) == 8
    assert len(tower.kernel(3, 1)) == 4
    assert len(tower.kernel(3, 2)) == 2
    assert len(tower.kernel(3, 3)) == 1
    with pytest.raises(DepthError):
        tower.kernel(1, 2)


def test_act_word_pushes_values_forward(tower):
    # +1 rotation: the value at position i moves to position i+1
    s = tower.shift_perm(2)
    assert act_word(s, ("x", "x", "x", "y")) == ("y", "x", "x", "x")
    assert act_word(s, ("x", "y", "x", "y")) == ("y", "x", "y", "x")


def test_act_word_is_a_group_action(tower):
    g = tower.group(3)
    rng = random.Random(0)
    for _ in range(25):
        w = tuple(rng.choice("xy") for _ in range(8))
        a, b = rng.choice(g), rng.choice(g)
        ab = tuple(a[b[i]] for i in range(8))
        assert act_word(ab, w) == act_word(a, act_word(b, w))


def test_no_shift_tower_raises():
    plain = DyadicTower([["0"], ["0", "1"]], [{"0": "0", "1": "0"}],
                        {"s": [{}, {"0": "1", "1": "0"}]})
    with pytest.raises(MissingShiftError):
        plain.shift_perm(1)


def test_invariance_level_examples(tower):
    assert invariance_level(tower, ("v", "w"), 1) == 1
    assert invariance_level(tower, ("v", "v"), 1) == 0
    assert invariance_level(tower, ("v", "w", "u", "u"), 2) == 2
    assert invariance_level(tower, ("v", "w", "v", "w"), 2) == 1
    assert invariance_level(tower, ("v",) * 8, 3) == 0


def test_invariance_level_table_examples(tower):
    # the two-word orbit is invariant as a set even though neither word is
    assert invariance_level_table(tower, {("x", "y"), ("y", "x")}, 1) == 0
    assert invariance_level_table(tower, {("x", "y")}, 1) == 1
    assert invariance_level_table(tower, set(), 2) == 0


@pytest.mark.parametrize("m", [-1, 4])
def test_invariance_level_refuses_a_level_outside_the_tower(tower, m):
    with pytest.raises(DepthError):
        invariance_level_table(tower, set(), m)


def test_invariance_level_table_monotone_under_closure(tower):
    rng = random.Random(5)
    for _ in range(40):
        depth = rng.randint(1, 3)
        words = {tuple(rng.choice("xy") for _ in range(tower.size(depth)))
                 for _ in range(rng.randint(1, 4))}
        h = rng.randint(0, depth)
        closed = set()
        for w in words:
            for s in tower.kernel(depth, h):
                closed.add(act_word(s, w))
        assert invariance_level_table(tower, closed, depth) <= h


def test_cc_sum_fixed_point_contributes(tower):
    assert cc_sum(tower, ("x", "y"), {("x", "x")}, depth=1, level=0) == 1


def test_cc_sum_free_orbit_cancels(tower):
    assert cc_sum(tower, ("x", "y"), {("x", "y"), ("y", "x")}, depth=1, level=0) == 0


def test_cc_sum_deeper_example(tower):
    # constant word: fixed at every level, single contribution
    assert cc_sum(tower, ("x", "y"), {("x",) * 4}, depth=2, level=0) == 1
    # the full 4-cycle orbit of xxxy has no fixed words at level 0
    orbit = set()
    w = ("x", "x", "x", "y")
    for _ in range(4):
        orbit.add(w)
        w = act_word(tower.shift_perm(2), w)
    assert len(orbit) == 4
    assert cc_sum(tower, ("x", "y"), orbit, depth=2, level=0) == 0


def test_cc_sum_level_independent_randomized(tower):
    rng = random.Random(11)
    for _ in range(60):
        depth = rng.randint(1, 3)
        h = rng.randint(0, depth)
        support = set()
        for _ in range(rng.randint(1, 5)):
            w = tuple(rng.choice("xy") for _ in range(tower.size(depth)))
            for s in tower.kernel(depth, h):
                support.add(act_word(s, w))
        vals = [cc_sum(tower, ("x", "y"), support, depth, lvl)
                for lvl in range(h, depth + 1)]
        assert len(set(vals)) == 1


def test_cc_sum_rejects_non_invariant_table(tower):
    with pytest.raises(InvarianceError) as e:
        cc_sum(tower, ("x", "y"), {("x", "y")}, depth=1, level=0)
    assert e.value.pair == (("x", "y"), ("y", "x"))


def test_cc_sum_rejects_bad_words(tower):
    with pytest.raises(DepthError):
        cc_sum(tower, ("x", "y"), {("x", "y")}, depth=2, level=0)
    with pytest.raises(InvarianceError):
        cc_sum(tower, ("x", "y"), {("q", "q")}, depth=1, level=0)


def test_two_copy_solenoid():
    t2 = tower_from_reference("dyadic 2 x2")
    assert [t2.size(m) for m in range(3)] == [2, 4, 8]
    assert list(t2.level(1).labels) == ["a0", "a1", "b0", "b1"]
    # one rotation generator per copy: the level-1 group is Z/2 x Z/2
    assert t2.gen_names == ("sa", "sb")
    assert len(t2.group(1)) == 4
    # the shift rotates both copies at once
    s = t2.shift_perm(1)
    assert act_word(s, ("p", "q", "r", "r")) == ("q", "p", "r", "r")


def test_word_pull_factor_compress(tower):
    assert tower.pull_word(("x", "y"), 1, 2) == ("x", "y", "x", "y")
    assert tower.pull_word(("x", "y"), 1, 3) == ("x", "y") * 4
    assert tower.factor_level(("x", "y", "x", "y"), 2) == 1
    assert tower.factor_level(("x", "x", "x", "x"), 2) == 0
    assert tower.factor_level(("x", "x", "x", "y"), 2) == 2
    assert tower.compress_word(("x", "y", "x", "y"), 2, 1) == ("x", "y")
    assert tower.compress_word(("x", "x", "x", "y"), 2, 1) is None


def test_words_enumeration(tower):
    ws = list(tower.words(1, ("x", "y")))
    assert ws == [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]


def test_validation_rejects_bad_fiber():
    # a 3-element fiber is not a power of 2
    with pytest.raises(TowerValidationError):
        DyadicTower([["0"], ["0", "1", "2"]],
                    [{"0": "0", "1": "0", "2": "0"}], {"id": [{}, {}]})


def test_validation_rejects_non_commuting_generator():
    # the swap upstairs does not commute with a projection separating 0,1
    levels = [["0", "1"], ["0", "1", "2", "3"]]
    proj = [{"0": "0", "1": "0", "2": "1", "3": "1"}]
    swap = [{}, {"0": "2", "2": "0"}]
    with pytest.raises(TowerValidationError, match="^generator 's' does not commute"):
        DyadicTower(levels, proj, {"s": swap})
    with pytest.raises(TowerValidationError, match="^shift does not commute with the "
                                                   "projection to level 0 at '0'$"):
        DyadicTower(levels, proj, {"id": [{}, {}]}, shift=swap)


def test_validation_rejects_odd_group():
    with pytest.raises(TowerValidationError):
        DyadicTower([["0", "1", "2"]], [], {"r": [{"0": "1", "1": "2", "2": "0"}]})


def relabelled(tower, names):
    """The same tower with the points of level m renamed to names[m]."""
    levels = range(tower.max_level + 1)

    def perm(p, m):
        return {names[m][i]: names[m][j] for i, j in enumerate(p)}

    return DyadicTower(
        names,
        [{names[m + 1][i]: names[m][j] for i, j in enumerate(c2p)}
         for m, c2p in enumerate(tower.child_to_parent)],
        {g: [perm(tower.gens[g][m], m) for m in levels] for g in tower.gen_names},
        shift=[perm(tower.shift[m], m) for m in levels])


# plain tokens, and the labels the text would misread: headers, separators,
# whitespace and comments
POINT_LABELS = st.one_of(
    st.text(alphabet="ab01", min_size=1, max_size=3),
    st.sampled_from(["gen", "level", "proj", "shift", "levels:x", "a->b", "a)(b",
                     "x y", "#", "a:b", "(a", "b)", "()"]),
    st.text(max_size=2))


def writable(label):
    return (label.split() == [label] and "#" not in label and "->" not in label
            and ")(" not in label and not label.startswith("levels:")
            and label not in ("level", "proj", "gen", "shift"))


@st.composite
def towers_to_write(draw):
    tower = dyadic_solenoid(draw(st.integers(0, 3)), copies=draw(st.integers(1, 3)))
    if draw(st.booleans()):
        tower = relabelled(tower, [
            draw(st.lists(POINT_LABELS, min_size=len(level), max_size=len(level),
                          unique=True)) for level in tower.levels])
    return tower


@settings(max_examples=150, deadline=None)
@given(towers_to_write())
def test_tower_text_roundtrip(tower):
    labels = [l for level in tower.levels for l in level.labels]
    try:
        text = dump_tower(tower)
    except LabelMismatchError:
        assert not all(map(writable, labels))
        return
    assert all(map(writable, labels))
    back = parse_tower(text)
    assert [l.labels for l in back.levels] == [l.labels for l in tower.levels]
    assert back.child_to_parent == tower.child_to_parent
    assert back.gen_names == tower.gen_names
    assert back.gens == tower.gens
    assert back.shift == tower.shift
    assert dump_tower(back) == text


def test_towers_compare_by_structure():
    t = dyadic_solenoid(3)
    text = dump_tower(t)
    back = parse_tower(text)
    assert back == t and hash(back) == hash(t)
    assert back.name is None and t.name == "dyadic 3"
    assert t != dyadic_solenoid(2)
    unshifted = parse_tower("".join(line for line in text.splitlines(keepends=True)
                                    if not line.startswith("shift ")))
    assert unshifted.shift is None and unshifted != t


def test_tower_dump_refuses_unwritable_names():
    t = dyadic_solenoid(1)
    with pytest.raises(LabelMismatchError, match="level-1 label 'gen'"):
        dump_tower(relabelled(t, [["r"], ["gen", "b"]]))
    odd = DyadicTower([["r"]], [], {"s:1": [{}]})
    with pytest.raises(LabelMismatchError, match="generator name 's:1'"):
        dump_tower(odd)


def test_tower_parse_errors():
    with pytest.raises(ParseError):
        parse_tower("level 0: 0\n")  # no levels: header
    with pytest.raises(ParseError) as e:
        parse_tower("levels: 1\nlevel 0: 0\ngen s 0: (0 1)\n")
    assert e.value.line == 3  # cycle names an unknown label
    with pytest.raises(ParseError):
        parse_tower("levels: 2\nlevel 0: 0\nlevel 1: 0 1\n")  # missing proj
    # a second proj block would drop the first block's entries
    text = "levels: 2\nlevel 0: 0\nlevel 1: 0 1\nproj 1:\n0 -> 0\nproj  1:\n1 -> 0\n"
    with pytest.raises(ParseError, match="repeated header 'proj 1'") as e:
        parse_tower(text)
    assert e.value.line == 6
    with pytest.raises(ParseError, match="repeated header 'level 0'") as e:
        parse_tower("levels: 1\nlevel 0: 0\nlevel 0: 1\n")
    assert e.value.line == 3
    # a child listed twice would keep only its last parent, so two texts
    # would alias one tower
    text = ("levels: 2\nlevel 0: r s\nlevel 1: a b c d\nproj 1:\n"
            "a -> r\nb -> r\nc -> s\nd -> s\na -> s\nb -> s\nc -> r\nd -> r\n")
    with pytest.raises(ParseError, match="child 'a' is already projected on line 5") as e:
        parse_tower(text)
    assert e.value.line == 9


@pytest.mark.parametrize("block", ["level 5: q", "proj 2:", "proj 0:", "gen s 2: ()",
                                   "shift 7: ()", "level -1: q"])
def test_tower_blocks_past_levels_are_refused_at_their_line(block):
    text = dump_tower(dyadic_solenoid(1))
    with pytest.raises(ParseError, match="names no level of this tower") as e:
        parse_tower(text + block + "\n")
    assert e.value.line == len(text.splitlines()) + 1


@pytest.mark.parametrize("max_level, copies, over", [(30, 1, 14), (2, 9999, 1),
                                                      (14, 1, 14), (4, 4, 4)])
def test_over_cap_solenoid_is_refused_before_building(max_level, copies, over):
    t0 = time.monotonic()
    with pytest.raises(TowerValidationError,
                       match=f"^level-{over} group exceeds size cap 8192$"):
        dyadic_solenoid(max_level, copies=copies)
    assert time.monotonic() - t0 < 0.5


@pytest.mark.parametrize("copies", [9999, 91])
def test_many_copy_solenoid_is_refused_before_building(copies):
    # the level-0 group is trivial, but the generator tables are not
    t0 = time.monotonic()
    with pytest.raises(TowerValidationError,
                       match=f"^{copies} copies at level 0 need {copies * copies} "
                             f"generator-table entries, over the size cap 8192$"):
        dyadic_solenoid(0, copies=copies)
    assert time.monotonic() - t0 < 0.5


def test_ninety_copy_solenoid_still_builds():
    tower = dyadic_solenoid(0, copies=90)
    assert tower.size(0) == 90 and len(tower.gen_names) == 90


def test_level_thirteen_solenoid_sits_on_the_table_cap(monkeypatch):
    # one copy at level 13 has exactly GROUP_SIZE_CAP table entries and is
    # not refused; the stub skips listing its 8192-element group
    monkeypatch.setattr("mcctensor.towers.DyadicTower", lambda *args, **kwargs: "built")
    assert dyadic_solenoid(13) == "built"


def test_tower_from_reference():
    t = tower_from_reference("dyadic 3")
    assert t.max_level == 3 and t.size(3) == 8
    with pytest.raises(ParseError):
        tower_from_reference("triadic 3")
