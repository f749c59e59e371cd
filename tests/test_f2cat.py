"""Labeled F2 matrices: composition, finite tensor powers, file format."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mcctensor.errors import LabelMismatchError, ParseError, SizeCapError
from mcctensor.f2cat import (
    DEFAULT_ENTRY_CAP,
    F2Matrix,
    LabeledSet,
    add,
    apply,
    compose,
    dump_matrix,
    identity,
    invert,
    parse_matrix,
    rank,
    require_word_labels,
    tensor_power_finite,
    word_label,
    zero,
)

AB = LabeledSet(["a", "b"])


def mat(rows, cols, lists):
    return F2Matrix.from_rows(LabeledSet(rows), LabeledSet(cols), lists)


def test_labeled_set_rejects_duplicates():
    with pytest.raises(LabelMismatchError):
        LabeledSet(["a", "a"])


def test_labeled_set_passes_itself_through():
    assert LabeledSet(AB) is AB
    assert F2Matrix(AB, AB, [1, 2]).rows is AB


def test_word_label_single_characters_concatenate():
    assert word_label(("x", "y", "x")) == "xyx"
    assert word_label(("e1", "e2")) == "e1,e2"
    assert word_label(()) == ""


def accepted(basis):
    try:
        require_word_labels(basis, "basis")
    except LabelMismatchError:
        return False
    return True


# bases of single characters, bases of longer labels, and mixtures, over an
# alphabet holding ','
BASES = st.one_of(
    st.lists(st.sampled_from("ab,"), min_size=1, unique=True),
    st.lists(st.text(alphabet="a,", max_size=3), min_size=1, max_size=4, unique=True))


@settings(max_examples=200, deadline=None)
@given(BASES, st.integers(0, 3))
def test_word_label_is_injective_on_accepted_bases(basis, n):
    if accepted(basis):
        words = list(itertools.product(basis, repeat=n))
        assert len({word_label(w) for w in words}) == len(words)


def test_tensor_power_refuses_labels_word_label_cannot_tell_apart():
    # ("a,b", "c") and ("a", "b,c") would both be labeled "a,b,c"
    m = mat(["a,b", "c", "a", "b,c"], "x", [[1], [0], [1], [0]])
    with pytest.raises(LabelMismatchError, match="row label 'a,b'"):
        tensor_power_finite(m, ["p", "q"])
    with pytest.raises(LabelMismatchError, match="column label ''"):
        tensor_power_finite(mat("x", ["", "y"], [[1, 0]]), ["p"])
    # in a basis of single characters a ',' is a letter like any other
    m = mat([",", "a"], "x", [[1], [1]])
    assert tensor_power_finite(m, ["p", "q"]).rows.labels == (",,", ",a", "a,", "aa")


def test_entry_and_to_lists():
    m = mat("ab", "ab", [[1, 0], [1, 1]])
    assert m.entry("a", "a") == 1
    assert m.entry("a", "b") == 0
    assert m.to_lists() == [[1, 0], [1, 1]]


def test_compose_oracle():
    # hand-multiplied: N=[[1,1],[0,1]], M=[[1,0],[1,1]] -> NM=[[0,1],[1,1]]
    n = mat("ab", "ab", [[1, 1], [0, 1]])
    m = mat("ab", "ab", [[1, 0], [1, 1]])
    assert compose(n, m).to_lists() == [[0, 1], [1, 1]]


def test_compose_label_mismatch():
    n = mat("ab", "ab", [[1, 0], [0, 1]])
    m = mat("xy", "ab", [[1, 0], [0, 1]])
    with pytest.raises(LabelMismatchError):
        compose(n, m)


def test_compose_associative_exhaustive_2x2():
    mats = [mat("ab", "ab", [[r >> 1 & 1, r & 1], [s >> 1 & 1, s & 1]])
            for r in range(4) for s in range(4)]
    for a in mats:
        for b in mats:
            for c in mats:
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_associative_random_3x3():
    rng = random.Random(7)
    labels = ["a", "b", "c"]
    for _ in range(200):
        a, b, c = (mat(labels, labels, [[rng.randint(0, 1) for _ in labels]
                                        for _ in labels]) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_identity_and_zero_are_units():
    m = mat("ab", "xy", [[1, 1], [0, 1]])
    assert compose(identity(m.rows), m) == m
    assert compose(m, identity(m.cols)) == m
    assert add(m, zero(m.rows, m.cols)) == m
    assert add(m, m) == zero(m.rows, m.cols)


def test_apply_is_matrix_vector_product():
    m = mat("ab", "xy", [[1, 1], [0, 1]])
    assert apply(m, {"x"}) == frozenset({"a"})
    assert apply(m, {"y"}) == frozenset({"a", "b"})
    assert apply(m, {"x", "y"}) == frozenset({"b"})
    assert apply(m, set()) == frozenset()
    with pytest.raises(LabelMismatchError):
        apply(m, {"zzz"})


def naive_tensor_entry(m, g_word, f_word):
    """Independent oracle: the tensor entry is the product of factor entries."""
    v = 1
    for g, f in zip(g_word, f_word):
        v *= m.entry(g, f)
    return v


def test_tensor_power_matches_bruteforce():
    m = mat("ab", "xyz", [[1, 0, 1], [1, 1, 0]])
    for size in (1, 2):
        x = LabeledSet([str(i) for i in range(size)])
        t = tensor_power_finite(m, x)
        rows = list(itertools.product(m.rows.labels, repeat=size))
        cols = list(itertools.product(m.cols.labels, repeat=size))
        assert list(t.rows.labels) == [word_label(w) for w in rows]
        assert list(t.cols.labels) == [word_label(w) for w in cols]
        for g in rows:
            for f in cols:
                assert t.entry(word_label(g), word_label(f)) == \
                    naive_tensor_entry(m, g, f)


def test_tensor_power_empty_index_is_scalar_identity():
    m = mat("ab", "xy", [[1, 1], [0, 1]])
    t = tensor_power_finite(m, LabeledSet([]))
    assert list(t.rows.labels) == [""]
    assert list(t.cols.labels) == [""]
    assert t.entry("", "") == 1


def test_tensor_power_functor_law():
    rng = random.Random(3)
    for _ in range(30):
        nb = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        nd = rng.randint(1, 3)
        bs = ["b%d" % i for i in range(nb)]
        cs = ["c%d" % i for i in range(nc)]
        ds = ["d%d" % i for i in range(nd)]
        m = mat(cs, bs, [[rng.randint(0, 1) for _ in bs] for _ in cs])
        n = mat(ds, cs, [[rng.randint(0, 1) for _ in cs] for _ in ds])
        x = LabeledSet(["p", "q"])
        lhs = tensor_power_finite(compose(n, m), x)
        rhs = compose(tensor_power_finite(n, x), tensor_power_finite(m, x))
        assert lhs == rhs


def test_tensor_power_entry_cap():
    m = mat("ab", "ab", [[1, 0], [0, 1]])
    x = LabeledSet([str(i) for i in range(12)])  # 2^12 x 2^12 > 2^20
    with pytest.raises(SizeCapError):
        tensor_power_finite(m, x)
    assert DEFAULT_ENTRY_CAP == 1 << 20


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    labels = ["r%d" % i for i in range(n)]
    lists = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    return mat(labels, labels, lists)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_invert_roundtrip_or_singular(m):
    inv = invert(m)
    if inv is None:
        assert rank(m) < len(m.rows)
    else:
        assert compose(inv, m) == identity(m.cols)
        assert compose(m, inv) == identity(m.rows)


def test_rank_examples():
    assert rank(mat("ab", "ab", [[1, 0], [0, 1]])) == 2
    assert rank(mat("ab", "ab", [[1, 1], [1, 1]])) == 1
    assert rank(zero(AB, AB)) == 0


def test_invert_known_singular():
    assert invert(mat("ab", "ab", [[1, 1], [1, 1]])) is None


def test_matrix_text_roundtrip():
    m = mat("ab", "xyz", [[1, 0, 1], [1, 1, 0]])
    assert parse_matrix(dump_matrix(m)) == m


def token_label(label):
    """Whether a line-based text format can carry `label` as one token."""
    return label.split() == [label] and "#" not in label


TOKEN_LABELS = st.text(min_size=1, max_size=3).filter(token_label)


@st.composite
def labeled_matrices(draw):
    rows = draw(st.lists(TOKEN_LABELS, max_size=3, unique=True))
    cols = draw(st.lists(TOKEN_LABELS, max_size=3, unique=True))
    row = st.lists(st.integers(0, 1), min_size=len(cols), max_size=len(cols))
    return mat(rows, cols, draw(st.lists(row, min_size=len(rows), max_size=len(rows))))


@settings(max_examples=200, deadline=None)
@given(labeled_matrices())
def test_matrix_text_round_trips(m):
    assert parse_matrix(dump_matrix(m)) == m


def test_matrix_without_columns_round_trips():
    # its data rows are blank lines
    m = mat("ab", "", [[], []])
    assert parse_matrix(dump_matrix(m)) == m


def test_matrix_dump_refuses_labels_that_alias():
    # "x y" would be written as two row labels: the text then fails to parse
    # or, with a matching row count, reads back as another matrix
    with pytest.raises(LabelMismatchError, match="'x y'"):
        dump_matrix(mat(["x y", "z"], "ab", [[1, 0], [0, 1]]))
    with pytest.raises(LabelMismatchError, match="'b#'"):
        dump_matrix(mat("a", ["b#"], [[1]]))


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=3).filter(lambda label: not token_label(label)))
def test_matrix_dump_refuses_every_untokenizable_label(label):
    with pytest.raises(LabelMismatchError) as e:
        dump_matrix(mat(["a"], [label], [[1]]))
    assert repr(label) in str(e.value)


def test_matrix_parse_comments_and_blanks():
    text = """
    # a comment
    rows: a b
    cols: x y

    1 0   # trailing comment
    0 1
    """
    m = parse_matrix(text)
    assert m.entry("a", "x") == 1
    assert m.entry("a", "y") == 0


def test_matrix_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_matrix("rows: a\ncols: x y\n1\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_matrix("rows: a\ncols: x\n2\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_matrix("1 0\n")
    with pytest.raises(ParseError, match="repeated header 'rows'") as e:
        parse_matrix("rows: a\ncols: x\n1\n# again\nrows:  b\n")
    assert e.value.line == 5
