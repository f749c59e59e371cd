"""One oracle table for the fast paths.

Each row compares a fast path in `src/` with the enumeration it replaced,
kept here as the oracle, on shared Hypothesis strategies at small sizes.

    fast path                                            oracle (here)                    strategy        size bound
    apply_mcc, fiber products                            scan_apply_mcc, every out word   apply_cases     C^X_out <= 512
    tensor_power_finite, Kronecker rows                  loop_tensor_power, every entry   tensor_cases    |X| <= 5
    invariance_level(_table), inverse gathers            kernel_invariance_level(_table)  tower_tables    depth <= 3
    cc_sum, inverse gathers                              kernel_fixed_word_sum            tower_tables    depth <= 3
    kernel_gathers                                       act_word, each generator         TOWERS          every (m, h)
    predicate stability, gens                            kernel_unstable                  towers          2^|X| <= 16
    kernel_generators                                    closure equals kernel            TOWERS          every (m, h)
    dumps_bimodule, write_bimodule: one piece generator  json.dumps(indent=2, sort_keys)  renamed_boxes   P^1, P^2, P^4
    DABimodule term validation, tables                   per_letter_validate              mutated_terms   seed box terms
    DABimodule zero-input cycle search, graphlib         dfs_zero_input_cycle             zero_input_sets 8 generators
    _closure: products and feeds in one fixpoint         loop_closure, nested loops       closure_cases   11 labels
    rank, invert: one Gauss-Jordan                       loop_rank, loop_invert           square_cases    8 x 8
    perm_cycles, cycles_of                               loop_orbits, loop_cycles_of      permutations    16 points
    walks_of_length                                      hh0_quotient_dim, listed_walks   graphs          length 4
    closed_walk_count_trace                              walks_of_length                  graphs          length 6
    apply_mcc                                            tensor_power_finite, apply       pullback_cases  C^X_out <= 64
    box-power diagonals + 2                              staircase_dims on fig8           seed box        P^1, P^2, P^4
    hfk_dimensions, counts from C                        assembled_dimension_totals       seed box        P^1 .. P^8
    derived_power_certificate, stops at saturation       loop_derived_fixpoints           renamed_boxes   P^8
    zero-input terms survive a doubling                  assembled powers, sub-table      seed box        P^1 .. P^8
    parse_matrix, _window, _graph, _tower: lex_lines     first repeated header line       mutated_texts   one line edit

The towers are the plain solenoid, two parallel solenoids and a parsed
tower whose level-2 group is dihedral of order 8, so that its kernels are
not cyclic.
"""

import io
import itertools
import json
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mcctensor.errors import (ChainingError, InvarianceError, LabelMismatchError,
                              MccError, ParseError, ZeroInputCycleError)
from mcctensor.f2cat import (F2Matrix, LabeledSet, apply, dump_matrix, invert,
                             parse_matrix, rank, tensor_power_finite, word_label)
from mcctensor.floer import (RHO_LABELS, UNIT, DABimodule, _box_lift, _closure,
                             bimodule_to_dict, box_generators, box_power, box_tensor,
                             cfda_ta, cfda_tb_inv, derived_power_certificate,
                             dumps_bimodule, hfk_dimensions,
                             hochschild_generators, seed_box, torus_algebra,
                             vanishing_certificate, write_bimodule)
from mcctensor.mcc import MccWindow, apply_mcc, dump_window, parse_window
from mcctensor.solenoidal import (GraphBasis, closed_walk_count_trace, dump_graph,
                                  fig8, hh0_quotient_dim, parse_graph,
                                  staircase_dims, walks_of_length)
from mcctensor.towers import (act_word, cc_sum, cycles_of, dump_tower,
                              dyadic_solenoid, invariance_level,
                              invariance_level_table, kernel_gathers,
                              parse_tower, perm_cycles)

DIHEDRAL_TEXT = """\
levels: 3
level 0: r
level 1: a b
level 2: a0 a1 b0 b1
proj 1:
a -> r
b -> r
proj 2:
a0 -> a
a1 -> a
b0 -> b
b1 -> b
gen s 1: (a b)
gen s 2: (a0 b0)(a1 b1)
gen t 2: (a0 a1)
"""

TOWERS = {
    "dyadic 3": dyadic_solenoid(3),
    "dyadic 2 x2": dyadic_solenoid(2, copies=2),
    "parsed dihedral": parse_tower(DIHEDRAL_TEXT),
}
SCAN_CAP = 512

# format -> (a dumped text, its parser, the header prefixes of its grammar)
FORMATS = {
    "matrix": (dump_matrix(F2Matrix.from_rows(["a", "b"], ["x", "y", "z"],
                                              [[1, 0, 1], [0, 1, 1]])),
               parse_matrix, ("rows:", "cols:")),
    "window": (dump_window(MccWindow(dyadic_solenoid(2), ["x", "y"], 2,
                                     {tuple("xyxy"), tuple("yyxy"), tuple("xxxx")})),
               parse_window, ("tower:", "basis:", "depth:")),
    "graph": (dump_graph(fig8()), parse_graph, ("idempotents:",)),
    "tower": (dump_tower(parse_tower(DIHEDRAL_TEXT)), parse_tower,
              ("levels:", "level ", "proj ", "gen ", "shift ")),
}


# -- oracles: the enumerations the fast paths replaced ----------------------------

def scan_apply_mcc(matrix, window, out_depth):
    """Support of the action, testing every output word against every
    support word pulled up to the working level."""
    tower = window.tower
    work = max(window.depth, out_depth)
    n = tower.size(work)
    pulled = [tower.pull_word(w, window.depth, work) for w in window.support]
    ent = {(c, b): matrix.entry(c, b)
           for c in matrix.rows.labels for b in matrix.cols.labels}
    up = tower.up_index(out_depth, work)
    out = set()
    for g in tower.words(out_depth, matrix.rows.labels):
        g_up = tuple(g[j] for j in up)
        val = 0
        for f in pulled:
            for i in range(n):
                if not ent[(g_up[i], f[i])]:
                    break
            else:
                val ^= 1
        if val:
            out.add(g)
    return frozenset(out)


def loop_tensor_power(m, x):
    """M^{tensor X}, every entry a product over the positions."""
    n = len(x)
    col_words = list(itertools.product(range(len(m.cols)), repeat=n))
    row_words = list(itertools.product(range(len(m.rows)), repeat=n))
    bits = []
    for g in row_words:
        rowbits = 0
        for jj, f in enumerate(col_words):
            if all((m.bits[gi] >> fi) & 1 for gi, fi in zip(g, f)):
                rowbits |= 1 << jj
        bits.append(rowbits)
    rows = LabeledSet(word_label(tuple(m.rows.labels[i] for i in g)) for g in row_words)
    cols = LabeledSet(word_label(tuple(m.cols.labels[j] for j in f)) for f in col_words)
    return F2Matrix(rows, cols, bits)


def kernel_invariance_level(tower, word, m):
    for h in range(m + 1):
        if all(act_word(s, word) == word for s in tower.kernel(m, h)):
            return h
    return m


def kernel_invariance_level_table(tower, support, m):
    for h in range(m + 1):
        if all(act_word(s, w) in support for s in tower.kernel(m, h) for w in support):
            return h
    return m


def kernel_fixed_word_sum(tower, support, depth, level):
    kern = tower.kernel(depth, min(level, depth))
    return sum(all(act_word(s, w) == w for s in kern) for w in support) % 2


def kernel_unstable(tower, depth, h, parts, allowed):
    return any(bool(allowed(act_word(s, a))) != bool(allowed(a))
               for a in itertools.product(parts, repeat=tower.size(depth))
               for s in tower.kernel(depth, h))


def json_dumps_bimodule(p):
    return json.dumps(bimodule_to_dict(p), indent=2, sort_keys=True) + "\n"


def written_bimodule(p):
    fh = io.StringIO()
    write_bimodule(p, fh)
    return fh.getvalue()


def per_letter_validate(p, term):
    """Term validation with two algebra method calls per input letter."""
    x, inputs, output, y = term
    if x not in p.idem or y not in p.idem:
        raise LabelMismatchError(f"term {term} uses unknown generators")
    lx, rx = p.idem[x]
    ly, ry = p.idem[y]
    alg = torus_algebra()
    for a in inputs:
        if a not in RHO_LABELS:
            raise ChainingError(
                f"term {term}: inputs must be chords (strict unitality is "
                f"synthesized, never stored); got {a!r}")
    if output == UNIT:
        if lx != ly:
            raise ChainingError(
                f"term {term}: unit output needs equal left idempotents, "
                f"got {lx!r} vs {ly!r}")
    elif output in RHO_LABELS:
        ol, orr = alg.idem(output)
        if (ol, orr) != (lx, ly):
            raise ChainingError(
                f"term {term}: output {output!r} has idempotents ({ol}, {orr}), "
                f"the arrow needs ({lx}, {ly})")
    else:
        raise ChainingError(
            f"term {term}: output must be a chord or the unit, got {output!r}")
    chain = rx
    for a in inputs:
        al, ar = alg.idem(a)
        if al != chain:
            raise ChainingError(
                f"term {term}: input {a!r} starts at {al!r}, expected {chain!r}")
        chain = ar
    if ry != chain:
        raise ChainingError(
            f"term {term}: generator {y!r} has right idempotent {ry!r}, "
            f"the inputs end at {chain!r}")


def dfs_zero_input_cycle(terms):
    """The first cycle of zero-input terms found depth-first from the least
    source, with the path and its pending successors on explicit stacks;
    None when there is no cycle."""
    adj = {}
    for (x, inputs, output, y) in sorted(terms):
        if not inputs:
            adj.setdefault(x, []).append(y)
    state = {}
    for root in sorted(adj):
        if root in state:
            continue
        state[root] = 1
        path, pending = [root], [iter(adj[root])]
        while pending:
            for nxt in pending[-1]:
                if state.get(nxt) == 1:
                    return path[path.index(nxt):] + [nxt]
                if nxt not in state:
                    state[nxt] = 1
                    path.append(nxt)
                    pending.append(iter(adj.get(nxt, ())))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
    return None


def loop_close_products(alg, labels):
    """Close a label set under nonzero algebra products, pair by pair."""
    labels = set(labels)
    grew = True
    while grew:
        grew = False
        pool = [l for l in sorted(labels) if l in alg._idem]
        for a in pool:
            for b in pool:
                c = alg.mult(a, b)
                if c is not None and c not in labels:
                    labels.add(c)
                    grew = True
    return labels


def loop_closure(alg, labels, feeds):
    """Product closure, then alternate one pass over the feeds with a fresh
    product closure until neither adds a label."""
    ext = loop_close_products(alg, labels)
    grew = True
    while grew:
        grew = False
        for ins, out in feeds:
            if out not in ext and ext.issuperset(ins):
                ext.add(out)
                grew = True
        new = loop_close_products(alg, ext)
        if new != ext:
            ext = new
            grew = True
    return ext


def loop_invert(m):
    """Gauss-Jordan on M beside a separate identity, swapping and clearing
    both in step."""
    n = len(m.rows)
    if n != len(m.cols):
        return None
    a = list(m.bits)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if (a[r] >> col) & 1:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        for r in range(n):
            if r != col and ((a[r] >> col) & 1):
                a[r] ^= a[col]
                inv[r] ^= inv[col]
    return F2Matrix(m.cols, m.rows, inv)


def loop_rank(m):
    """Row reduction of the nonzero rows, counting pivots."""
    rows = [b for b in m.bits if b]
    r = 0
    for col in range(len(m.cols)):
        piv = None
        for i in range(r, len(rows)):
            if (rows[i] >> col) & 1:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and ((rows[i] >> col) & 1):
                rows[i] ^= rows[r]
        r += 1
    return r


def loop_orbits(perm):
    """Cycles of a permutation, fixed points included, as the shift-orbit
    loops of the sector enumeration and the staircase followed them."""
    orbits = []
    seen = set()
    for i in range(len(perm)):
        if i in seen:
            continue
        orb = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            orb.append(j)
            seen.add(j)
            j = perm[j]
        orbits.append(orb)
    return orbits


def loop_cycles_of(perm, labels):
    seen = set()
    out = []
    for i in range(len(labels)):
        if i in seen or perm[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        out.append("(" + " ".join(labels[k] for k in cyc) + ")")
    return "".join(out) if out else "()"


def listed_walks(g, n):
    """Every edge word of length n whose edges chain head to tail,
    cyclically."""
    return {w for w in itertools.product(g.edges.labels, repeat=n)
            if all(g.t[w[i]] == g.s[w[(i + 1) % n]] for i in range(n))}


def assembled_dimension_totals(max_level):
    """Dimension totals by assembly: each power up to P^4 is built by
    squaring, certified directly and its diagonal generators listed; past
    P^4 the generator pairs are listed and the diagonal ones counted."""
    power, gens, totals = SEED_BOX, None, []
    for m in range(max_level + 1):
        if 2 ** m <= 4:
            if m:
                power = box_tensor(power, power)
            assert vanishing_certificate(power)["granted"]
            gens = power.generators
            middle = len(hochschild_generators(power))
        else:
            gens = box_generators(gens, gens)
            middle = sum(1 for (_, l, r) in gens if l == r)
        totals.append(middle + 2)
    return totals


def squared_sub_tables(base, doublings):
    """The sub-table of terms with inputs in the base's extended fixpoint E,
    for P^(2^d), d = 0..doublings: squared through every doubling, with no
    stop at saturation."""
    closure = set(vanishing_certificate(base)["extended_fixpoint"])
    gens = base.generators
    tables = [{t for t in base.terms if closure.issuperset(t[1])}]
    for _ in range(doublings):
        by_src = {g: [] for (g, _, _) in gens}
        for t in tables[-1]:
            by_src[t[0]].append(t)
        gens, raw = _box_lift(gens, by_src.__getitem__, gens, by_src.__getitem__)
        table = set()
        for t in raw:
            table ^= {t}
        tables.append(table)
    return tables


def loop_derived_fixpoints(base, doublings):
    """The spontaneous fixpoint of every doubling through `doublings`."""
    return [sorted(_closure({t[2] for t in table if not t[1]}))
            for table in squared_sub_tables(base, doublings)]


# -- shared strategies ---------------------------------------------------------------

towers = st.sampled_from(sorted(TOWERS)).map(TOWERS.get)


def labeled(prefix, k):
    return LabeledSet([f"{prefix}{i}" for i in range(k)])


@st.composite
def matrices(draw, rows, cols):
    return F2Matrix.from_rows(rows, cols, [[draw(st.integers(0, 1)) for _ in cols.labels]
                                           for _ in rows.labels])


@st.composite
def tables(draw, tower, depth, letters, most=5):
    """A support set at `depth`; half of the time closed under K(depth, h)
    for a random h, so that every invariance level occurs."""
    size = tower.size(depth)
    words = draw(st.sets(st.tuples(*[st.sampled_from(letters)] * size), max_size=most))
    if draw(st.booleans()):
        h = draw(st.integers(0, depth))
        words = {act_word(s, w) for w in words for s in tower.kernel(depth, h)}
    return frozenset(words)


@st.composite
def apply_cases(draw):
    tower = draw(towers)
    basis = labeled("b", draw(st.integers(1, 3)))
    out_basis = labeled("c", draw(st.integers(1, 3)))
    depth = draw(st.integers(0, tower.max_level))
    out_depth = draw(st.sampled_from(
        [d for d in range(tower.max_level + 1)
         if len(out_basis) ** tower.size(d) <= SCAN_CAP]))
    window = MccWindow(tower, basis, depth, draw(tables(tower, depth, basis.labels)))
    return draw(matrices(out_basis, basis)), window, out_depth


# one-character, mixed-length and multi-character labels: word_label joins
# a word with "" only when each of its letters is one character, so a
# mixed basis has words of both kinds
LABEL_POOLS = (("x", "y", "z"), ("xx", "y", "zz"), ("c0", "c1", "c2"))


@st.composite
def power_labels(draw):
    pool = draw(st.sampled_from(LABEL_POOLS))
    return LabeledSet(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                                    unique=True)))


@st.composite
def tensor_cases(draw):
    """A matrix and an X of up to 5 points; the power has at most 3^8
    entries."""
    rows, cols = draw(power_labels()), draw(power_labels())
    n = draw(st.sampled_from([k for k in range(6)
                              if (len(rows) * len(cols)) ** k <= 3 ** 8]))
    return draw(matrices(rows, cols)), LabeledSet([f"x{i}" for i in range(n)])


@st.composite
def square_cases(draw):
    """A matrix of up to 8 x 8; square half of the time, where random
    entries make singular and invertible ones both common."""
    n = draw(st.integers(1, 8))
    k = n if draw(st.booleans()) else draw(st.integers(1, 8))
    return draw(matrices(labeled("r", n), labeled("c", k)))


permutations = st.integers(0, 16).flatmap(lambda n: st.permutations(range(n))).map(tuple)


@st.composite
def tower_tables(draw):
    tower = draw(towers)
    depth = draw(st.integers(0, tower.max_level))
    return tower, depth, draw(tables(tower, depth, ("x", "y")))


@st.composite
def pullback_cases(draw):
    """An action whose output depth is at least the window's, where it is
    the tensor power over the output level applied to the pulled-back
    window; |B| and |C| to the |X_out| are at most 64."""
    tower = draw(towers)
    basis = labeled("b", draw(st.integers(1, 3)))
    out_basis = labeled("c", draw(st.integers(1, 3)))
    out_depth = draw(st.sampled_from(
        [d for d in range(tower.max_level + 1)
         if max(len(basis), len(out_basis)) ** tower.size(d) <= 64]))
    depth = draw(st.integers(0, out_depth))
    window = MccWindow(tower, basis, depth, draw(tables(tower, depth, basis.labels)))
    return draw(matrices(out_basis, basis)), window, out_depth


@st.composite
def graphs(draw):
    idem = [f"k{i}" for i in range(draw(st.integers(1, 3)))]
    names = [f"e{i}" for i in range(draw(st.integers(1, 5)))]
    ends = st.sampled_from(idem)
    return GraphBasis(idem, names, {e: draw(ends) for e in names},
                      {e: draw(ends) for e in names})


SEED_BOX = seed_box()
# names that JSON must escape: quote, backslash, control and non-ASCII
NAME_CHARS = st.sampled_from(['"', "\\", "\n", "\t", "é", "∂", "\U0001d53d", "|", "a", "z"])


@st.composite
def renamed_boxes(draw):
    """The seed box product with every generator renamed."""
    old = [g for (g, _, _) in SEED_BOX.generators]
    new = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=4),
                        min_size=len(old), max_size=len(old), unique=True))
    name = dict(zip(old, new))
    return DABimodule([(name[g], l, r) for (g, l, r) in SEED_BOX.generators],
                      [(name[x], ins, out, name[y])
                       for (x, ins, out, y) in SEED_BOX.terms])


LETTERS = RHO_LABELS + (UNIT, "i0", "ie", "r4")


@st.composite
def mutated_terms(draw):
    """A seed box term with one field replaced, one input letter replaced,
    inserted or dropped, or left as it is."""
    x, ins, out, y = draw(st.sampled_from(SEED_BOX.terms))
    names = [g for (g, _, _) in SEED_BOX.generators] + ["zz"]
    kind = draw(st.sampled_from(("x", "y", "output", "letter", "insert", "drop", "none")))
    if kind == "x":
        x = draw(st.sampled_from(names))
    elif kind == "y":
        y = draw(st.sampled_from(names))
    elif kind == "output":
        out = draw(st.sampled_from(LETTERS))
    elif kind in ("letter", "insert", "drop") and (ins or kind == "insert"):
        k = draw(st.integers(0, len(ins) - (kind != "insert")))
        a = draw(st.sampled_from(LETTERS))
        rest = ins[k + 1:] if kind != "insert" else ins[k:]
        ins = ins[:k] + ((a,) if kind != "drop" else ()) + rest
    return (x, ins, out, y)


@st.composite
def zero_input_sets(draw):
    """Generators g0..g(n-1), n <= 8, all at (i0, i0), and distinct terms
    between them, each with no input or with the input r12."""
    names = [f"g{i}" for i in range(draw(st.integers(1, 8)))]
    edges = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names),
                                    st.booleans()), unique=True, max_size=16))
    return ([(g, "i0", "i0") for g in names],
            [(x, ("r12",) if fed else (), "r12", y) for (x, y, fed) in edges])


@st.composite
def closure_cases(draw):
    """A start set of torus basis labels and the unit, and feeds from sets
    of chords to such labels."""
    labels = st.sampled_from(torus_algebra().basis + (UNIT,))
    start = draw(st.sets(labels, max_size=5))
    feeds = draw(st.sets(st.tuples(st.frozensets(st.sampled_from(RHO_LABELS),
                                                  max_size=3), labels),
                         max_size=8))
    return start, feeds


@st.composite
def mutated_texts(draw):
    """A format's dumped text after one line edit: a line duplicated to
    another place, deleted or swapped with another, or one of its tokens
    replaced by a token of the same text."""
    name = draw(st.sampled_from(sorted(FORMATS)))
    text = FORMATS[name][0]
    lines = text.splitlines()
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    kind = draw(st.sampled_from(("duplicate", "delete", "swap", "replace")))
    if kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "delete":
        del lines[i]
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(sorted(set(text.split()))))
        lines[i] = " ".join(tokens)
    return name, "\n".join(lines) + "\n"


def first_repeated_header(text, headers):
    """The line number of the first header line whose head (its text before
    the first ':', single-spaced) an earlier header line already had."""
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith(headers):
            head = " ".join(line.partition(":")[0].split())
            if head in seen:
                return lineno
            seen.add(head)
    return None


def outcome(fn, *args):
    try:
        fn(*args)
    except (ChainingError, LabelMismatchError) as e:
        return type(e).__name__, str(e)
    return None


# -- rows --------------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(apply_cases())
def test_apply_mcc_matches_output_scan(case):
    matrix, window, out_depth = case
    out = apply_mcc(matrix, window, out_depth)
    want = scan_apply_mcc(matrix, window, out_depth)
    assert out.support == want
    assert out.inv_level == kernel_invariance_level_table(window.tower, want, out_depth)


@settings(max_examples=150, deadline=None)
@given(tensor_cases())
@example((F2Matrix.from_rows(["xx", "y"], ["xx", "y"], [[1, 1], [0, 1]]),
          LabeledSet(["x0", "x1"])))
def test_tensor_power_matches_entry_loop(case):
    m, x = case
    got = tensor_power_finite(m, x)
    want = loop_tensor_power(m, x)
    assert got.rows == want.rows and got.cols == want.cols
    assert got.bits == want.bits


@settings(max_examples=200, deadline=None)
@given(tower_tables())
def test_invariance_levels_match_whole_kernel(case):
    tower, depth, support = case
    assert invariance_level_table(tower, support, depth) == \
        kernel_invariance_level_table(tower, support, depth)
    for w in support:
        assert invariance_level(tower, w, depth) == kernel_invariance_level(tower, w, depth)


@settings(max_examples=200, deadline=None)
@given(tower_tables(), st.integers(0, 3))
def test_cc_sum_matches_fixed_word_sum(case, level):
    tower, depth, support = case
    h = kernel_invariance_level_table(tower, support, depth)
    if h > level:
        with pytest.raises(InvarianceError) as e:
            cc_sum(tower, ("x", "y"), support, depth, level)
        w, moved = e.value.pair
        assert w in support and moved not in support
        assert any(act_word(s, w) == moved
                   for s in tower.kernel(depth, min(level, depth)))
    else:
        assert cc_sum(tower, ("x", "y"), support, depth, level) == \
            kernel_fixed_word_sum(tower, support, depth, level)


@pytest.mark.parametrize("name", sorted(TOWERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_gathers_match_act_word(name, data):
    tower = TOWERS[name]
    for m in range(tower.max_level + 1):
        size = tower.size(m)
        words = data.draw(st.lists(st.tuples(*[st.sampled_from("xyz")] * size),
                                   max_size=4))
        words.append(tuple(range(size)))  # distinct letters show the whole map
        for h in range(m + 1):
            gathers = kernel_gathers(tower, m, h)
            gens = tower.kernel_generators(m, h)
            assert len(gathers) == len(gens)
            for g, s in zip(gathers, gens):
                assert [g(w) for w in words] == [act_word(s, w) for w in words]


@pytest.mark.parametrize("name, support, level, pair", [
    ("dyadic 3", ("xxxx", "xyxy", "yxyx", "xxyy"), 0, ("xxyy", "yxxy")),
    ("dyadic 3", ("xxxx", "xyxy", "yxyx", "xxyy"), 1, ("xxyy", "yyxx")),
    # the first of three generators fixes the table; the second moves two
    # words out of it, and the third others
    ("parsed dihedral", ("xxxx", "xxxy", "xxyx", "yxxy", "yxyx"), 0, ("yxxy", "xyxy")),
])
def test_cc_sum_reports_the_sorted_scan_pair(name, support, level, pair):
    """The gathers only accept; a refused table reports the least word in
    sorted order that the first moving generator sends out of it."""
    pair = tuple(tuple(w) for w in pair)
    with pytest.raises(InvarianceError) as e:
        cc_sum(TOWERS[name], ("x", "y"), [tuple(w) for w in support], 2, level)
    assert e.value.pair == pair
    assert str(e.value) == (
        f"table is not invariant at level {level}: words {pair[0]!r} and "
        f"{pair[1]!r} lie in one orbit but only one is in the support")


PREDICATES = (
    lambda a: a.count("q") % 2 == 0,
    lambda a: a[0] == "p",
    lambda a: a[-1] == a[0],
    lambda a: a.count("p") > 1,
)


@settings(max_examples=150, deadline=None)
@given(towers, st.data())
def test_sector_stability_matches_whole_kernel(tower, data):
    """A predicate on part words is stable under K(depth, h) exactly when
    the table of words it accepts is invariant at level h, which
    invariance_level_table decides on the kernel's generators."""
    depth = data.draw(st.sampled_from(
        [d for d in range(tower.max_level + 1) if 2 ** tower.size(d) <= 16]))
    h = data.draw(st.integers(0, depth))
    allowed = data.draw(st.sampled_from(PREDICATES))
    accepted = {a for a in itertools.product("pq", repeat=tower.size(depth))
                if allowed(a)}
    assert (invariance_level_table(tower, accepted, depth) <= h) == \
        (not kernel_unstable(tower, depth, h, ("p", "q"), allowed))


def generated(tower, m, gens):
    ident = tuple(range(tower.size(m)))
    seen, frontier = {ident}, [ident]
    while frontier:
        frontier = [q for q in {tuple(g[p[i]] for i in range(len(p)))
                                for p in frontier for g in gens} if q not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_kernel_generators_generate_the_kernel(name):
    tower = TOWERS[name]
    for m in range(tower.max_level + 1):
        for h in range(m + 1):
            kern = tower.kernel(m, h)
            gens = tower.kernel_generators(m, h)
            assert set(gens) <= set(kern)
            assert generated(tower, m, gens) == set(kern)
            assert len(gens) <= math.log2(len(kern))


def test_dihedral_tower_kernels_are_not_cyclic():
    tower = TOWERS["parsed dihedral"]
    for h, order in ((0, 8), (1, 4)):
        kern = tower.kernel(2, h)
        assert len(kern) == order
        assert not any(generated(tower, 2, [g]) == set(kern) for g in kern)
        assert len(tower.kernel_generators(2, h)) >= 2


@pytest.mark.parametrize("p", [
    cfda_tb_inv(), cfda_ta(), SEED_BOX, box_power(SEED_BOX, 2), box_power(SEED_BOX, 4),
    DABimodule(cfda_ta().generators, []),
    DABimodule([], []),
], ids=["tb_inv", "ta", "P1", "P2", "P4", "no terms", "empty"])
def test_dumps_bimodule_matches_json_dumps(p):
    assert dumps_bimodule(p) == json_dumps_bimodule(p)
    assert written_bimodule(p) == json_dumps_bimodule(p)


@settings(max_examples=100, deadline=None)
@given(renamed_boxes())
def test_dumps_bimodule_escapes_like_json_dumps(p):
    text = dumps_bimodule(p)
    assert text == json_dumps_bimodule(p)
    assert written_bimodule(p) == text
    assert json.loads(text) == bimodule_to_dict(p)


@settings(max_examples=400, deadline=None)
@given(mutated_terms())
def test_term_validation_matches_per_letter_loop(term):
    assert outcome(SEED_BOX._validate_term, term) == \
        outcome(per_letter_validate, SEED_BOX, term)


@settings(max_examples=400, deadline=None)
@given(zero_input_sets())
def test_zero_input_cycle_search_matches_the_dfs(case):
    gens, terms = case
    expected = dfs_zero_input_cycle(terms)
    try:
        DABimodule(gens, terms)
    except ZeroInputCycleError as e:
        cycle = e.cycle
        assert str(e) == f"zero-input terms form a cycle: {' -> '.join(cycle)}"
    else:
        cycle = None
    assert (cycle is None) == (expected is None)
    if cycle is not None:
        # any genuine cycle will do: the two searches may meet different ones
        edges = {(x, y) for (x, ins, _, y) in terms if not ins}
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert all(pair in edges for pair in zip(cycle, cycle[1:]))


@settings(max_examples=300, deadline=None)
@given(closure_cases())
def test_closure_matches_the_nested_loops(case):
    start, feeds = case
    alg = torus_algebra()
    assert _closure(start) == loop_close_products(alg, start)
    assert _closure(start, feeds) == loop_closure(alg, start, feeds)


@settings(max_examples=300, deadline=None)
@given(square_cases())
# singular (the rows sum to zero) and invertible (unit upper triangular)
@example(F2Matrix.from_rows(labeled("r", 3), labeled("c", 3), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
@example(F2Matrix.from_rows(labeled("r", 3), labeled("c", 3), [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
def test_rank_and_invert_match_the_separate_loops(m):
    assert rank(m) == loop_rank(m)
    assert invert(m) == loop_invert(m)
    if len(m.rows) == len(m.cols):
        assert (invert(m) is None) == (rank(m) < len(m.rows))


@settings(max_examples=300, deadline=None)
@given(permutations)
def test_perm_cycles_match_the_orbit_loops(perm):
    assert perm_cycles(perm) == loop_orbits(perm)
    labels = [f"l{i}" for i in range(len(perm))]
    assert cycles_of(perm, labels) == loop_cycles_of(perm, labels)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 4))
def test_walks_match_quotient_dimension_and_listing(g, n):
    walks = walks_of_length(g, n)
    assert len(walks) == hh0_quotient_dim(g, n)
    assert len(set(walks)) == len(walks)
    assert set(walks) == listed_walks(g, n)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 6))
def test_walk_trace_matches_walk_listing(g, n):
    assert closed_walk_count_trace(g, n) == len(walks_of_length(g, n))


@settings(max_examples=150, deadline=None)
@given(pullback_cases())
def test_apply_mcc_matches_finite_tensor_power(case):
    matrix, window, out_depth = case
    out = apply_mcc(matrix, window, out_depth)
    power = tensor_power_finite(matrix, window.tower.level(out_depth).labels)
    pulled = window.at_depth(out_depth).support
    assert {word_label(g) for g in out.support} == \
        apply(power, {word_label(f) for f in pulled})


def test_box_power_diagonals_match_staircase_dims():
    diagonals = [len(hochschild_generators(box_power(SEED_BOX, 2 ** m))) for m in range(3)]
    assert [d + 2 for d in diagonals] == staircase_dims(fig8(), dyadic_solenoid(2), 2)


def test_hfk_dimensions_match_assembled_powers():
    totals = assembled_dimension_totals(3)
    assert totals == [5, 9, 49, 2209]
    for max_level in range(4):
        assert [r["total"] for r in hfk_dimensions(max_level)] == \
            totals[:max_level + 1]


SEED_POWERS = {1: SEED_BOX, 2: box_power(SEED_BOX, 2), 4: box_power(SEED_BOX, 4)}


@pytest.mark.parametrize("k, most", [(1, 3), (2, 2), (4, 1)])
def test_saturated_derived_fixpoints_match_the_full_squaring(k, most):
    loop = loop_derived_fixpoints(SEED_POWERS[k], most)
    for d in range(most + 1):
        assert derived_power_certificate(SEED_POWERS[k], d)["fixpoint_by_doubling"] == \
            loop[:d + 1]


def squares_without_name_collisions(p, doublings):
    """Whether P^(2^d) names its generators one way each, d = 1..doublings."""
    gens = p.generators
    try:
        for _ in range(doublings):
            gens = box_generators(gens, gens)
    except LabelMismatchError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(renamed_boxes(), st.integers(0, 3))
def test_saturated_derived_fixpoints_match_on_renamed_boxes(p, d):
    # names holding "|" can spell one product name two ways, and such a
    # square is refused (test_box_generator_names_two_pairs_share_are_refused);
    # the loop oracle needs every square through d to exist
    assume(squares_without_name_collisions(p, d))
    assert derived_power_certificate(p, d)["fixpoint_by_doubling"] == \
        loop_derived_fixpoints(p, d)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_zero_input_terms_survive_each_doubling(k):
    p = SEED_POWERS[k]
    closure = set(vanishing_certificate(p)["extended_fixpoint"])
    tables = squared_sub_tables(p, 1)
    if 2 * k in SEED_POWERS:
        # the squared sub-table is the assembled square's terms with inputs
        # in E; P^8 is over the box cap, so there the sub-table stands in
        assert tables[1] == {t for t in SEED_POWERS[2 * k].terms
                             if closure.issuperset(t[1])}
    right_of = {l: [y for (y, yl, _) in p.generators if yl == l] for l in ("i0", "i1")}
    for (x, ins, b, x2) in p.terms:
        if not ins:
            for y in right_of[p.idem[x][1]]:
                assert (x + "|" + y, (), b, x2 + "|" + y) in tables[1]


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
@example(("tower", "levels: 2\nlevel 0: r\nlevel 1: a b\nproj 1:\na -> r\n"
                   "proj 1:\nb -> r\n"))
def test_parsers_return_or_refuse_mutated_texts(case):
    name, text = case
    _, parse, headers = FORMATS[name]
    try:
        parse(text)
        error = None
    except MccError as e:
        error = e
    repeat = first_repeated_header(text, headers)
    if repeat is not None:
        # refused by the repeated line at the latest, and by the repeat
        # itself unless an earlier line was refused first
        assert isinstance(error, ParseError) and error.line <= repeat
        assert ("repeated header" in str(error)) == (error.line == repeat)
