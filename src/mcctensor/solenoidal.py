"""Solenoidal bimodule sectors over directed multigraphs.

A GraphBasis is a labeled directed multigraph (vertices play the role of
idempotents, edges the role of bimodule basis elements with a source and a
target).  Inside the full tensor power of the edge basis over a shifted
tower sits the solenoidal sector: the span of pure tensors that trace closed
walks along the shift.  e_S_project is the idempotent onto that sector, and
apply_solenoidal conjugates the tensor-power action of an edge matrix by it.

Endpoint-compatible matrices (GraphMorphism) act functorially on the sector;
for incompatible matrices functoriality genuinely fails, and
composition_counterexample_search hunts for an explicit witness.

hh0_inline_power computes the dimension of the degree-zero Hochschild-style
quotient of n-fold chained edge words two ways (the closed walks as the
production path, a count of the words the literal commutator relations kill
as the oracle), and staircase_dims tabulates the sector dimension level by
level from transfer-matrix traces, listing no walk.
"""

from __future__ import annotations

import itertools
import random

from .errors import (CompatibilityError, CrossCheckError, LabelMismatchError,
                     MccError, ParseError)
from .f2cat import F2Matrix, LabeledSet, compose, lex_lines, require_token_labels
from .mcc import MccWindow, apply_mcc
from .towers import dyadic_solenoid, perm_cycles


class GraphBasis:
    """A directed multigraph: idempotent (vertex) labels plus labeled edges
    with source and target maps.  Loops and parallel edges are welcome."""

    def __init__(self, idempotents, edges, s, t):
        idempotents, edges = LabeledSet(idempotents), LabeledSet(edges)
        for e in edges.labels:
            if e not in s or e not in t:
                raise LabelMismatchError(f"edge {e!r} is missing a source or target")
            if s[e] not in idempotents or t[e] not in idempotents:
                raise LabelMismatchError(
                    f"edge {e!r} has endpoints {s[e]!r}->{t[e]!r} outside the "
                    f"idempotents {list(idempotents.labels)}")
        self.idempotents = idempotents
        self.edges = edges
        self.s = {e: s[e] for e in edges.labels}
        self.t = {e: t[e] for e in edges.labels}

    def out_edges(self, v):
        return [e for e in self.edges.labels if self.s[e] == v]

    def __repr__(self):
        body = ", ".join(f"{e}:{self.s[e]}->{self.t[e]}" for e in self.edges.labels)
        return f"GraphBasis({body})"


def fig8():
    """The figure-eight graph: one loop on each of the four idempotents'
    outer vertices plus the two-cycle v/w and the parallel loops x, y."""
    return GraphBasis(
        ["ie", "i0", "i1", "i01"],
        ["t", "u", "v", "w", "x", "y", "z"],
        s={"t": "ie", "u": "i0", "v": "i0", "w": "i1", "x": "i1", "y": "i1",
           "z": "i01"},
        t={"t": "ie", "u": "i0", "v": "i1", "w": "i0", "x": "i1", "y": "i1",
           "z": "i01"},
    )


class GraphMorphism:
    """An endpoint-compatible F2 matrix between edge bases: every nonzero
    entry connects edges with equal sources and equal targets (validated on
    construction, naming the first offending pair)."""

    def __init__(self, src, dst, entries):
        self.src = src
        self.dst = dst
        ent = set()
        for (c, b) in entries:
            if c not in dst.edges:
                raise LabelMismatchError(f"unknown target edge {c!r}")
            if b not in src.edges:
                raise LabelMismatchError(f"unknown source edge {b!r}")
            if dst.s[c] != src.s[b] or dst.t[c] != src.t[b]:
                raise CompatibilityError(
                    f"entry ({c!r}, {b!r}) connects {src.s[b]}->{src.t[b]} with "
                    f"{dst.s[c]}->{dst.t[c]}; endpoints must match")
            ent.add((c, b))
        self.entries = frozenset(ent)

    def matrix(self):
        return F2Matrix.from_entries(self.dst.edges, self.src.edges, self.entries)


def compose_morphisms(n, m):
    """Composite morphism (apply m first); compatibility survives composition."""
    if n.src is not m.dst and n.src.edges != m.dst.edges:
        raise LabelMismatchError("morphisms do not chain")
    prod = compose(n.matrix(), m.matrix())
    entries = [(c, b) for c in prod.rows.labels for b in prod.cols.labels
               if prod.entry(c, b)]
    return GraphMorphism(m.src, n.dst, entries)


# -- closed walks and the solenoidal sector --------------------------------------

def _chained_words(g, n):
    """All chained edge words (e_1, ..., e_n), n >= 1: each edge starts
    where the previous one ends.  The package's one walk enumerator."""
    if n < 1:
        raise MccError("walk length must be >= 1")
    out = []

    def grow(seq, cur):
        if len(seq) == n:
            out.append(tuple(seq))
            return
        for e in g.out_edges(cur):
            seq.append(e)
            grow(seq, g.t[e])
            seq.pop()

    for e in g.edges.labels:
        grow([e], g.t[e])
    return out


def walks_of_length(g, length):
    """All cyclically closed edge walks (e_1, ..., e_n): the chained words
    whose last edge closes onto the first."""
    return [w for w in _chained_words(g, length) if g.t[w[-1]] == g.s[w[0]]]


def closed_walk_tensors(g, tower, m):
    """All level-m pure tensors in the solenoidal sector: functions from the
    level set to edges tracing a closed walk along every shift orbit."""
    n = tower.size(m)
    orbits = perm_cycles(tower.shift_perm(m))
    per_orbit = [walks_of_length(g, len(orb)) for orb in orbits]
    words = []
    for combo in itertools.product(*per_orbit):
        word = [None] * n
        for orb, walk in zip(orbits, combo):
            for pos, e in zip(orb, walk):
                word[pos] = e
        words.append(tuple(word))
    return sorted(words)


def _closes(g, shift, w):
    """Whether the word traces closed walks along the shift:
    s(w(Sx)) = t(w(x)) at every position x."""
    return all(g.s[w[shift[i]]] == g.t[w[i]] for i in range(len(w)))


def in_sector(g, window):
    """Whether every support word traces closed walks along the shift."""
    shift = window.tower.shift_perm(window.depth)
    return all(_closes(g, shift, w) for w in window.support)


def e_S_project(window, g):
    """The solenoidal idempotent: kill every pure tensor that fails the
    closed-walk condition s(f(Sx)) = t(f(x))."""
    if window.basis != g.edges:
        raise LabelMismatchError(
            f"window basis {list(window.basis.labels)} is not the edge basis "
            f"{list(g.edges.labels)}")
    shift = window.tower.shift_perm(window.depth)
    keep = {w for w in window.support if _closes(g, shift, w)}
    return MccWindow(window.tower, window.basis, window.depth, keep)


def apply_solenoidal(morph, window, out_depth):
    """Act on a sector window by an endpoint-compatible morphism: project
    into the source sector, apply the tensor power, project into the target
    sector."""
    if window.basis != morph.src.edges:
        raise LabelMismatchError("window basis does not match the morphism source")
    if not in_sector(morph.src, window):
        window = e_S_project(window, morph.src)
    moved = apply_mcc(morph.matrix(), window, out_depth)
    return e_S_project(moved, morph.dst)


# -- dimensions: walks, traces, Hochschild-style quotient ---------------------------

def transfer_matrix(g):
    """Integer vertex-by-vertex edge-count matrix, in idempotent label order."""
    idx = g.idempotents.index
    size = len(g.idempotents)
    mat = [[0] * size for _ in range(size)]
    for e in g.edges.labels:
        mat[idx[g.s[e]]][idx[g.t[e]]] += 1
    return mat


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def closed_walk_count_trace(g, length):
    """#closed walks of the given length (>= 1) via the transfer-matrix
    trace: trace(T^n) counts the closed n-walks (Stanley, EC1 §4.7)."""
    if length < 1:
        raise MccError("walk length must be >= 1")
    t = transfer_matrix(g)
    acc = t
    for _ in range(length - 1):
        acc = _mat_mul(acc, t)
    return sum(acc[i][i] for i in range(len(acc)))


def hh0_quotient_dim(g, n):
    """Oracle route: dimension of (chained n-words) / span{i_k.W - W.i_k}.

    The relation i_k.W - W.i_k is (left - right) W with left, right in
    {0, 1}, so over F2 every nonzero relation is the unit vector of one
    word W.  The span of unit vectors has the number of distinct words they
    name as its dimension, so the quotient dimension is the number of
    chained words that no relation names.  It shares _chained_words, the
    quotient's domain, with walks_of_length, the production path."""
    words = _chained_words(g, n)
    related = {w for w in words for k in g.idempotents.labels
               if (g.s[w[0]] == k) != (g.t[w[-1]] == k)}
    return len(words) - len(related)


def hh0_inline_power(g, n):
    """Dimension and class representatives of the degree-zero quotient of
    n-fold chained edge words by the idempotent commutator relations.

    The production path lists the cyclically closed walks, and the quotient
    oracle must agree.  Both read the chained words of _chained_words, the
    domain the quotient is defined on.
    """
    reps = walks_of_length(g, n)
    dim = len(reps)
    oracle = hh0_quotient_dim(g, n)
    if oracle != dim:
        raise CrossCheckError(
            f"quotient oracle gives {oracle}, walk enumeration gives {dim}",
            values={"n": n, "oracle": oracle, "walks": dim})
    return dim, reps


def staircase_dims(g, tower, max_level):
    """Sector dimension at each level 0..max_level: the number of closed-walk
    tensors, the product over the shift cycles of the closed-walk count of
    each cycle's length, read from the transfer-matrix trace."""
    dims = []
    for m in range(max_level + 1):
        total = 1
        for cyc in perm_cycles(tower.shift_perm(m)):
            total *= closed_walk_count_trace(g, len(cyc))
        dims.append(total)
    return dims


# -- functoriality counterexample search --------------------------------------------

def _edge_matrix(g, entries):
    return F2Matrix.from_entries(g.edges, g.edges, entries)


def _endpoint_compatible(g, c, b):
    return g.s[c] == g.s[b] and g.t[c] == g.t[b]


def composition_counterexample_search(g, bound=5000, seed=0):
    """Search for edge matrices M and N of g whose solenoidal actions fail
    (NM)_S = N_S M_S, together with a window witnessing it.  Only
    endpoint-incompatible pairs are eligible — for compatible morphisms the
    functor law is a theorem, not a search target.

    Returns a witness dict or None when the trial budget is exhausted
    (bound=0 searches nothing).  Deterministic for a fixed seed.
    """
    tower = dyadic_solenoid(1)
    loop_windows = [MccWindow(tower, g.edges, 0, {w})
                    for w in closed_walk_tensors(g, tower, 0)]
    trials = 0

    def check(m_mat, n_mat, window, depth):
        nm = compose(n_mat, m_mat)
        lhs = e_S_project(apply_mcc(nm, window, depth), g)
        mid = e_S_project(apply_mcc(m_mat, window, depth), g)
        rhs = e_S_project(apply_mcc(n_mat, mid, depth), g)
        if lhs != rhs:
            return {
                "m_entries": sorted(
                    (c, b) for c in m_mat.rows.labels for b in m_mat.cols.labels
                    if m_mat.entry(c, b)),
                "n_entries": sorted(
                    (c, b) for c in n_mat.rows.labels for b in n_mat.cols.labels
                    if n_mat.entry(c, b)),
                "word": next(iter(window.support)) if window.support else None,
                "depth": depth,
                "lhs_support": sorted(lhs.support),
                "rhs_support": sorted(rhs.support),
            }
        return None

    # Phase 1: exhaustive single-entry probe pairs M = E(c<-b), N = E(b2<-c).
    for c in g.edges.labels:
        for b in g.edges.labels:
            m_compat = _endpoint_compatible(g, c, b)
            m_mat = _edge_matrix(g, [(c, b)])
            for b2 in g.edges.labels:
                if m_compat and _endpoint_compatible(g, b2, c):
                    continue
                n_mat = _edge_matrix(g, [(b2, c)])
                for window in loop_windows:
                    if trials >= bound:
                        return None
                    trials += 1
                    wit = check(m_mat, n_mat, window, 0)
                    if wit is not None:
                        wit["trials"] = trials
                        return wit

    # Phase 2: randomized sparse pairs at depths <= 1.
    rng = random.Random(seed)
    pairs = [(c, b) for c in g.edges.labels for b in g.edges.labels]
    depth1_windows = [MccWindow(tower, g.edges, 1, {w})
                      for w in closed_walk_tensors(g, tower, 1)]
    while trials < bound:
        m_ent = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
        n_ent = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
        trials += 1  # every sampled attempt consumes budget, checked or not
        if all(_endpoint_compatible(g, c, b) for c, b in m_ent + n_ent):
            continue
        depth = rng.choice([0, 1])
        pool = loop_windows if depth == 0 else depth1_windows
        if not pool:
            continue  # no closed walk at this depth; the other may have one
        window = rng.choice(pool)
        wit = check(_edge_matrix(g, m_ent), _edge_matrix(g, n_ent), window, depth)
        if wit is not None:
            wit["trials"] = trials
            return wit
    return None


# -- graph text format ----------------------------------------------------------------
#
#   idempotents: ie i0 i1 i01
#   edge t ie ie
#   edge v i0 i1
#
# Blank lines and #-comments are ignored.

def parse_graph(text):
    idem = None
    edges = []
    s = {}
    t = {}
    for lineno, head, line in lex_lines(text, ("idempotents:",)):
        if head == "idempotents":
            idem = line.split()
            continue
        if line.startswith("edge "):
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(
                    f"line {lineno}: expected 'edge NAME FROM TO'", line=lineno)
            _, name, frm, to = parts
            if name in s:
                raise ParseError(f"line {lineno}: duplicate edge {name!r}", line=lineno)
            edges.append(name)
            s[name] = frm
            t[name] = to
            continue
        raise ParseError(f"line {lineno}: unrecognized graph line {line!r}", line=lineno)
    if idem is None:
        raise ParseError("graph file needs an idempotents: header", line=1)
    try:
        return GraphBasis(idem, edges, s, t)
    except LabelMismatchError as e:
        raise ParseError(str(e), line=1)


def dump_graph(g):
    require_token_labels(g.idempotents.labels, "idempotent")
    require_token_labels(g.edges.labels, "edge")
    lines = ["idempotents: " + " ".join(g.idempotents.labels)]
    for e in g.edges.labels:
        lines.append(f"edge {e} {g.s[e]} {g.t[e]}")
    return "\n".join(lines) + "\n"


def load_graph(path_or_name):
    if path_or_name == "fig8":
        return fig8()
    with open(path_or_name, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
