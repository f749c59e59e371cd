"""The torus algebra, type-DA bimodules over it, and box tensor powers.

The algebra is the strands-grading-0 summand of the torus algebra, the one
every generator of a type-DA bimodule sits over: eight basis elements, the
idempotents i0, i1 and the chords r1, r2, r3, r12, r23, r123.
Multiplication concatenates chords (r1 r2 = r12, r2 r3 = r23,
r1 r23 = r123, r12 r3 = r123) and idempotents act by left/right matching.

A DABimodule stores generators with (left, right) idempotents in {i0, i1}
and a set of operation terms (x, inputs, output, y): one delta operation
that eats the generator x and the algebra inputs, emitting the algebra
output and the generator y.  Strict unitality is synthesized, never stored:
stored inputs are always chords, stored outputs are chords or the unit "1".

box_tensor forms the box tensor product of two bimodules: terms of the left
factor are matched against chains of right-factor terms whose outputs spell
the left term's inputs, plus the unital element that forwards right-factor
terms outputting "1".  Iterated powers, Hochschild-style diagonal
generators, and the vanishing certificate that drives the dimension table
live here too.
"""

from __future__ import annotations

import json
import math
import sys
from graphlib import CycleError, TopologicalSorter

from .errors import (CertificateError, ChainingError, CrossCheckError,
                     LabelMismatchError, MccError, SizeCapError,
                     ZeroInputCycleError)

RHO_LABELS = ("r1", "r2", "r3", "r12", "r23", "r123")
IDEMPOTENT_LABELS = ("i0", "i1")
UNIT = "1"

FORBIDDEN_EDGE_LABELS = ("1", "i0", "i1", "r2")


class TorusAlgebra:
    """The pointed-torus strands algebra over F2 in strands grading 0 (see
    module docstring)."""

    basis = IDEMPOTENT_LABELS + RHO_LABELS

    _idem = {
        "i0": ("i0", "i0"), "i1": ("i1", "i1"),
        "r1": ("i0", "i1"), "r2": ("i1", "i0"), "r3": ("i0", "i1"),
        "r12": ("i0", "i0"), "r23": ("i1", "i1"), "r123": ("i0", "i1"),
    }
    _products = {
        ("r1", "r2"): "r12",
        ("r2", "r3"): "r23",
        ("r1", "r23"): "r123",
        ("r12", "r3"): "r123",
    }

    def is_idempotent(self, a):
        return a in IDEMPOTENT_LABELS

    def idem(self, a):
        return self._idem[a]

    def mult(self, a, b):
        """Product of two basis elements; None encodes zero."""
        if a not in self._idem or b not in self._idem:
            raise LabelMismatchError(f"unknown algebra labels {a!r}, {b!r}")
        if self.is_idempotent(a):
            return b if self._idem[b][0] == a else None
        if self.is_idempotent(b):
            return a if self._idem[a][1] == b else None
        return self._products.get((a, b))


_TORUS = TorusAlgebra()


def torus_algebra():
    """The torus algebra, one instance shared by every caller."""
    return _TORUS


# per-chord (start, end) idempotents, the tables term validation reads
_CHORDS = frozenset(RHO_LABELS)
_CHORD_START = {a: TorusAlgebra._idem[a][0] for a in RHO_LABELS}
_CHORD_END = {a: TorusAlgebra._idem[a][1] for a in RHO_LABELS}


class DABimodule:
    """A type-DA bimodule over the torus algebra.

    generators: iterable of (name, left_idem, right_idem) with idempotents
    in {i0, i1}.  terms: iterable of (x, inputs, output, y); duplicate terms
    cancel in pairs (coefficients live in F2).  Idempotent chaining along
    every term and acyclicity of the zero-input terms are validated.
    `generators` and `terms` are sorted tuples, built once here, so that the
    order the generators and terms come in never tells two bimodules apart.
    """

    def __init__(self, generators, terms):
        gens = []
        for (gname, left, right) in generators:
            if left not in IDEMPOTENT_LABELS or right not in IDEMPOTENT_LABELS:
                raise ChainingError(
                    f"generator {gname!r} needs idempotents in {{i0, i1}}, "
                    f"got ({left!r}, {right!r})")
            gens.append((str(gname), left, right))
        self.idem = {g: (l, r) for (g, l, r) in gens}
        if len(self.idem) != len(gens):
            raise LabelMismatchError("duplicate generator names")
        self.generators = tuple(sorted(gens))

        bag = set()
        for (x, inputs, output, y) in terms:
            t = (str(x), tuple(inputs), str(output), str(y))
            bag ^= {t}
        # validation, the per-source lists, certificate witnesses,
        # serialization, equality and hashing all read this one order
        self.terms = tuple(sorted(bag))
        for t in self.terms:
            self._validate_term(t)

        self._by_source = {}
        for t in self.terms:
            self._by_source.setdefault(t[0], []).append(t)
        self._check_zero_input_cycles()

    def _validate_term(self, term):
        x, inputs, output, y = term
        if x not in self.idem or y not in self.idem:
            raise LabelMismatchError(f"term {term} uses unknown generators")
        lx, rx = self.idem[x]
        ly, ry = self.idem[y]
        if not _CHORDS.issuperset(inputs):
            a = next(a for a in inputs if a not in _CHORDS)
            raise ChainingError(
                f"term {term}: inputs must be chords (strict unitality is "
                f"synthesized, never stored); got {a!r}")
        if output == UNIT:
            if lx != ly:
                raise ChainingError(
                    f"term {term}: unit output needs equal left idempotents, "
                    f"got {lx!r} vs {ly!r}")
        elif output in _CHORDS:
            ol, orr = _CHORD_START[output], _CHORD_END[output]
            if (ol, orr) != (lx, ly):
                raise ChainingError(
                    f"term {term}: output {output!r} has idempotents ({ol}, {orr}), "
                    f"the arrow needs ({lx}, {ly})")
        else:
            raise ChainingError(
                f"term {term}: output must be a chord or the unit, got {output!r}")
        chain = rx
        for a in inputs:
            if _CHORD_START[a] != chain:
                raise ChainingError(
                    f"term {term}: input {a!r} starts at {_CHORD_START[a]!r}, "
                    f"expected {chain!r}")
            chain = _CHORD_END[a]
        if ry != chain:
            raise ChainingError(
                f"term {term}: generator {y!r} has right idempotent {ry!r}, "
                f"the inputs end at {chain!r}")

    def _check_zero_input_cycles(self):
        adj = {}
        for (x, inputs, output, y) in self.terms:
            if not inputs:
                adj.setdefault(x, []).append(y)
        try:
            TopologicalSorter(adj).prepare()
        except CycleError as e:
            # graphlib reads each list as predecessors, so its cycle runs
            # against the terms
            cycle = e.args[1][::-1]
            raise ZeroInputCycleError(
                f"zero-input terms form a cycle: {' -> '.join(cycle)}",
                cycle=cycle) from None

    # -- operations -------------------------------------------------------------

    def terms_from(self, x):
        return self._by_source.get(x, [])

    def __eq__(self, other):
        return (isinstance(other, DABimodule)
                and self.generators == other.generators
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.generators, self.terms))

    def __repr__(self):
        return f"DABimodule({len(self.generators)} generators, {len(self.terms)} terms)"


def _chains_with_outputs(terms_from, start, outputs):
    """Chains of terms from `start` whose step outputs spell `outputs`,
    where `terms_from(x)` lists the terms leaving generator x; returns
    (concatenated_inputs, end_generator) pairs, raw, with multiplicity (no
    parity reduction — the caller cancels at the term level)."""
    res = [((), start)]
    for target in outputs:
        res = [(consumed + ins, y) for consumed, gen in res
               for (_, ins, out, y) in terms_from(gen) if out == target]
    return res


def box_generators(m_gens, n_gens):
    """Generator pairs of a box product: left and right factors chained
    through the middle idempotent, named by flat "|"-joined labels so that
    iterated products associate on the nose.  A name that two pairs share
    (factor names holding "|" can spell one name two ways) raises
    LabelMismatchError naming it."""
    gens = [(xn + "|" + yn, xl, yr)
            for (xn, xl, xr) in m_gens
            for (yn, yl, yr) in n_gens
            if xr == yl]
    seen = set()
    for (g, _, _) in gens:
        if g in seen:
            raise LabelMismatchError(f"box generator name {g!r} names two pairs")
        seen.add(g)
    return gens


def idempotent_counts(gens):
    """The 2x2 matrix C counting generators by (left, right) idempotent,
    rows and columns in the order i0, i1.  box_generators pairs x with y
    exactly when x's right idempotent is y's left, so C(M box N) = C(M) C(N),
    and sum(C) is the generator count."""
    c = [[0, 0], [0, 0]]
    for (_, l, r) in gens:
        c[l == "i1"][r == "i1"] += 1
    return c


def _count_product(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]


BOX_GENERATOR_CAP = 1000


def _refuse_over_cap(counts):
    size = sum(map(sum, counts))
    if size > BOX_GENERATOR_CAP:
        raise SizeCapError(f"box product would have {size} generators, over the "
                           f"cap {BOX_GENERATOR_CAP}")


def _box_lift(m_gens, m_terms_from, n_gens, n_terms_from):
    """The generators and raw terms (with multiplicity) of a box product,
    from each factor's generators and terms-from lookup.  Each left term
    with inputs (a_1..a_k) combines with every right chain spelling that
    output word; the unital element additionally forwards right terms
    outputting "1" at a frozen left generator.  Pairs run left generator,
    then right generator, then the left generator's terms."""
    gens = box_generators(m_gens, n_gens)
    gen_names = {g for (g, _, _) in gens}
    right_of = {l: [yn for (yn, yl, _) in n_gens if yl == l] for l in IDEMPOTENT_LABELS}
    terms = []
    for (xn, _, xr) in m_gens:
        left_terms = m_terms_from(xn)
        for yn in right_of[xr]:
            src = xn + "|" + yn
            for (x1, a_word, b_out, x2) in left_terms:
                for consumed, y_end in _chains_with_outputs(n_terms_from, yn, a_word):
                    tgt = x2 + "|" + y_end
                    if tgt not in gen_names:
                        raise CrossCheckError(
                            f"box term {src} -> {tgt} leaves the generator pairs",
                            values={"source": src, "target": tgt,
                                    "left_term": [x1, list(a_word), b_out, x2],
                                    "inputs": list(consumed)})
                    terms.append((src, consumed, b_out, tgt))
            for (y1, ins, out, y2) in n_terms_from(yn):
                if out == UNIT:
                    terms.append((src, ins, UNIT, xn + "|" + y2))
    return gens, terms


def box_tensor(m, n):
    """The box tensor product M box N of type-DA bimodules: _box_lift's terms
    cancelled in pairs over F2.  A product of more than BOX_GENERATOR_CAP
    generators, counted from C(M) C(N) before any pair is formed, raises
    SizeCapError."""
    _refuse_over_cap(_count_product(idempotent_counts(m.generators),
                                    idempotent_counts(n.generators)))
    gens, terms = _box_lift(m.generators, m.terms_from, n.generators, n.terms_from)
    return DABimodule(gens, terms)


def box_power(p, k):
    """The k-fold box power (k >= 1) by binary doubling: square for each
    binary digit of k after the first, then multiply by p where it is 1.
    Every product is counted from C first, and the first over
    BOX_GENERATOR_CAP raises SizeCapError before any product is built."""
    if k < 1:
        raise MccError("box power needs k >= 1")
    digits = bin(k)[3:]
    base = idempotent_counts(p.generators)
    c = base
    for digit in digits:
        c = _count_product(c, c)
        _refuse_over_cap(c)
        if digit == "1":
            c = _count_product(c, base)
            _refuse_over_cap(c)
    out = p
    for digit in digits:
        out = box_tensor(out, out)
        if digit == "1":
            out = box_tensor(out, p)
    return out


def hochschild_generators(p):
    """Diagonal generators (equal left and right idempotents), the basis of
    the degree-zero self-pairing."""
    return [g for (g, l, r) in p.generators if l == r]


# -- the seed bimodules -----------------------------------------------------------

def cfda_tb_inv():
    """Left factor of the seed pair: three generators p, q, r."""
    gens = [("p", "i0", "i0"), ("q", "i1", "i1"), ("r", "i1", "i0")]
    terms = [
        ("p", ("r1",), "r1", "q"),
        ("p", ("r123",), "r123", "q"),
        ("p", (), "r3", "r"),
        ("p", ("r12",), "r1", "r"),
        ("p", ("r123", "r2"), "r12", "p"),
        ("q", ("r23", "r2"), "r2", "p"),
        ("q", ("r23",), "r23", "q"),
        ("q", ("r2",), "1", "r"),
        ("r", ("r3",), "r23", "q"),
        ("r", ("r3", "r2"), "r2", "p"),
    ]
    return DABimodule(gens, terms)


def cfda_ta():
    """Right factor of the seed pair: three generators f, g, h."""
    gens = [("f", "i0", "i0"), ("g", "i1", "i1"), ("h", "i0", "i1")]
    terms = [
        ("f", ("r1",), "r12", "h"),
        ("f", ("r3",), "r3", "g"),
        ("f", ("r123",), "r123", "g"),
        ("f", ("r12",), "r12", "f"),
        ("g", ("r2", "r1"), "r2", "h"),
        ("g", ("r2", "r123"), "r23", "g"),
        ("g", ("r2", "r12"), "r2", "f"),
        ("h", ("r2",), "1", "f"),
        ("h", (), "r1", "g"),
        ("h", ("r23",), "r3", "g"),
    ]
    return DABimodule(gens, terms)


def seed_box():
    """The seed box product (5 generators, 21 terms)."""
    return box_tensor(cfda_tb_inv(), cfda_ta())


# -- vanishing certificate -----------------------------------------------------------

def _closure(labels, feeds=()):
    """The least label set holding `labels`, closed under nonzero torus
    algebra products and under each (inputs, output) feed whose inputs lie
    inside."""
    alg = torus_algebra()
    labels = set(labels)
    while True:
        pool = [a for a in labels if a in alg._idem]
        new = {alg.mult(a, b) for a in pool for b in pool}
        new.update(out for ins, out in feeds if labels.issuperset(ins))
        new.discard(None)
        if new <= labels:
            return labels
        labels |= new


def vanishing_certificate(p):
    """Certify that no operation of the bimodule ever emits an output built
    from the forbidden labels {1, i0, i1, r2} spontaneously.

    Four checks mechanize the first-offender induction:
      P1  every term outputting r2 consumes an r2;
      P2  every algebra product equal to r2 has an r2 operand;
      P3  every term outputting the unit or an idempotent consumes a
          forbidden label;
      P4  every algebra product equal to an idempotent has an idempotent
          operand.
    The reported fixpoint closes the zero-input outputs under nonzero
    products; the extended fixpoint additionally feeds terms whose inputs
    all lie inside, as a strictly stronger reachability bound.  The
    certificate is granted when all checks pass and both closures avoid the
    forbidden labels.
    """
    alg = torus_algebra()
    forbidden = frozenset(FORBIDDEN_EDGE_LABELS)

    # P2 and P4: the first offending operand pair of each, in one scan
    p2 = p4 = None
    for a in alg.basis:
        for b in alg.basis:
            ab = alg.mult(a, b)
            if p2 is None and ab == "r2" and "r2" not in (a, b):
                p2 = (a, b)
            if (p4 is None and ab is not None and alg.is_idempotent(ab)
                    and not (alg.is_idempotent(a) or alg.is_idempotent(b))):
                p4 = (a, b)
    unitlike = {UNIT}.union(a for a in alg.basis if alg.is_idempotent(a))
    witnesses = (
        ("P1-r2-output-needs-r2-input",
         next((t for t in p.terms if t[2] == "r2" and "r2" not in t[1]), None)),
        ("P2-r2-product-needs-r2-operand", p2),
        ("P3-unit-output-needs-forbidden-input",
         next((t for t in p.terms
               if t[2] in unitlike and forbidden.isdisjoint(t[1])), None)),
        ("P4-idempotent-product-needs-idempotent-operand", p4),
    )
    checks = [{"name": name, "ok": w is None, "witness": list(w) if w else None}
              for name, w in witnesses]

    # spontaneous closure: zero-input outputs, closed under nonzero products
    fix = _closure({t[2] for t in p.terms if not t[1]})

    # extended closure: also feed terms whose inputs all lie inside; terms
    # with equal input letters and output feed alike
    ext = _closure(fix, {(frozenset(t[1]), t[2]) for t in p.terms if t[1]})

    granted = (all(c["ok"] for c in checks)
               and not (fix & forbidden) and not (ext & forbidden))
    return {
        "granted": granted,
        "checks": checks,
        "fixpoint": sorted(fix),
        "extended_fixpoint": sorted(ext),
        "forbidden": sorted(forbidden),
        "generators": len(p.generators),
        "terms": len(p.terms),
    }


DERIVED_WORK_CAP = 1 << 17


def derived_power_certificate(base, doublings):
    """Certificate for the 2^doublings-fold box power of `base`, derived by
    structural induction instead of assembling the power's term table (which
    grows into millions of long-word terms past the 4-fold power).

    A raw term of P box P either lifts a left-factor term (x, a_word, b, x2)
    over a right-factor chain spelling a_word — its inputs are the chain's
    consumed chords — or forwards a unit-output right-factor term at a
    frozen left generator; the reduced term set is a subset of the raw one,
    so universal properties survive cancellation.  The checks transfer:
      * P1: an r2 output comes from a left term with an r2 input (P1 on the
        base); the chain step emitting that r2 consumes one (P1 again).
      * P3: a unit or idempotent output comes from a left term whose inputs
        meet the forbidden set; stored inputs are chords, so that input is
        r2 and P1 applies as above.  Unit forwards consume the right term's
        own inputs, which contain r2 by P3.
      * P2/P4 mention only the algebra and transfer verbatim.
    For the closures, let E be the base's extended fixpoint.  Any term whose
    inputs all lie in E has its output in E (that is E's defining closure
    rule), so a chain consuming only E-letters spells an E-only word and its
    left term consumes only E-letters too: the sub-table of terms with all
    inputs in E squares through doublings self-contained, and two raw
    product terms can only cancel inside one stratum (equal tuples share the
    consumed word).  That sub-table is tiny, so it is squared here exactly,
    parity and all; zero-input terms live inside it, which makes the
    spontaneous fixpoint of every doubling exact, not an estimate.  The
    extended closure itself can only shrink: E-fed chain outputs stay in E,
    and unit-output terms can never fire from inside E because they consume
    an r2 (P3 + chord-only inputs), which the granted base keeps out of E.
    So E stays a sound bound for every reachable output at every depth.
    The spontaneous fixpoint only grows once every idempotent that ends a
    generator of the power also starts one.  Every power of the seed has
    that property (no entry of its C is zero), and squaring keeps it: a
    generator x|y ending at r has y ending at r, some w starts at r, some v
    starts where w ends, and w|v starts at r.  A zero-input term
    (x, (), b, x2) of the sub-table then lifts over the empty chain to
    (x|y, (), b, x2|y) for every y starting at x's right idempotent, and
    such a y exists.  The only other raw term equal to it would pair a left
    term (x, w, b, x2) with |w| >= 1 and a zero-input chain from y back to
    y: a zero-input cycle, which the base refuses and a box product of
    acyclic factors never forms.  Unit forwards never enter the sub-table
    (the premise refusals below).  So the lift survives F2 cancellation,
    every zero-input output of one doubling is one of the next, and the
    fixpoint, capped at E above, stays E from the first doubling d >= 1
    where it reaches E.  Squaring stops there and reports E for every
    deeper doubling, so every reported fixpoint is exact; d >= 1 holds at
    least one lifted doubling to the bound.
    Premises are checked mechanically on the materialized base.  Before each
    doubling the next generator count is read off C (C(P box P) = C(P)^2);
    a base that has not saturated when it or the current sub-table size
    passes DERIVED_WORK_CAP raises SizeCapError naming the doubling.  A
    refused base certificate raises CertificateError naming the failed
    property and its witness.
    """
    if doublings < 0:
        raise MccError("doublings must be >= 0")
    cert = vanishing_certificate(base)
    if not cert["granted"]:
        bad = next((c for c in cert["checks"] if not c["ok"]), None)
        detail = (f"{bad['name']} fails on {bad['witness']}" if bad else
                  f"fixpoint {cert['fixpoint']} meets forbidden labels")
        raise CertificateError(
            f"cannot derive a power certificate: the base certificate is "
            f"refused: {detail}", report=cert)
    closure = frozenset(cert["extended_fixpoint"])
    bad = next((t for t in base.terms if not t[1] and t[2] == UNIT), None)
    if bad is not None:
        raise CertificateError(
            f"cannot derive a power certificate: zero-input term {bad} outputs "
            f"the unit, so unit forwards would enter the spontaneous closure",
            report=cert)
    bad = next((t for t in base.terms
                if t[2] == UNIT and closure.issuperset(t[1])), None)
    if bad is not None:
        raise CertificateError(
            f"cannot derive a power certificate: unit-output term {bad} is "
            f"feedable entirely from the extended closure",
            report=cert)

    # square the closure-input-only sub-table until its fixpoint saturates
    gens = base.generators
    counts = idempotent_counts(gens)
    table = {t for t in base.terms if closure.issuperset(t[1])}
    fix_by_doubling = [sorted(cert["fixpoint"])]
    saturated = None
    for d in range(1, doublings + 1):
        counts = _count_product(counts, counts)
        size = sum(map(sum, counts))
        if size > DERIVED_WORK_CAP or len(table) > DERIVED_WORK_CAP:
            raise SizeCapError(f"derived certificate unsaturated at doubling {d}: {size} "
                               f"generators, {len(table)} terms, over the cap {DERIVED_WORK_CAP}")
        by_src = {g: [] for (g, _, _) in gens}
        for t in table:
            by_src[t[0]].append(t)
        # the premise refusals keep every unit-output term out of the
        # sub-table, so the lift forwards no unit here
        gens, raw = _box_lift(gens, by_src.__getitem__, gens, by_src.__getitem__)
        table = set()
        for t in raw:
            table ^= {t}
        fix = _closure({t[2] for t in table if not t[1]})
        if not fix <= closure:
            raise CrossCheckError(
                "derived fixpoint left its proven bound",
                values={"fixpoint": sorted(fix), "bound": sorted(closure)})
        fix_by_doubling.append(sorted(fix))
        if fix == closure and {r for (_, _, r) in gens} <= {l for (_, l, _) in gens}:
            saturated = d
            fix_by_doubling += [sorted(closure)] * (doublings - d)
            break

    forbidden = frozenset(FORBIDDEN_EDGE_LABELS)
    checks = [dict(c, derived=True) for c in cert["checks"]]
    return {
        "granted": not (closure & forbidden),
        "derived": True,
        "doublings": doublings,
        "checks": checks,
        "fixpoint": fix_by_doubling[-1],
        "fixpoint_is_exact": True,
        "fixpoint_by_doubling": fix_by_doubling,
        "saturated_at_doubling": saturated,
        "extended_fixpoint": sorted(closure),
        "extended_fixpoint_is_bound": True,
        "forbidden": sorted(forbidden),
        "base_generators": len(base.generators),
        "base_terms": len(base.terms),
    }


def hfk_dimensions(max_level):
    """Dimension rows for the 2^m-fold box powers of seed_box(), m = 0..max_level,
    with no power assembled.

    The middle count is the number of diagonal generators, trace(C^(2^m))
    for the seed's idempotent-count matrix C, and the closed form adds one
    dimension on each side.  The first level whose total has more decimal
    digits than the interpreter writes (sys.get_int_max_str_digits(), or
    its default while the limit is off) raises SizeCapError naming the
    level, before C is squared any further: at the default of 4,300 digits
    that is level 14.  One structural induction, derived_power_certificate,
    then certifies the seed directly and every deeper power; a refused seed
    raises CertificateError naming the failed property and offending term.
    """
    base = seed_box()
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    counts = idempotent_counts(base.generators)
    rows = []
    for m in range(max_level + 1):
        if m:
            counts = _count_product(counts, counts)
        middle = counts[0][0] + counts[1][1]
        digits = math.floor(math.log10(middle + 2)) + 1
        if digits > limit:
            raise SizeCapError(f"level {m}: its total has {digits} decimal digits, "
                               f"over the interpreter's limit of {limit}")
        rows.append({"level": m, "power": 2 ** m, "lower": 1, "middle": middle,
                     "upper": 1, "total": middle + 2,
                     "certificate": "derived" if m else "direct"})
    derived_power_certificate(base, max_level)
    return rows


# -- JSON serialization ---------------------------------------------------------------

def bimodule_to_dict(p):
    return {
        "algebra": "torus",
        "generators": [{"name": g, "left": l, "right": r}
                       for (g, l, r) in p.generators],
        "terms": [{"x": x, "inputs": list(ins), "output": out, "y": y}
                  for (x, ins, out, y) in p.terms],
    }


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _json_value(value, kind, field):
    """`value` when it is a `kind`, else an MccError naming the JSON field."""
    if value is None:
        raise MccError(f"bimodule JSON: {field} is missing")
    if not isinstance(value, kind):
        raise MccError(f"bimodule JSON: {field} must be {_JSON_KINDS[kind]}, "
                       f"got {type(value).__name__}")
    return value


def bimodule_from_dict(d):
    """The bimodule of a parsed JSON document; a document of the wrong
    shape raises MccError naming the first bad field."""
    _json_value(d, dict, "the top level")
    if d.get("algebra") != "torus":
        raise MccError(f"unsupported algebra {d.get('algebra')!r}")
    gens = []
    for i, g in enumerate(_json_value(d.get("generators"), list, "generators")):
        _json_value(g, dict, f"generators[{i}]")
        gens.append(tuple(_json_value(g.get(k), str, f"generators[{i}].{k}")
                          for k in ("name", "left", "right")))
    terms = []
    for i, t in enumerate(_json_value(d.get("terms"), list, "terms")):
        _json_value(t, dict, f"terms[{i}]")
        x, out, y = (_json_value(t.get(k), str, f"terms[{i}].{k}")
                     for k in ("x", "output", "y"))
        ins = _json_value(t.get("inputs"), list, f"terms[{i}].inputs")
        terms.append((x, tuple(_json_value(a, str, f"terms[{i}].inputs[{j}]")
                               for j, a in enumerate(ins)), out, y))
    return DABimodule(gens, terms)


# stored inputs are chords and stored outputs chords or the unit
_QUOTED_LABELS = {a: json.dumps(a) for a in RHO_LABELS + (UNIT,)}


def _bimodule_pieces(p):
    """The text of dumps_bimodule(p), one piece per generator and per term;
    each list is laid out as json.dumps with indent=2 lays it out."""
    name = {g: json.dumps(g) for (g, _, _) in p.generators}
    yield '{\n  "algebra": "torus",\n  "generators": ['
    sep = "\n    "
    for (g, l, r) in p.generators:
        yield (f'{sep}{{\n      "left": {json.dumps(l)},\n'
               f'      "name": {name[g]},\n'
               f'      "right": {json.dumps(r)}\n    }}')
        sep = ",\n    "
    yield ("\n  ]" if p.generators else "]") + ',\n  "terms": ['
    sep = "\n    "
    for (x, ins, out, y) in p.terms:
        inputs = ("[\n        " + ",\n        ".join([_QUOTED_LABELS[a] for a in ins])
                  + "\n      ]" if ins else "[]")
        yield (f'{sep}{{\n      "inputs": {inputs},\n'
               f'      "output": {_QUOTED_LABELS[out]},\n'
               f'      "x": {name[x]},\n'
               f'      "y": {name[y]}\n    }}')
        sep = ",\n    "
    yield ("\n  ]" if p.terms else "]") + "\n}\n"


def dumps_bimodule(p):
    """The canonical JSON text of `p`: the same bytes as
    json.dumps(bimodule_to_dict(p), indent=2, sort_keys=True) + "\n",
    written directly for the fixed layout (keys in sorted order)."""
    return "".join(_bimodule_pieces(p))


def write_bimodule(p, fh):
    """Write dumps_bimodule(p) to the text file `fh` piece by piece."""
    fh.writelines(_bimodule_pieces(p))


def load_bimodule(path):
    """The bimodule in the JSON file at `path`; a document nested too deeply
    for json to read raises MccError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except RecursionError:
            raise MccError(f"bimodule JSON {path!r} is nested too deeply to read") from None
    return bimodule_from_dict(document)


def golden_box_text():
    """The shipped reference JSON for the seed box product, as text."""
    # imported on use: it pulls in pathlib, zipfile and tempfile, which the
    # hh, box and dims commands never need
    from importlib import resources

    return (resources.files("mcctensor") / "data" / "dabimod-box-final.json"
            ).read_text(encoding="utf-8")


def resolve_bimodule(arg):
    """CLI helper: builtin names tb_inv / ta / box, else a JSON file path."""
    if arg == "tb_inv":
        return cfda_tb_inv()
    if arg == "ta":
        return cfda_ta()
    if arg == "box":
        return seed_box()
    return load_bimodule(arg)
