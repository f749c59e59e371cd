"""Dyadic towers of finite level sets and the conditionally convergent sum.

A tower is a chain of finite labeled sets X_0 <- X_1 <- ... <- X_L (each
projection has 2-power fibers) together with a compatible family of
permutation actions generated level-by-level (the level groups are finite
2-groups) and, optionally, a distinguished shift permutation commuting with
the action.  The dyadic solenoid truncated at level L is the motivating
built-in: X_m = Z/2^m with reduction maps, the +1 rotation as both the
action generator and the shift.

Functions X_m -> B ("words") model germs of functions on the inverse limit:
a word at level m pulls back to every deeper level.  The kernel subgroup
K(m, h) — level-m action elements that project to the identity at level h —
plays the role of the scale-h stabilizer: a word (or an F2 table of words)
is "level-h invariant" when K(m, h) fixes it, which is tested on a small
generating set of K(m, h).

cc_sum evaluates the conditionally convergent sum of an F2 table over the
level-h fixed words.  For a table invariant at the summation level that sum
is the parity of the support (the kernels are 2-groups), so it does not
depend on the level.
"""

from __future__ import annotations

import itertools
import os
import re
from operator import itemgetter

from .errors import (DepthError, InvarianceError, LabelMismatchError,
                     MissingShiftError, ParseError, TowerValidationError)
from .f2cat import LabeledSet, int_field, lex_lines, require_token_labels

GROUP_SIZE_CAP = 1 << 13


def act_word(perm, word):
    """Apply a level permutation to a word: (g.f)(g(x)) = f(x)."""
    out = [None] * len(word)
    for i, v in zip(perm, word):
        out[i] = v
    return tuple(out)


def perm_cycles(perm):
    """The cycles of an index permutation, fixed points included, each
    starting at its least index, in order of those indices."""
    seen = set()
    cycles = []
    for i in range(len(perm)):
        if i not in seen:
            cyc = [i]
            j = perm[i]
            while j != i:
                cyc.append(j)
                j = perm[j]
            seen.update(cyc)
            cycles.append(cyc)
    return cycles


def _perm_from_mapping(mapping, labels):
    index = {l: i for i, l in enumerate(labels)}
    perm = [None] * len(labels)
    for src, dst in mapping.items():
        if src not in index or dst not in index:
            raise TowerValidationError(
                f"permutation uses unknown label {src!r} -> {dst!r}")
        perm[index[src]] = index[dst]
    for i, v in enumerate(perm):
        if v is None:
            perm[i] = i  # labels not mentioned are fixed
    if sorted(perm) != list(range(len(labels))):
        raise TowerValidationError("permutation is not a bijection")
    return tuple(perm)


def _close(elements, gens, what):
    """The set of permutations `elements` closed under left multiplication
    by `gens` (breadth-first); for a finite group containing `elements` and
    generated with them by `gens`, that is the generated subgroup."""
    seen = set(elements)
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(len(p)))
                if q not in seen:
                    if len(seen) >= GROUP_SIZE_CAP:
                        raise TowerValidationError(
                            f"{what} exceeds size cap {GROUP_SIZE_CAP}")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


class DyadicTower:
    """A finite truncation of a pro-dyadic tower with a 2-group action.

    Parameters
    ----------
    level_sets : list of label iterables, levels 0..L in order.
    projections : list of dicts, projections[m] maps level-(m+1) labels to
        level-m labels (length L).
    generators : dict name -> list of per-level permutations (dicts
        label -> label, one per level).  All generators at a level together
        generate that level's group.
    shift : optional list of per-level permutations (dicts), the
        distinguished shift S.
    name : optional reference that loads the tower again, as a window
        file's tower: header writes it ('dyadic 3', 'file /abs/t.txt').

    Two towers are equal when their levels, projections, named generators
    and shift are equal, however each was built; the name is left out.
    """

    def __init__(self, level_sets, projections, generators, shift=None, name=None):
        self.levels = [LabeledSet(ls) for ls in level_sets]
        if not self.levels:
            raise TowerValidationError("a tower needs at least one level")
        if len(projections) != len(self.levels) - 1:
            raise TowerValidationError(
                f"need {len(self.levels) - 1} projections for {len(self.levels)} levels, "
                f"got {len(projections)}")
        self.name = name

        # child -> parent index arrays
        self.child_to_parent = []
        for m, proj in enumerate(projections):
            child, parent = self.levels[m + 1], self.levels[m]
            arr = [None] * len(child)
            for c_label, p_label in proj.items():
                if c_label not in child.index:
                    raise TowerValidationError(
                        f"projection at level {m + 1}: unknown child label {c_label!r}")
                if p_label not in parent.index:
                    raise TowerValidationError(
                        f"projection at level {m + 1}: unknown parent label {p_label!r}")
                arr[child.index[c_label]] = parent.index[p_label]
            missing = [child.labels[i] for i, v in enumerate(arr) if v is None]
            if missing:
                raise TowerValidationError(
                    f"projection at level {m + 1} misses children {missing}")
            self.child_to_parent.append(tuple(arr))

        self.gen_names = tuple(sorted(generators))
        self.gens = {}
        for gname in self.gen_names:
            per_level = generators[gname]
            if len(per_level) != len(self.levels):
                raise TowerValidationError(
                    f"generator {gname!r} needs one permutation per level")
            self.gens[gname] = tuple(
                _perm_from_mapping(p, self.levels[m].labels)
                for m, p in enumerate(per_level))

        if shift is not None:
            if len(shift) != len(self.levels):
                raise TowerValidationError("shift needs one permutation per level")
            self.shift = tuple(_perm_from_mapping(p, self.levels[m].labels)
                               for m, p in enumerate(shift))
        else:
            self.shift = None

        self._groups = {}
        self._kernels = {}
        self._kernel_gens = {}
        self._up = {}
        self._validate()

    # -- basic accessors -------------------------------------------------------

    @property
    def max_level(self):
        return len(self.levels) - 1

    def level(self, m):
        if not 0 <= m <= self.max_level:
            raise DepthError(f"level {m} out of range 0..{self.max_level}")
        return self.levels[m]

    def size(self, m):
        return len(self.level(m))

    def shift_perm(self, m):
        if self.shift is None:
            raise MissingShiftError("this tower has no shift permutation")
        self.level(m)
        return self.shift[m]

    def up_index(self, m_low, m_high):
        """Index array: position i at level m_high -> its image at m_low."""
        self.level(m_low)
        self.level(m_high)
        if m_low > m_high:
            raise DepthError(f"up_index needs m_low <= m_high, got {m_low} > {m_high}")
        key = (m_low, m_high)
        if key not in self._up:
            idx = list(range(self.size(m_high)))
            for l in range(m_high, m_low, -1):
                c2p = self.child_to_parent[l - 1]
                idx = [c2p[i] for i in idx]
            self._up[key] = tuple(idx)
        return self._up[key]

    # -- words ------------------------------------------------------------------

    def words(self, m, basis_labels):
        """All words X_m -> basis in lexicographic order (level labels major)."""
        return itertools.product(tuple(basis_labels), repeat=self.size(m))

    def pull_word(self, word, m_low, m_high):
        """Pull a level-m_low word back to level m_high along the projections."""
        if len(word) != self.size(m_low):
            raise DepthError(
                f"word length {len(word)} does not match level {m_low} size {self.size(m_low)}")
        up = self.up_index(m_low, m_high)
        return tuple(word[j] for j in up)

    def compress_word(self, word, m, h):
        """The level-h word pulling back to this level-m word, or None when
        the word is not constant on the level-h fibers (does not factor
        through level h)."""
        out = [None] * self.size(h)
        for i, j in enumerate(self.up_index(h, m)):
            if out[j] is None:
                out[j] = word[i]
            elif out[j] != word[i]:
                return None
        return tuple(out)

    def factor_level(self, word, m):
        """Least h such that the level-m word is constant on level-h fibers."""
        if len(word) != self.size(m):
            raise DepthError(
                f"word length {len(word)} does not match level {m} size {self.size(m)}")
        return next(h for h in range(m + 1)
                    if self.compress_word(word, m, h) is not None)

    # -- groups and kernels -----------------------------------------------------

    def group(self, m):
        """All elements of the level-m action group, as permutation tuples."""
        self.level(m)
        if m not in self._groups:
            gens = [self.gens[g][m] for g in self.gen_names]
            seen = _close({tuple(range(self.size(m)))}, gens, f"level-{m} group")
            self._groups[m] = tuple(sorted(seen))
        return self._groups[m]

    def kernel(self, m, h):
        """Level-m group elements that project to the identity at level h <= m."""
        self.level(m)
        self.level(h)
        if h > m:
            raise DepthError(f"kernel level {h} exceeds group level {m}")
        key = (m, h)
        if key not in self._kernels:
            up = self.up_index(h, m)
            self._kernels[key] = tuple(
                sigma for sigma in self.group(m)
                if all(up[sigma[i]] == up[i] for i in range(len(sigma))))
        return self._kernels[key]

    def kernel_generators(self, m, h):
        """A generating set of K(m, h), at most log2 |K(m, h)| elements.

        Kernel elements are taken in `kernel` order and one is kept only
        when it lies outside the subgroup the kept ones generate; each kept
        element at least doubles that subgroup (Lagrange).  A table or word
        is fixed by K(m, h) iff it is fixed by these generators, so the
        invariance searches test these and not the whole kernel.  Computed
        on first use and cached.
        """
        key = (m, h)
        if key not in self._kernel_gens:
            gens, closure = [], {tuple(range(self.size(m)))}
            for sigma in self.kernel(m, h):
                if sigma not in closure:
                    gens.append(sigma)
                    closure = _close(closure, gens, f"K({m}, {h})")
            self._kernel_gens[key] = tuple(gens)
        return self._kernel_gens[key]

    # -- structural validation ----------------------------------------------------

    def _validate(self):
        # fibers have 2-power cardinality
        for m, c2p in enumerate(self.child_to_parent):
            counts = {}
            for p in c2p:
                counts[p] = counts.get(p, 0) + 1
            for j in range(self.size(m)):
                c = counts.get(j, 0)
                if c == 0 or c & (c - 1):
                    raise TowerValidationError(
                        f"projection to level {m}: fiber over "
                        f"{self.levels[m].labels[j]!r} has size {c}, not a power of 2")

        # the generators, by name, and the shift commute with the projections
        moves = [(f"generator {g!r}", self.gens[g]) for g in self.gen_names]
        if self.shift is not None:
            moves.append(("shift", self.shift))
        for what, perms in moves:
            for m in range(self.max_level):
                c2p = self.child_to_parent[m]
                lower, upper = perms[m], perms[m + 1]
                for i in range(self.size(m + 1)):
                    if c2p[upper[i]] != lower[c2p[i]]:
                        raise TowerValidationError(
                            f"{what} does not commute with the projection "
                            f"to level {m} at {self.levels[m + 1].labels[i]!r}")

        # each level group is a finite 2-group
        for m in range(self.max_level + 1):
            order = len(self.group(m))
            if order & (order - 1):
                raise TowerValidationError(
                    f"level-{m} group has order {order}, not a power of 2")

        # the shift commutes with the action
        if self.shift is not None:
            for m in range(self.max_level + 1):
                s = self.shift[m]
                for gname in self.gen_names:
                    g = self.gens[gname][m]
                    if any(s[g[i]] != g[s[i]] for i in range(len(s))):
                        raise TowerValidationError(
                            f"shift does not commute with generator {gname!r} at level {m}")

    def _structure(self):
        return (tuple(self.levels), tuple(self.child_to_parent),
                tuple(self.gens.items()), self.shift)

    def __eq__(self, other):
        if not isinstance(other, DyadicTower):
            return NotImplemented
        return self is other or self._structure() == other._structure()

    def __hash__(self):
        return hash(self._structure())

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        return (f"DyadicTower{nm}(levels={[len(l) for l in self.levels]}, "
                f"gens={list(self.gen_names)}, shift={self.shift is not None})")


# -- built-in towers --------------------------------------------------------------

def dyadic_solenoid(max_level, copies=1):
    """The dyadic solenoid truncated at `max_level` (X_m = Z/2^m, +1 action
    and shift), or a disjoint union of `copies` such solenoids shifted in
    parallel (one +1 generator per copy, the shift rotating every copy)."""
    if max_level < 0:
        raise TowerValidationError("max_level must be >= 0")
    if copies < 1:
        raise TowerValidationError("copies must be >= 1")
    # the level-m group is (Z/2^m)^copies, of order 2^(m * copies): refuse the
    # first level past GROUP_SIZE_CAP before building any
    over = -(-GROUP_SIZE_CAP.bit_length() // copies)
    if max_level >= over:
        raise TowerValidationError(f"level-{over} group exceeds size cap {GROUP_SIZE_CAP}")
    # the top-level generator tables hold copies * (copies * 2^max_level) entries
    entries = copies * copies << max_level
    if entries > GROUP_SIZE_CAP:
        raise TowerValidationError(f"{copies} copies at level {max_level} need {entries} "
                                   f"generator-table entries, over the size cap {GROUP_SIZE_CAP}")
    tags = [chr(ord("a") + c) for c in range(copies)] if copies > 1 else [""]

    def lab(tag, i):
        return f"{tag}{i}"

    level_sets = []
    for m in range(max_level + 1):
        level_sets.append([lab(t, i) for t in tags for i in range(2 ** m)])
    projections = []
    for m in range(max_level):
        projections.append({lab(t, i): lab(t, i % (2 ** m))
                            for t in tags for i in range(2 ** (m + 1))})
    generators = {}
    for t in tags:
        per_level = []
        for m in range(max_level + 1):
            p = {lab(t, i): lab(t, (i + 1) % (2 ** m)) for i in range(2 ** m)}
            per_level.append(p)
        generators[f"s{t}" if t else "s"] = per_level
    shift = []
    for m in range(max_level + 1):
        shift.append({lab(t, i): lab(t, (i + 1) % (2 ** m))
                      for t in tags for i in range(2 ** m)})
    # the reference tower_from_reference resolves back to this tower
    name = f"dyadic {max_level}" + (f" x{copies}" if copies > 1 else "")
    return DyadicTower(level_sets, projections, generators, shift=shift, name=name)


# -- invariance and the conditionally convergent sum --------------------------------

def invariance_level(tower, word, m):
    """Smallest h with the level-m word fixed by the kernel K(m, h): a
    permutation fixes a word iff it fixes the one-word table."""
    return invariance_level_table(tower, {tuple(word)}, m)


def kernel_gathers(tower, m, h):
    """act_word(s, .) for each generator s of K(m, h): the itemgetter of s's
    inverse, a tuple since a generator moves at least two points."""
    return [itemgetter(*sorted(range(len(s)), key=s.__getitem__))
            for s in tower.kernel_generators(m, h)]


def invariance_level_table(tower, support, m):
    """Smallest h with the F2 table (a support set of level-m words) fixed
    by the induced K(m, h) action on words.  A permutation maps a finite
    set into itself iff onto itself, so the table is invariant under the
    kernel iff each generator's gather maps the support into it.  K(m, m)
    is trivial, so the search ends by h = m; a level m outside the tower
    raises DepthError."""
    tower.level(m)
    support = frozenset(support)
    for h in range(m + 1):
        if all(support.issuperset(map(g, support)) for g in kernel_gathers(tower, m, h)):
            return h


def _invariance_witness(tower, support, m, h):
    """A violating orbit pair (w, g.w), g a generator of K(m, h), if the
    table is not K(m, h)-invariant: under the first generator that moves
    the support off itself, the least w in sorted order that it moves out."""
    for g in kernel_gathers(tower, m, h):
        if not support.issuperset(map(g, support)):
            return next((w, g(w)) for w in sorted(support) if g(w) not in support)
    return None


def cc_sum(tower, basis_labels, support, depth, level):
    """Conditionally convergent sum of an F2 table over level-`level` fixed words.

    The table is the extension by zero of `support` (level-`depth` words over
    `basis_labels`); the sum runs over the words fixed by the scale-`level`
    stabilizer K = K(depth, min(level, depth)).  The table must itself be
    K-invariant — validated eagerly on K's generators, with a violating orbit
    pair in the error.  Then the support is a union of K-orbits, and K is a
    2-group because the level groups are validated as 2-groups, so every
    orbit that is not a fixed word has even size.  Hence the number of fixed
    words in the support is congruent to its size mod 2 (the p-group
    fixed-point congruence |X| = |X^G| mod p), and the sum is the parity of
    the support, the same at every level where the table is invariant.
    """
    basis = set(basis_labels)
    support = frozenset(tuple(w) for w in support)
    size = tower.size(depth)
    for w in support:
        if len(w) != size:
            raise DepthError(
                f"support word length {len(w)} does not match level {depth}")
        if not basis.issuperset(w):
            raise InvarianceError(f"support word {w!r} uses letters outside the basis")
    witness = _invariance_witness(tower, support, depth, min(level, depth))
    if witness is not None:
        raise InvarianceError(
            f"table is not invariant at level {level}: words {witness[0]!r} and "
            f"{witness[1]!r} lie in one orbit but only one is in the support",
            pair=witness)
    return len(support) % 2


# -- tower text format ---------------------------------------------------------------
#
#   levels: 3
#   level 0: 0
#   level 1: 0 1
#   level 2: 0 1 2 3
#   proj 1:
#   0 -> 0
#   1 -> 1
#   2 -> 0      # (level-2 labels on the left, level-1 labels on the right)
#   3 -> 1
#   gen s 1: (0 1)
#   gen s 2: (0 1 2 3)
#   shift 1: (0 1)
#   shift 2: (0 1 2 3)
#
# Permutations are in cycle notation over that level's labels; fixed points
# may be omitted and "()" is the identity.  Levels without a gen/shift line
# get the identity.  Blank lines and #-comments are ignored.

def parse_cycles(text, labels, lineno=None):
    text = text.strip()
    mapping = {}
    if text == "()" or text == "":
        return mapping
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"line {lineno}: cycles must look like (a b)(c d)", line=lineno)
    label_set = set(labels)
    for chunk in text[1:-1].split(")("):
        cyc = chunk.split()
        if any(l not in label_set for l in cyc):
            bad = [l for l in cyc if l not in label_set]
            raise ParseError(f"line {lineno}: unknown labels {bad} in cycle", line=lineno)
        if len(set(cyc)) != len(cyc):
            raise ParseError(f"line {lineno}: repeated label in cycle", line=lineno)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a in mapping:
                raise ParseError(f"line {lineno}: label {a!r} moved twice", line=lineno)
            mapping[a] = b
    return mapping


def cycles_of(perm, labels):
    """Render an index permutation over `labels` in cycle notation."""
    out = ["(" + " ".join(labels[k] for k in cyc) + ")"
           for cyc in perm_cycles(perm) if len(cyc) > 1]
    return "".join(out) if out else "()"


_TOWER_HEADERS = ("levels:", "level ", "proj ", "gen ", "shift ")


def parse_tower(text):
    n_levels = None
    level_sets = {}
    projections = {}
    gen_lines = {}
    shift_lines = {}
    blocks = []  # (line, head, level, least level the keyword allows)
    current_proj = None
    for lineno, head, rest in lex_lines(text, _TOWER_HEADERS):
        if head is None:
            if "->" not in rest or current_proj is None:
                raise ParseError(f"line {lineno}: unrecognized tower line {rest!r}",
                                 line=lineno)
            child, _, parent = rest.partition("->")
            child, parent = child.strip(), parent.strip()
            if not child or not parent:
                raise ParseError(f"line {lineno}: bad projection entry", line=lineno)
            block = projections[current_proj]
            if child in block:
                raise ParseError(f"line {lineno}: child {child!r} is already projected "
                                 f"on line {block[child][1]}", line=lineno)
            block[child] = (parent, lineno)
            continue
        keyword, _, arg = head.partition(" ")
        current_proj = None
        if keyword == "levels":
            n_levels = int_field(rest, lineno, "levels: needs an integer")
            continue
        if keyword == "level":
            m = int_field(arg, lineno, "bad level header")
            level_sets[m] = rest.split()
        elif keyword == "proj":
            m = current_proj = int_field(arg, lineno, "bad proj header")
            projections[current_proj] = {}
            if rest.strip():
                raise ParseError(
                    f"line {lineno}: proj entries go on following lines", line=lineno)
        elif keyword == "gen":
            parts = head.split()
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'gen NAME LEVEL:'", line=lineno)
            m = int_field(parts[2], lineno, "bad gen level")
            gen_lines.setdefault(parts[1], {})[m] = (rest, lineno)
        else:
            m = int_field(arg, lineno, "bad shift level")
            shift_lines[m] = (rest, lineno)
        blocks.append((lineno, head, m, 1 if keyword == "proj" else 0))

    if n_levels is None:
        raise ParseError("tower file needs a levels: header", line=1)
    for lineno, head, m, least in blocks:
        if not least <= m < n_levels:
            raise ParseError(f"line {lineno}: {head!r} names no level of this tower "
                             f"(levels: {n_levels})", line=lineno)
    try:
        sets = [level_sets[m] for m in range(n_levels)]
    except KeyError as e:
        raise ParseError(f"missing level {e.args[0]} declaration", line=1)
    projs = []
    for m in range(1, n_levels):
        if m not in projections:
            raise ParseError(f"missing proj {m}: block", line=1)
        projs.append({child: parent for child, (parent, _) in projections[m].items()})

    def per_level(lines):
        return [parse_cycles(lines[m][0], sets[m], lineno=lines[m][1])
                if m in lines else {} for m in range(n_levels)]

    generators = {gname: per_level(per) for gname, per in gen_lines.items()}
    if not generators:
        generators = {"id": [{} for _ in range(n_levels)]}
    shift = per_level(shift_lines) if shift_lines else None
    return DyadicTower(sets, projs, generators, shift=shift)


def dump_tower(tower):
    """The tower text of `tower`; a label the text cannot carry raises
    LabelMismatchError naming it."""
    for m, level in enumerate(tower.levels):
        require_token_labels(level.labels, f"level-{m}")
        for label in level.labels:
            # a projection line starts with its child label; cycles split
            # at ')('
            if "->" in label or ")(" in label or (label + " ").startswith(_TOWER_HEADERS):
                raise LabelMismatchError(
                    f"level-{m} label {label!r} cannot be written in the tower "
                    f"text format: it would read as a header or a separator")
    require_token_labels(tower.gen_names, "generator")
    bad = [g for g in tower.gen_names if ":" in g]
    if bad:
        raise LabelMismatchError(f"generator name {bad[0]!r} cannot be written in "
                                 f"the tower text format: ':' ends a gen header")
    lines = [f"levels: {tower.max_level + 1}"]
    for m in range(tower.max_level + 1):
        lines.append(f"level {m}: " + " ".join(tower.levels[m].labels))
    for m in range(1, tower.max_level + 1):
        lines.append(f"proj {m}:")
        c2p = tower.child_to_parent[m - 1]
        for i, lab in enumerate(tower.levels[m].labels):
            lines.append(f"{lab} -> {tower.levels[m - 1].labels[c2p[i]]}")
    for gname in tower.gen_names:
        for m in range(tower.max_level + 1):
            lines.append(
                f"gen {gname} {m}: " + cycles_of(tower.gens[gname][m], tower.levels[m].labels))
    if tower.shift is not None:
        for m in range(tower.max_level + 1):
            lines.append(
                f"shift {m}: " + cycles_of(tower.shift[m], tower.levels[m].labels))
    return "\n".join(lines) + "\n"


def tower_from_reference(ref, base_dir="."):
    """Resolve a tower reference: the built-ins 'dyadic L' / 'dyadic L xK',
    or 'file PATH', the tower text at PATH relative to `base_dir`, named
    'file' plus its absolute path."""
    ref = ref.strip()
    if ref.startswith("file "):
        path = os.path.abspath(os.path.join(base_dir, ref[len("file "):].strip()))
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(str(e)) from None
        tower = parse_tower(text)
        tower.name = "file " + path
        return tower
    found = re.fullmatch(r"dyadic (-?\d+)(?: x(-?\d+))?", " ".join(ref.split()))
    if found:
        return dyadic_solenoid(int(found[1]), copies=int(found[2] or 1))
    raise ParseError(f"unknown tower reference {ref!r} (expected e.g. 'dyadic 3')")
