"""F2 windows over dyadic towers and functorial matrix actions on them.

An MccWindow is a finite-level representative of a "magnetized" element: an
F2-valued table on the words B^{X_M} at some depth M, extended by zero to all
deeper levels.  Its invariance level — the least h with the table fixed by
the scale-h kernel K(M, h) — is always recomputed from the table, never
trusted from the caller.

apply_mcc realizes the tensor-power action of an F2 matrix on windows: the
output window at depth M' is the exact depth-M' restriction of M^{tensor X}
applied to the element the window represents, computed at the working level
max(M, M') where both windows live as honest finite tensors.

The staircase invariants (invariance level h, first nonvanishing depth d)
and the cc_probe for lazily presented inverse-limit elements round out the
module.
"""

from __future__ import annotations

import math
import os

from . import towers as _tw
from .errors import (CrossCheckError, DepthError, LabelMismatchError,
                     ParseError, TowerValidationError)
from .f2cat import (LabeledSet, int_field, lex_lines, product_indices,
                    require_token_labels, require_word_labels)


class MccWindow:
    """A depth-M F2 table on B^{X_M}, extended by zero beyond depth M."""

    def __init__(self, tower, basis, depth, support):
        basis = LabeledSet(basis)
        tower.level(depth)  # raises DepthError when out of range
        size = tower.size(depth)
        letters = frozenset(basis.labels)
        sup = set()
        for w in support:
            w = tuple(w)
            if len(w) != size:
                raise DepthError(
                    f"support word of length {len(w)} does not fit level {depth} "
                    f"(size {size})")
            if not letters.issuperset(w):
                letter = next(l for l in w if l not in letters)
                raise LabelMismatchError(
                    f"support word uses letter {letter!r} outside basis "
                    f"{list(basis.labels)}")
            sup.add(w)
        self.tower = tower
        self.basis = basis
        self.depth = depth
        self.support = frozenset(sup)
        # never trust a caller-supplied level: recompute from the table
        self.inv_level = _tw.invariance_level_table(tower, self.support, depth)

    def is_zero(self):
        return not self.support

    def value(self, word):
        return 1 if tuple(word) in self.support else 0

    def restriction_support(self, d):
        """Support of the restriction of the table to B^{X_d}, d <= depth."""
        if d > self.depth:
            raise DepthError(f"restriction level {d} exceeds depth {self.depth}")
        factored = (self.tower.compress_word(w, self.depth, d) for w in self.support)
        return frozenset(w for w in factored if w is not None)

    def restriction_is_zero(self, m):
        """Whether the table restricts to zero on B^{X_m}."""
        return not self.restriction_support(min(m, self.depth))

    def at_depth(self, d):
        """Re-represent at depth d: pull the table back (d >= depth) or
        restrict it (d < depth; this genuinely forgets deeper support)."""
        if d == self.depth:
            return self
        if d > self.depth:
            sup = {self.tower.pull_word(w, self.depth, d) for w in self.support}
        else:
            sup = self.restriction_support(d)
        return MccWindow(self.tower, self.basis, d, sup)

    def __add__(self, other):
        if not isinstance(other, MccWindow):
            return NotImplemented
        if self.tower != other.tower or self.basis != other.basis:
            raise LabelMismatchError("window sum needs one tower and one basis")
        d = max(self.depth, other.depth)
        return MccWindow(self.tower, self.basis, d,
                         self.at_depth(d).support ^ other.at_depth(d).support)

    def __eq__(self, other):
        if not isinstance(other, MccWindow):
            return NotImplemented
        if self.tower != other.tower or self.basis != other.basis:
            return False
        d = max(self.depth, other.depth)
        return self.at_depth(d).support == other.at_depth(d).support

    def __hash__(self):
        # the canonical form: the support compressed to the least level all
        # its words factor through, which pulling back (at_depth) leaves
        # unchanged
        for h in range(self.depth + 1):
            low = self.restriction_support(h)
            if len(low) == len(self.support):
                return hash((self.basis, h, low))

    def __repr__(self):
        words = sorted("".join(w) if all(len(x) == 1 for x in w) else str(w)
                       for w in self.support)
        return (f"MccWindow(depth={self.depth}, inv_level={self.inv_level}, "
                f"support={words})")

    def cc_sum(self, level):
        return _tw.cc_sum(self.tower, self.basis.labels, self.support,
                          self.depth, level)


def apply_mcc(matrix, window, out_depth):
    """Act on a window by the tensor power of an F2 matrix.

    `matrix` columns must be the window's basis; rows become the output
    basis.  The result is the exact depth-`out_depth` restriction of
    M^{tensor X} applied to the represented element, obtained by working at
    level max(window.depth, out_depth) where both sides are finite tensors.

    An output word g gets prod_i M(g(up(i)), f(i)) from a support word f
    pulled up to the working level, where up maps a working position to its
    image at `out_depth`.  That product is 1 exactly when, for every output
    position j, g(j) lies in the intersection over the fiber up^-1(j) of
    colsupp(f(i)) = {c : M(c, f(i)) = 1}.  So each support word contributes
    the product of those intersections, and the output is the F2 sum (XOR)
    of these products, enumerated by `product_indices`.  Cost:
    O(|support| * |X_work| + terms), where terms counts the words in the
    products, instead of scanning all |C|^|X_out| output words.
    """
    if matrix.cols != window.basis:
        raise LabelMismatchError(
            f"matrix columns {list(matrix.cols.labels)} do not match window basis "
            f"{list(window.basis.labels)}")
    tower = window.tower
    tower.level(out_depth)
    work = max(window.depth, out_depth)
    # fiber(j), read on the unpulled support word: the window positions
    # under the working positions over output position j
    pull = tower.up_index(window.depth, work)
    fibers = [set() for _ in range(tower.size(out_depth))]
    for i, j in enumerate(tower.up_index(out_depth, work)):
        fibers[j].add(pull[i])
    # colsupp as a bitmask over the output basis, for each input letter
    colsupp = {b: sum(1 << c for c, row in enumerate(matrix.bits)
                      if (row >> k) & 1)
               for k, b in enumerate(matrix.cols.labels)}
    n_c = len(matrix.rows)
    digits = {}  # bitmask -> its set bits, the choices at one position
    packed = set()
    for f in window.support:
        choices = []
        for fiber in fibers:
            allowed = -1
            for i in fiber:
                allowed &= colsupp[f[i]]
            if not allowed:
                break
            if allowed not in digits:
                digits[allowed] = [c for c in range(n_c) if (allowed >> c) & 1]
            choices.append(digits[allowed])
        else:
            packed.symmetric_difference_update(product_indices(choices, n_c))
    labels = matrix.rows.labels
    out_support = set()
    for p in packed:
        word = []
        for _ in fibers:
            p, c = divmod(p, n_c)
            word.append(labels[c])
        out_support.add(tuple(reversed(word)))
    out = MccWindow(tower, matrix.rows, out_depth, out_support)
    # the action cannot create invariance failures below the input's level
    bound = min(window.inv_level, out_depth)
    if out.inv_level > bound:
        raise CrossCheckError(
            f"tensor-power action broke the invariance level: output level "
            f"{out.inv_level} exceeds the bound {bound}",
            values={"output_inv_level": out.inv_level,
                    "input_inv_level": window.inv_level, "out_depth": out_depth})
    return out


def staircase_position(window):
    """The staircase position (h, d): invariance level and least level with a
    nonzero restriction (math.inf for the zero window)."""
    h = window.inv_level
    if not window.support:
        return (h, math.inf)
    d = min(window.tower.factor_level(w, window.depth) for w in window.support)
    return (h, d)


class LazyTower:
    """An inverse-limit element presented lazily: a generator callable maps a
    level m to the F2 table (support set) on B^{X_m}.  No invariance is
    required; restriction compatibility across levels is checked when the
    element is probed.  Each level's window is built, and checked, once."""

    def __init__(self, tower, basis, generator, name=None):
        self.tower = tower
        self.basis = LabeledSet(basis)
        self.generator = generator
        self.name = name
        self._windows = {}

    def window(self, depth):
        """The depth-`depth` truncation as a window (extension by zero)."""
        if depth not in self._windows:
            self._windows[depth] = MccWindow(self.tower, self.basis, depth,
                                             self.generator(depth))
        return self._windows[depth]

    def table(self, m):
        return self.window(m).support


def cc_probe(lazy, probe_depth):
    """Probe a lazily presented element for conditional convergence.

    Computes the invariance level h(m) of every truncation up to the probe
    depth after checking restriction compatibility between consecutive
    levels.  The verdict is heuristic: "cc-witnessed at level h*" needs the
    invariance level to sit flat at h* = h(probe_depth) from level h* on and
    h* to be strictly inside the probed range; anything else reads
    "divergent through probe depth".  A deeper probe can always overturn a
    divergent verdict, never a flat tail it has actually seen.
    """
    lazy.tower.level(probe_depth)
    windows = [lazy.window(m) for m in range(probe_depth + 1)]
    for m in range(probe_depth):
        got = windows[m + 1].restriction_support(m)
        if got != windows[m].support:
            raise TowerValidationError(
                f"lazy element is not restriction-compatible at level {m}: "
                f"level-{m + 1} table restricts to {sorted(got)} but level-{m} "
                f"table is {sorted(windows[m].support)}")
    h = [w.inv_level for w in windows]
    h_star = h[probe_depth]
    stabilized = (h_star < probe_depth
                  and all(h[m] == h_star for m in range(h_star, probe_depth + 1)))
    verdict = (f"cc-witnessed at level {h_star}" if stabilized
               else "divergent through probe depth")
    return {
        "name": lazy.name,
        "probe_depth": probe_depth,
        "levels": [{"level": m, "inv_level": h[m]} for m in range(probe_depth + 1)],
        "stabilized": stabilized,
        "witness_level": h_star if stabilized else None,
        "verdict": verdict,
        "note": ("heuristic: a flat invariance tail through the probe depth "
                 "witnesses conditional convergence at that level; a deeper "
                 "probe can overturn a divergent verdict but not a witnessed one"),
    }


# -- built-in series ------------------------------------------------------------

def _require_plain_solenoid(tower):
    for m in range(tower.max_level + 1):
        if tower.size(m) != 2 ** m:
            raise TowerValidationError(
                "series builders need the plain dyadic solenoid tower")


def _spike_series(tower, x, y, residues, name):
    """The series whose level-m table holds, for each k <= m and each r in
    residues(2^k), the word of length 2^m with y exactly at the positions
    i = r mod 2^k and x elsewhere."""
    _require_plain_solenoid(tower)

    def gen(m):
        return {tuple(y if i % p == r else x for i in range(2 ** m))
                for p in (2 ** k for k in range(m + 1)) for r in residues(p)}

    return LazyTower(tower, [x, y], gen, name=name)


def single_spike_series(tower, x="x", y="y"):
    """Sum over n >= 0 of the pure tensor with one y per 2^n-block, at the
    block ends: x^(2^n - 1) y.  Its truncations gain one fresh scale per
    level, so the invariance level climbs with the probe: never cc."""
    return _spike_series(tower, x, y, lambda p: (p - 1,), "single-spike")


def symmetrized_series(tower, x="x", y="y"):
    """The full rotation symmetrization of the single-spike series: every
    rotation of x^(2^n - 1) y for every n.  Fully action-invariant at each
    level, so cc at level 0."""
    return _spike_series(tower, x, y, range, "symmetrized")


def odd_spike_series(tower, x="x", y="y"):
    """Half the symmetrization: for n >= 1, only the rotations putting the y
    in an odd position.  Stable under rotation by 2 but not by 1, so cc at
    level 1 exactly."""
    return _spike_series(tower, x, y, lambda p: range(1, p, 2), "odd-spike")


# -- window text format -----------------------------------------------------------
#
#   tower: dyadic 2
#   basis: x y
#   depth: 2
#   xyxy 1
#   xxxy 1
#
# Words list one letter per level element, in the level's label order;
# multi-character basis labels use comma-separated words.  Omitted words are
# zero.  Blank lines and #-comments are ignored.

_WINDOW_HEADERS = ("tower:", "basis:", "depth:")


def parse_window(text, base_dir="."):
    """The window of a window text.  Its tower: header is the one source of
    its tower (towers.tower_from_reference, a 'file' path relative to
    `base_dir`)."""
    tower_ref = None
    basis = None
    depth = None
    word_lines = []
    for lineno, head, line in lex_lines(text, _WINDOW_HEADERS):
        if head == "tower":
            tower_ref = line.strip()
            tower_line = lineno
            continue
        if head == "basis":
            basis = line.split()
            continue
        if head == "depth":
            depth = int_field(line, lineno, "depth: needs an integer")
            depth_line = lineno
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(
                f"line {lineno}: expected 'WORD VALUE', got {line!r}", line=lineno)
        word_lines.append((lineno, parts[0], parts[1]))

    if basis is None:
        raise ParseError("window file needs a basis: header", line=1)
    if depth is None:
        raise ParseError("window file needs a depth: header", line=1)
    if tower_ref is None:
        raise ParseError("window file needs a tower: header", line=1)
    try:
        tower = _tw.tower_from_reference(tower_ref, base_dir)
    except (ParseError, TowerValidationError) as e:
        if getattr(e, "line", None) is not None:  # a line of a tower file
            raise
        raise ParseError(f"line {tower_line}: {e}", line=tower_line) from None
    try:
        size = tower.size(depth)
    except DepthError as e:
        raise ParseError(f"line {depth_line}: {e}", line=depth_line) from None

    single = all(len(b) == 1 for b in basis)
    support = set()
    for lineno, word_s, val_s in word_lines:
        if val_s not in ("0", "1"):
            raise ParseError(f"line {lineno}: value must be 0 or 1", line=lineno)
        letters = tuple(word_s) if single else tuple(word_s.split(","))
        if len(letters) != size:
            raise ParseError(
                f"line {lineno}: word {word_s!r} has {len(letters)} letters, "
                f"level {depth} needs {size}", line=lineno)
        bad = [l for l in letters if l not in basis]
        if bad:
            raise ParseError(
                f"line {lineno}: letters {bad} are not in the basis", line=lineno)
        if val_s == "1":
            support ^= {letters}
    return MccWindow(tower, basis, depth, support)


def dump_window(window):
    """The window text of `window`, headed by its tower's reference when the
    tower has one; a label, word or reference the text cannot carry raises
    LabelMismatchError naming it."""
    labels = window.basis.labels
    require_token_labels(labels, "basis")
    require_word_labels(labels, "basis")
    single = all(len(b) == 1 for b in labels)
    lines = []
    name = window.tower.name
    if name is not None:
        line = f"tower: {name}"
        if [value.strip() for _, _, value in lex_lines(line, _WINDOW_HEADERS)] != [name]:
            raise LabelMismatchError(
                f"tower reference {name!r} cannot be written in the text format: "
                f"its tower: line would not read back")
        lines.append(line)
    lines.append("basis: " + " ".join(labels))
    lines.append(f"depth: {window.depth}")
    for w in sorted(window.support):
        word = "".join(w) if single else ",".join(w)
        if word.startswith(_WINDOW_HEADERS):
            raise LabelMismatchError(
                f"word {word!r} cannot be written in the text format: "
                f"its line would read as a header")
        lines.append(word + " 1")
    return "\n".join(lines) + "\n"


def load_window(path):
    """The window in the file at `path`; a 'file' tower is found relative to
    the window's directory."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_window(fh.read(), os.path.dirname(os.path.abspath(path)))
