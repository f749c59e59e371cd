"""Finite F2-matrix category: labeled sets, matrices, and finite tensor powers.

Objects are labeled finite sets; a matrix M with rows C and cols B represents
an F2-linear map  Fun(B, F2) -> Fun(C, F2)  by (Mf)(c) = sum_b M(c,b) f(b).
Composition is the usual product over F2, (NM)(d,b) = sum_c N(d,c) M(c,b).

The finite tensor power M^{tensor X} of a matrix by a labeled finite set X is
the matrix whose rows/cols are the function sets Fun(X, C) / Fun(X, B) and
whose entries are products  prod_{x in X} M(g(x), f(x)).  Everything here is
exact; rows are bit-packed into Python ints.
"""

from __future__ import annotations

import itertools

from .errors import LabelMismatchError, ParseError, SizeCapError

DEFAULT_ENTRY_CAP = 1 << 20


class LabeledSet:
    """An ordered finite set of distinct string labels.  LabeledSet(s) is s
    itself when s already is one, so any labels argument may be coerced
    without checking it twice."""

    def __new__(cls, labels):
        if isinstance(labels, LabeledSet):
            return labels
        labels = tuple(str(l) for l in labels)
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise LabelMismatchError(f"duplicate labels in labeled set: {dup}")
        self = super().__new__(cls)
        self.labels = labels
        self.index = {l: i for i, l in enumerate(labels)}
        return self

    def __getnewargs__(self):
        return (self.labels,)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self.index

    def __eq__(self, other):
        return isinstance(other, LabeledSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"LabeledSet({list(self.labels)!r})"


def word_label(word):
    """Canonical string label for a tuple of labels (a function's value word).

    Single-character alphabets concatenate ("x","y") -> "xy"; otherwise the
    letters are comma-joined.  On the words of one length over a basis that
    require_word_labels accepts, distinct words get distinct labels.
    """
    word = tuple(word)
    if all(len(l) == 1 for l in word):
        return "".join(word)
    return ",".join(word)


def require_word_labels(labels, what):
    """Refuse a basis whose words word_label could not tell apart: one with
    an empty label, or with a ',' in a label when some label is longer than
    one character (such words are comma-joined)."""
    multi = any(len(l) > 1 for l in labels)
    for label in labels:
        if not label or (multi and "," in label):
            raise LabelMismatchError(
                f"{what} label {label!r} cannot be told apart in a word label: "
                f"labels must be non-empty, and ',' separates the letters of a "
                f"word over a multi-character basis")


class F2Matrix:
    """A matrix over F2 with labeled rows and columns.

    `bits[i]` packs row i: bit j (1 << j) is the entry at column j.
    """

    def __init__(self, rows, cols, bits):
        rows, cols = LabeledSet(rows), LabeledSet(cols)
        bits = tuple(int(b) for b in bits)
        if len(bits) != len(rows):
            raise LabelMismatchError(
                f"row count {len(bits)} does not match row labels {len(rows)}")
        mask = (1 << len(cols)) - 1
        if any(b & ~mask for b in bits):
            raise LabelMismatchError("row bits exceed column count")
        self.rows = rows
        self.cols = cols
        self.bits = bits

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """Build from an iterable of (row_label, col_label) positions; a
        position listed twice cancels (entries live in F2)."""
        rows, cols = LabeledSet(rows), LabeledSet(cols)
        bits = [0] * len(rows)
        for (r, c) in entries:
            if r not in rows:
                raise LabelMismatchError(f"unknown row label {r!r} (rows are {list(rows.labels)})")
            if c not in cols:
                raise LabelMismatchError(f"unknown col label {c!r} (cols are {list(cols.labels)})")
            bits[rows.index[r]] ^= 1 << cols.index[c]
        return cls(rows, cols, bits)

    @classmethod
    def from_rows(cls, rows, cols, row_lists):
        bits = []
        for row in row_lists:
            b = 0
            for j, v in enumerate(row):
                if v % 2:
                    b |= 1 << j
            bits.append(b)
        return cls(rows, cols, bits)

    def entry(self, row_label, col_label):
        return (self.bits[self.rows.index[row_label]]
                >> self.cols.index[col_label]) & 1

    def to_lists(self):
        n = len(self.cols)
        return [[(b >> j) & 1 for j in range(n)] for b in self.bits]

    def __eq__(self, other):
        return (isinstance(other, F2Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.bits == other.bits)

    def __hash__(self):
        return hash((self.rows, self.cols, self.bits))

    def __repr__(self):
        body = "; ".join("".join(str(v) for v in row) for row in self.to_lists())
        return f"F2Matrix({list(self.rows.labels)}x{list(self.cols.labels)}: {body})"


def identity(obj):
    obj = LabeledSet(obj)
    return F2Matrix(obj, obj, [1 << i for i in range(len(obj))])


def zero(rows, cols):
    rows = LabeledSet(rows)
    return F2Matrix(rows, cols, [0] * len(rows))


def add(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        raise LabelMismatchError(
            f"matrix sum needs equal shapes: {list(a.rows.labels)}x{list(a.cols.labels)} "
            f"vs {list(b.rows.labels)}x{list(b.cols.labels)}")
    return F2Matrix(a.rows, a.cols, [x ^ y for x, y in zip(a.bits, b.bits)])


def compose(n, m):
    """Matrix product NM over F2 (apply M first, then N).

    N's columns must equal M's rows as labeled sets.
    """
    if n.cols != m.rows:
        raise LabelMismatchError(
            f"cannot compose: left factor has cols {list(n.cols.labels)}, "
            f"right factor has rows {list(m.rows.labels)}")
    out = []
    for nb in n.bits:
        acc = 0
        b = nb
        while b:
            low = b & -b
            acc ^= m.bits[low.bit_length() - 1]
            b ^= low
        out.append(acc)
    return F2Matrix(n.rows, m.cols, out)


def apply(m, table):
    """Apply M to an F2 table on its columns; tables are support sets.

    `table` is an iterable of column labels (the support).  Returns the
    support of M f as a frozenset of row labels.
    """
    support = set(table)
    unknown = support - set(m.cols.labels)
    if unknown:
        raise LabelMismatchError(
            f"table labels {sorted(unknown)} are not columns {list(m.cols.labels)}")
    fmask = 0
    for label in support:
        fmask |= 1 << m.cols.index[label]
    out = set()
    for i, row in enumerate(m.bits):
        if (row & fmask).bit_count() & 1:
            out.add(m.rows.labels[i])
    return frozenset(out)


def product_indices(choices, radix):
    """Packed indices of the words in a product of per-position choices.

    `choices[k]` lists the digits (each < `radix`) allowed at position k.
    Every word of the product is packed as a base-`radix` integer, position
    0 most significant, so that sorted digit lists give the indices in
    increasing (lexicographic) order.  An empty position gives no words, and
    no positions give the single empty word, index 0.  The work is the
    number of prefixes of the product: at most len(choices) per word.
    """
    out = [0]
    for digits in choices:
        out = [i * radix + d for i in out for d in digits]
    return out


def tensor_power_finite(m, x):
    """The finite tensor power M^{tensor X} for a labeled finite set X.

    Rows are Fun(X, C) and columns Fun(X, B), both enumerated in
    lexicographic order: positions follow X's label order, values follow the
    row/column label order of M.  The empty X gives the 1x1 identity on the
    single empty function.  Entry at (g, f) is prod_x M(g(x), f(x)), so the
    rows are the Kronecker power of M's packed rows: the row of (c, g') in
    the k-fold power is the row of g' in the (k-1)-fold power shifted to
    each column block b, of width |B|^(k-1), with M(c, b) = 1 (the blocks
    do not overlap, so the sum of the shifts is their OR).  Cost:
    O(|C|^|X| * |B|) big-integer shifts and sums, not a step per entry.
    Over DEFAULT_ENTRY_CAP entries it raises SizeCapError; row and column
    labels word_label cannot tell apart raise LabelMismatchError.
    """
    n = len(LabeledSet(x))
    n_rows = len(m.rows) ** n
    n_cols = len(m.cols) ** n
    if n_rows * n_cols > DEFAULT_ENTRY_CAP:
        raise SizeCapError(f"tensor power would have {n_rows}x{n_cols} entries, "
                           f"over the cap {DEFAULT_ENTRY_CAP}")
    require_word_labels(m.rows.labels, "row")
    require_word_labels(m.cols.labels, "column")
    n_b = len(m.cols)
    rowsupp = [[j for j in range(n_b) if (b >> j) & 1] for b in m.bits]
    bits, width = [1], 1
    for _ in range(n):
        shifts = [[j * width for j in js] for js in rowsupp]
        bits = [sum(map(r.__lshift__, sh)) for sh in shifts for r in bits]
        width *= n_b
    # "".join is word_label when every label is one character
    rows, cols = (LabeledSet(map("".join if all(len(l) == 1 for l in ls) else word_label,
                                 itertools.product(ls, repeat=n)))
                  for ls in (m.rows.labels, m.cols.labels))
    return F2Matrix(rows, cols, bits)


def _gauss_jordan(rows, n_cols):
    """Reduced row echelon form over F2 of packed rows, pivoting on the
    columns 0..n_cols-1 in order (higher bits ride along).  Returns the
    reduced rows, pivot rows first, and the pivot columns."""
    rows = list(rows)
    pivots = []
    for col in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if (rows[i] >> col) & 1), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
    return rows, pivots


def invert(m):
    """Inverse of a square F2 matrix, or None if singular: Gauss-Jordan
    reduces [M | I] to [I | M^-1]."""
    n = len(m.rows)
    if n != len(m.cols):
        return None
    rows, pivots = _gauss_jordan([b | (1 << (n + i)) for i, b in enumerate(m.bits)], n)
    if len(pivots) < n:
        return None
    return F2Matrix(m.cols, m.rows, [r >> n for r in rows])


def rank(m):
    """Rank over F2 of the row space (row reduction on packed rows)."""
    return len(_gauss_jordan(m.bits, len(m.cols))[1])


def lex_lines(text, headers):
    """(line number, head, value) for each line of a text format that holds
    something once its #-comment is cut; blank lines are skipped.  A line
    starting with one of the format's `headers` prefixes has as head its
    text before the first ':', single-spaced, and as value the text after
    it; any other line has head None and is its own value.  A head met a
    second time raises ParseError at that line."""
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line.startswith(headers):
            if line:
                yield lineno, None, line
            continue
        before, _, value = line.partition(":")
        head = " ".join(before.split())
        if head in seen:
            raise ParseError(f"line {lineno}: repeated header {head!r} "
                             f"(first on line {seen[head]})", line=lineno)
        seen[head] = lineno
        yield lineno, head, value


def int_field(text, lineno, message):
    """The integer written in `text`, a field of line `lineno` of a text
    format; anything else raises ParseError 'line {lineno}: {message}'."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"line {lineno}: {message}", line=lineno) from None


def require_token_labels(labels, what):
    """Refuse a label that a line-based text format cannot write as one
    token: an empty label, one holding whitespace (which splits tokens and
    lines) or one holding `#` (which starts a comment)."""
    for label in labels:
        if label.split() != [label] or "#" in label:
            raise LabelMismatchError(
                f"{what} label {label!r} cannot be written in the text format: "
                f"labels must be non-empty, without whitespace or '#'")


# -- text format ---------------------------------------------------------------
#
#   rows: c1 c2
#   cols: b1 b2
#   1 0
#   1 1
#
# Blank lines and #-comments are allowed anywhere.

def parse_matrix(text):
    rows = cols = None
    data = []
    data_lines = []
    for lineno, head, line in lex_lines(text, ("rows:", "cols:")):
        if head == "rows":
            rows = line.split()
            continue
        if head == "cols":
            cols = line.split()
            continue
        if rows is None or cols is None:
            raise ParseError(f"line {lineno}: matrix data before rows:/cols: headers", line=lineno)
        vals = line.split()
        if len(vals) != len(cols):
            raise ParseError(
                f"line {lineno}: expected {len(cols)} entries, got {len(vals)}", line=lineno)
        try:
            row = [int(v) for v in vals]
        except ValueError:
            raise ParseError(f"line {lineno}: matrix entries must be 0/1", line=lineno)
        if any(v not in (0, 1) for v in row):
            raise ParseError(f"line {lineno}: matrix entries must be 0/1", line=lineno)
        data.append(row)
        data_lines.append(lineno)
    if rows is None or cols is None:
        raise ParseError("matrix file needs rows: and cols: headers", line=1)
    if not cols and not data:
        # rows of no entries are blank lines, which the lexer skips
        data = [[] for _ in rows]
    if len(data) != len(rows):
        raise ParseError(
            f"expected {len(rows)} data rows, got {len(data)}",
            line=data_lines[-1] if data_lines else 1)
    return F2Matrix.from_rows(LabeledSet(rows), LabeledSet(cols), data)


def dump_matrix(m):
    require_token_labels(m.rows.labels, "row")
    require_token_labels(m.cols.labels, "column")
    lines = ["rows: " + " ".join(m.rows.labels), "cols: " + " ".join(m.cols.labels)]
    for row in m.to_lists():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
