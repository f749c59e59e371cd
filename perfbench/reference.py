"""Independent references for the output checks, and the closed forms the
generator sizes jobs with.  Nothing here imports the program.

The dyadic solenoid is used in closed form: level m is Z/2^m, position i
projects to i mod 2^h at level h, and the kernel K(m, h) is rotation by
multiples of 2^h.
"""

import itertools


# -- tensor-power action ----------------------------------------------------------

def _allowed_letters(job, f):
    """Per output position j, the output letters c with M(c, f(i)) = 1 for
    every work-level position i over j."""
    n_in, n_out = 2 ** job["d_in"], 2 ** job["d_out"]
    n_work = max(n_in, n_out)
    colsupp = {b: {c for ci, c in enumerate(job["C"]) if job["rows"][ci][bi]}
               for bi, b in enumerate(job["B"])}
    allowed = []
    for j in range(n_out):
        letters = set(job["C"])
        for i in range(j, n_work, n_out):
            letters &= colsupp[f[i % n_in]]
        allowed.append(sorted(letters))
    return allowed


def apply_support(job):
    """(M^{tensor X} f)(g) = sum over support words f of prod_x M(g(x), f(x)),
    enumerated term by term: each f contributes the product of its allowed
    letter sets, and terms cancel in pairs."""
    out = set()
    for f in job["support"]:
        for g in itertools.product(*_allowed_letters(job, f)):
            out ^= {g}
    return out


# -- finite tensor power -----------------------------------------------------------

def tensor_power_bits(job):
    """(rows, cols, row bit masks) of the n-fold Kronecker power of M, rows
    and columns in lexicographic order with the first position major."""
    rows = [list(r) for r in job["rows"]]
    n_c, n_b = len(rows), len(rows[0])
    acc = [[1]]
    for _ in range(job["n"]):
        acc = [[acc[r][c] * rows[r2][c2]
                for c in range(len(acc[0])) for c2 in range(n_b)]
               for r in range(len(acc)) for r2 in range(n_c)]
    bits = tuple(sum(1 << j for j, v in enumerate(row) if v) for row in acc)
    return (n_c ** job["n"], n_b ** job["n"], bits)


# -- conditionally convergent sum -------------------------------------------------

def cc_parities(job):
    """Parity of the support words fixed by K(depth, level), that is words
    of period 2^level, for each level from h to depth."""
    out = []
    n = 2 ** job["depth"]
    for level in range(job["h"], job["depth"] + 1):
        p = 2 ** level
        fixed = sum(1 for w in job["support"] if w == (w[p:] + w[:p]) and len(w) == n)
        out.append(fixed % 2)
    return out


# -- graphs -----------------------------------------------------------------------

def transfer_matrix(graph):
    idx = {v: i for i, v in enumerate(graph["vertices"])}
    size = len(idx)
    t = [[0] * size for _ in range(size)]
    for s, d in zip(graph["s"], graph["t"]):
        t[idx[s]][idx[d]] += 1
    return t


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def walk_counts(t, max_length):
    """[(walks, closed walks) with k edges for k = 1..max_length]: the entry
    sum and the trace of T^k."""
    out = []
    acc = t
    for _ in range(max_length):
        out.append((sum(map(sum, acc)), sum(acc[i][i] for i in range(len(acc)))))
        acc = mat_mul(acc, t)
    return out


def walk_trace(t, length):
    """Closed walks with `length` edges: trace(T^length)."""
    return walk_counts(t, length)[-1][1]


def staircase_dim(t, m):
    """Sector dimension at level m: the product over shift orbits of the
    closed-walk count of each orbit's length.  The shift of the dyadic
    solenoid rotates Z/2^m as a single orbit of length 2^m, so the product
    has one factor."""
    return walk_trace(t, 2 ** m)


# -- text formats ------------------------------------------------------------------

def matrix_text(job):
    lines = ["rows: " + " ".join(job["C"]), "cols: " + " ".join(job["B"])]
    lines += [" ".join(map(str, r)) for r in job["rows"]]
    return "\n".join(lines) + "\n"


def window_text(job):
    lines = ["tower: dyadic 4", "basis: " + " ".join(job["B"]),
             f"depth: {job['d_in']}"]
    lines += [f"{w} 1" for w in job["support"]]
    return "\n".join(lines) + "\n"


def window_support(text):
    """Support words of a window file with single-letter basis labels."""
    out = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" in line:
            continue
        word, value = line.split()
        if value == "1":
            out ^= {tuple(word)}
    return out
