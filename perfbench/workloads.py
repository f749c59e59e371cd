"""Seeded job lists for the three workloads, the in-process job runners and
the output checks.

Generation uses only the seed and the closed forms below, never the
program: the program receives the generated inputs and nothing else.  Each
workload has a fixed schedule of job shapes (kind, sizes); the seed draws
the contents (matrix entries, support words, graphs, CLI seeds).  Before a
job is emitted its size is computed from its inputs.  A random graph is
redrawn from the same random stream while its size is outside its bound or
band; an apply_mcc or box-power shape over its bound is an error in the
schedule.  So the total work of a job list barely depends on the seed.

Every check compares against a known value or an independent computation
kept in this package (`reference.py`), never against the program's own
second path.
"""

import random

import reference

# -- size bounds (also stated in BENCHMARK.json) ------------------------------

# apply_mcc: |C|^|X_out| * |support|, the words the action scans.
APPLY_SCAN_CAP = 1 << 18
# Level-4 staircase_dims: closed walks of length 16, trace(T^16).  The cap
# stands in for the SizeCapError that staircase_dims lacks (ROADMAP aim 3):
# every closed walk is materialized as a tuple.  The floor keeps the largest
# walk list, and so the peak memory, about the same from seed to seed.
STAIR_TRACE_CAP = 1 << 15
STAIR_TRACE_FLOOR = 24576
# Level-4 staircase_dims: open walk prefixes grown by the enumeration, kept
# in a band so that each job costs about the same.
STAIR_PREFIX_BAND = (230000, 280000)
# hh0_inline_power: chained n-edge words the quotient oracle row-reduces.
HH0_WORD_BAND = (2000, 2500)
# Box powers: generator count of the power, from the (left, right)
# idempotent count matrix of the seed box product, which squares at each
# doubling.  The 8-fold power has 4181 generators; the 16-fold 4.87 million.
BOX_GENERATOR_CAP = 5000
SEED_BOX_IDEMPOTENT_COUNTS = ((1, 1), (1, 2))

TOWER_LEVEL = 4


def _box_counts(power):
    """(left, right)-idempotent generator counts of the power-fold box
    power of the seed box (power a power of two)."""
    c = [list(r) for r in SEED_BOX_IDEMPOTENT_COUNTS]
    while power > 1:
        c = reference.mat_mul(c, c)
        power //= 2
    return c


def box_generator_count(power):
    return sum(map(sum, _box_counts(power)))


def box_diagonal_count(power):
    """Diagonal (Hochschild) generators: equal left and right idempotents."""
    c = _box_counts(power)
    return c[0][0] + c[1][1]


def _require_box_power(power):
    if box_generator_count(power) > BOX_GENERATOR_CAP:
        raise ValueError(f"box power {power} is over the generator bound")


# -- windows --------------------------------------------------------------------
#
# The cost of apply_mcc and tensor_power_finite is set by where each scan of
# a position product first meets a zero entry.  Enumerating every output
# word against a matrix with exactly one 1 per column, or a matrix with a
# fixed number of ones, makes that total depend only on the job's shape, not
# on which entries the seed drew.

def _function_matrix(rng, n_rows, n_cols):
    """Rows x cols 0/1 lists with exactly one 1 in every column."""
    rows = [[0] * n_cols for _ in range(n_rows)]
    for j in range(n_cols):
        rows[rng.randrange(n_rows)][j] = 1
    return rows


def _matrix_with_ones(rng, n_rows, n_cols, ones):
    cells = rng.sample(range(n_rows * n_cols), ones)
    return [[int(i * n_cols + j in cells) for j in range(n_cols)]
            for i in range(n_rows)]


def _draw_words(rng, letters, length, count):
    words = set()
    while len(words) < count:
        words.add("".join(rng.choice(letters) for _ in range(length)))
    return sorted(words)


def _orbit_closed(rng, letters, depth, h, target):
    """Random words at `depth` closed under rotation by multiples of 2^h
    (the kernel K(depth, h) of the dyadic solenoid) until at least
    `target` words are in the support."""
    n = 2 ** depth
    step = 2 ** h
    support = set()
    while len(support) < target:
        w = "".join(rng.choice(letters) for _ in range(n))
        for k in range(0, n, step):
            support.add(w[k:] + w[:k])
    return sorted(support)


def _apply_job(rng, n_b, n_c, d_out, n_support, dense_h=None):
    """An apply_mcc job.  Sparse (dense_h None): n_support random words at
    a random input depth with room for them.  Dense: words at depth d_out
    closed under K(d_out, dense_h)."""
    b_letters = "abc"[:n_b]
    if dense_h is None:
        d_in = rng.choice([d for d in range(d_out)
                           if n_b ** (2 ** d) >= n_support])
        support = _draw_words(rng, b_letters, 2 ** d_in, n_support)
    else:
        d_in = d_out
        support = _orbit_closed(rng, b_letters, d_in, dense_h, n_support)
    scan = n_c ** (2 ** d_out) * len(support)
    if scan > APPLY_SCAN_CAP:
        raise ValueError(f"apply job shape scans {scan} words, over the bound")
    return {"kind": "apply", "B": b_letters, "C": "xyz"[:n_c],
            "rows": _function_matrix(rng, n_c, n_b),
            "d_in": d_in, "d_out": d_out, "support": support}


def windows_jobs(seed):
    rng = random.Random(f"windows:{seed}")
    jobs = []
    # sparse, output depth 4: 2^16 output words scanned per support word
    for n_support in (1, 2, 3, 4, 2, 3):
        jobs.append(_apply_job(rng, rng.choice((2, 3)), 2, 4, n_support))
    # sparse, output depth 3 on three output letters: 3^8 words scanned
    for n_support in (1, 2, 3, 4, 2, 3):
        jobs.append(_apply_job(rng, rng.choice((2, 3)), 3, 3, n_support))
    # dense, depth 3: (input letters, K(3, h) closing the support, words)
    for n_b, h, target in ((2, 0, 24), (2, 1, 48), (2, 2, 72), (2, 0, 96),
                           (2, 1, 120), (2, 2, 144), (3, 0, 168), (3, 1, 192),
                           (3, 2, 216), (3, 0, 240), (3, 1, 264), (3, 2, 288)):
        jobs.append(_apply_job(rng, n_b, 2, 3, target, dense_h=h))
    # finite tensor powers: (|C|, |B|, |X|, ones in the matrix)
    for n_c, n_b, n, ones in ((2, 2, 6, 3), (2, 2, 7, 3), (2, 2, 8, 3), (3, 2, 5, 4),
                              (2, 3, 5, 4), (3, 3, 4, 5), (2, 2, 7, 2), (3, 2, 5, 3)):
        jobs.append({"kind": "tpf", "B": "abc"[:n_b], "C": "xyz"[:n_c],
                     "rows": _matrix_with_ones(rng, n_c, n_b, ones), "n": n})
    # conditionally convergent sums of invariant tables: (depth, h, words)
    for depth, h, target in ((3, 0, 40), (3, 1, 80), (3, 2, 120), (4, 0, 64),
                             (4, 1, 128), (4, 2, 192), (4, 3, 256), (4, 2, 320)):
        jobs.append({"kind": "cc", "B": "xy", "depth": depth, "h": h,
                     "support": _orbit_closed(rng, "xy", depth, h, target)})
    return jobs


# -- dimensions -----------------------------------------------------------------

def _draw_graph(rng, n_vertices, n_edges):
    verts = [f"v{i}" for i in range(n_vertices)]
    edges = [f"e{i}" for i in range(n_edges)]
    return {"vertices": verts, "edges": edges,
            "s": [rng.choice(verts) for _ in edges],
            "t": [rng.choice(verts) for _ in edges]}


def _staircase_size(t):
    """(open walk prefixes the level-4 enumeration grows, closed walks of
    length 16), or None once the prefixes pass the band.
    walks_of_length(g, 2^m) grows every walk of up to 2^m edges, for each
    level m, so a walk of k edges is grown once per m with 2^m >= k."""
    prefixes, acc = 0, t
    for k in range(1, 2 ** TOWER_LEVEL + 1):
        weight = sum(1 for m in range(TOWER_LEVEL + 1) if 2 ** m >= k)
        prefixes += weight * sum(map(sum, acc))
        if prefixes > STAIR_PREFIX_BAND[1]:
            return None
        if k < 2 ** TOWER_LEVEL:
            acc = reference.mat_mul(acc, t)
    return prefixes, sum(acc[i][i] for i in range(len(acc)))


def _staircase_job(rng):
    while True:
        g = _draw_graph(rng, rng.randint(2, 4), rng.randint(5, 9))
        size = _staircase_size(reference.transfer_matrix(g))
        if size is None:
            continue
        prefixes, closed = size
        if (STAIR_PREFIX_BAND[0] <= prefixes
                and STAIR_TRACE_FLOOR <= closed <= STAIR_TRACE_CAP):
            return {"kind": "staircase", "graph": g, "level": TOWER_LEVEL}


def _hh0_job(rng, n):
    while True:
        g = _draw_graph(rng, rng.randint(2, 4), rng.randint(4, 8))
        lo, hi = HH0_WORD_BAND
        if lo <= reference.walk_counts(reference.transfer_matrix(g), n)[-1][0] <= hi:
            return {"kind": "hh0", "graph": g, "n": n}


def dimensions_jobs(seed):
    """By cost: 18 small jobs, then 14 fixed ones (P^4 certificates, then
    hfk_dimensions), then 8 staircase jobs.  The median and the p75 job
    fall inside the fixed ones, whatever graphs the seed draws."""
    rng = random.Random(f"dimensions:{seed}")
    jobs = [{"kind": "hfk", "max_level": 3} for _ in range(6)]
    for base, doublings in ((4, 1), (4, 1), (4, 1), (4, 1), (1, 3), (2, 2)):
        _require_box_power(base * 2 ** doublings)
        jobs.append({"kind": "derived", "base_power": base, "doublings": doublings})
    for power in (1, 2, 4, 4, 4, 4):
        _require_box_power(power)
        jobs.append({"kind": "vanishing", "power": power})
    jobs += [_staircase_job(rng) for _ in range(8)]
    jobs += [_hh0_job(rng, n) for n in (5, 6, 7) for _ in range(5 if n < 7 else 4)]
    return jobs


# -- cli --------------------------------------------------------------------------

def cli_jobs(seed):
    """CLI jobs; "{tmp}" in `args` is the pass's scratch directory, where
    `cli_files` writes the job's input files before the pass.

    By cost: 14 short jobs (csv, power-1 box, depth-3 mcc apply), then 19
    fixed ones (10 hh, 9 dims), then box at power 4, depth-4 mcc apply and
    verify.  The median and the p75 job fall inside the runs of identical
    hh and dims commands, not at the edge of a group, where the fastest
    execution of a single job decides the figure."""
    rng = random.Random(f"cli:{seed}")
    jobs = []
    for _ in range(3):
        jobs.append({"kind": "verify", "args": ["verify", "--seed",
                                                str(rng.randrange(10 ** 6))]})
    jobs += [{"kind": "dims3", "args": ["dims", "fig8", "3"]} for _ in range(9)]
    jobs += [{"kind": "dims2csv", "args": ["dims", "fig8", "2", "csv"]}
             for _ in range(3)]
    _require_box_power(4)
    jobs += [{"kind": "box4", "args": ["box", "tb_inv", "ta", "--power", "4",
                                       "--out", f"{{tmp}}/box4-{i}.json"]}
             for i in range(2)]
    jobs += [{"kind": "box1", "args": ["box", "tb_inv", "ta",
                                       "--out", f"{{tmp}}/box1-{i}.json"]}
             for i in range(3)]
    jobs += [{"kind": "hh4", "args": ["hh", "box", "--power", "4"]} for _ in range(10)]
    # (output depth, output letters, support words)
    shapes = [(4, 2, n) for n in (1, 3)] + [
        (3, n_c, n) for n_c, n in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4),
                                   (3, 4))]
    for i, (d_out, n_c, n_support) in enumerate(shapes):
        spec = _apply_job(rng, rng.choice((2, 3)), n_c, d_out, n_support)
        jobs.append({"kind": "mcc_apply", "apply": spec,
                     "args": ["mcc", "apply", f"{{tmp}}/m{i}.mat",
                              f"{{tmp}}/w{i}.txt", "--depth", str(d_out),
                              "--out", f"{{tmp}}/out{i}.txt"]})
    return jobs


def cli_files(job):
    """{relative name: text} input files a CLI job reads."""
    if job["kind"] != "mcc_apply":
        return {}
    mat, win = (a.replace("{tmp}/", "") for a in job["args"][2:4])
    return {mat: reference.matrix_text(job["apply"]), win: reference.window_text(job["apply"])}


GENERATORS = {"cli": cli_jobs, "windows": windows_jobs, "dimensions": dimensions_jobs}


# -- in-process runners --------------------------------------------------------------

class Fixed:
    """The objects every workload builds once: dyadic_solenoid(4) with its
    groups and kernels, the torus algebra (with its self-check), the seed
    box product and the figure-eight graph."""

    def __init__(self):
        from mcctensor import floer, solenoidal, towers

        self.tower = towers.dyadic_solenoid(TOWER_LEVEL)
        for m in range(TOWER_LEVEL + 1):
            for h in range(m + 1):
                self.tower.kernel(m, h)
        self.algebra = floer.torus_algebra()
        self.box = floer.seed_box()
        self.fig8 = solenoidal.fig8()


def _graph(spec):
    from mcctensor import solenoidal

    return solenoidal.GraphBasis(spec["vertices"], spec["edges"],
                                 dict(zip(spec["edges"], spec["s"])),
                                 dict(zip(spec["edges"], spec["t"])))


def run_job(fixed, job):
    """Run one in-process job; the return value is what the check inspects."""
    from mcctensor import f2cat, floer, mcc, solenoidal, towers

    kind = job["kind"]
    if kind == "apply":
        b = f2cat.LabeledSet(job["B"])
        c = f2cat.LabeledSet(job["C"])
        matrix = f2cat.F2Matrix.from_rows(c, b, job["rows"])
        window = mcc.MccWindow(fixed.tower, b, job["d_in"],
                               [tuple(w) for w in job["support"]])
        return mcc.apply_mcc(matrix, window, job["d_out"]).support
    if kind == "tpf":
        matrix = f2cat.F2Matrix.from_rows(f2cat.LabeledSet(job["C"]),
                                          f2cat.LabeledSet(job["B"]), job["rows"])
        out = f2cat.tensor_power_finite(matrix, [f"p{i}" for i in range(job["n"])])
        return (len(out.rows), len(out.cols), tuple(out.bits))
    if kind == "cc":
        support = [tuple(w) for w in job["support"]]
        return [towers.cc_sum(fixed.tower, tuple(job["B"]), support, job["depth"], lvl)
                for lvl in range(job["h"], job["depth"] + 1)]
    if kind == "hfk":
        return [r["total"] for r in floer.hfk_dimensions(job["max_level"])]
    if kind == "derived":
        base = floer.box_power(fixed.box, job["base_power"])
        return floer.derived_power_certificate(base, job["doublings"])
    if kind == "vanishing":
        p = floer.box_power(fixed.box, job["power"])
        return len(p.generators), floer.vanishing_certificate(p)
    if kind == "staircase":
        return solenoidal.staircase_dims(_graph(job["graph"]), fixed.tower, job["level"])
    if kind == "hh0":
        dim, reps = solenoidal.hh0_inline_power(_graph(job["graph"]), job["n"])
        return dim, len(reps)
    raise ValueError(f"unknown job kind {kind!r}")


# -- checks ---------------------------------------------------------------------------

HFK_TOTALS = [5, 9, 49, 2209]
BASE_FIXPOINT = ["r1", "r3"]
POWER_FIXPOINT = ["r1", "r123", "r23", "r3"]  # every power 2^k, k >= 1


def check_job(job, out):
    """None when the output is right, else a short reason."""
    kind = job["kind"]
    if kind == "apply":
        want = reference.apply_support(job)
        return None if set(out) == want else (
            f"apply_mcc support has {len(out)} words, reference {len(want)}")
    if kind == "tpf":
        want = reference.tensor_power_bits(job)
        return None if out == want else "tensor_power_finite differs from Kronecker power"
    if kind == "cc":
        want = reference.cc_parities(job)
        return None if out == want else f"cc_sum levels {out}, reference {want}"
    if kind == "hfk":
        return None if out == HFK_TOTALS else f"hfk totals {out}"
    if kind == "derived":
        power = job["base_power"] * 2 ** job["doublings"]
        want = BASE_FIXPOINT if power == 1 else POWER_FIXPOINT
        ok = (out["granted"] and out["fixpoint_is_exact"]
              and out["fixpoint"] == want)
        return None if ok else f"derived certificate {out['granted']} {out['fixpoint']}"
    if kind == "vanishing":
        gens, cert = out
        want = BASE_FIXPOINT if job["power"] == 1 else POWER_FIXPOINT
        ok = (gens == box_generator_count(job["power"]) and cert["granted"]
              and cert["fixpoint"] == want)
        return None if ok else f"vanishing certificate {gens} {cert['granted']}"
    if kind == "staircase":
        t = reference.transfer_matrix(job["graph"])
        want = [reference.staircase_dim(t, m) for m in range(job["level"] + 1)]
        return None if out == want else f"staircase {out}, traces {want}"
    if kind == "hh0":
        want = reference.walk_trace(reference.transfer_matrix(job["graph"]), job["n"])
        return None if out == (want, want) else f"hh0 {out}, trace {want}"
    raise ValueError(f"unknown job kind {kind!r}")
