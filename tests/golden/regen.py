"""Golden CLI reports: the command list, how each report is normalized, and
the writer of `tests/golden/cli/`.

Each case runs `mcctensor.cli.main` in-process on fixed arguments and
records its exit code, its stdout and the files it writes.  Two things are
replaced by fixed tokens, nothing else: the `ms` timing of each check
(`<ms>`, only where the field has its fixed width) and the temp directory
the case runs in (`<tmp>`).  A text over LARGE_BYTES is stored as its
SHA-256 and length.

    python tests/golden/regen.py          # compare, exit 1 on a difference
    python tests/golden/regen.py --write  # rewrite every golden file

`tests/test_golden_cli.py` compares every case on each tier-1 run.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "cli")
LARGE_BYTES = 100_000

# a check's `ms` field, right-aligned to the report's fixed width of 7
_MS = re.compile(r'("ms": )([ \d]{6}\d)(?!\d)')

FIXTURES = {
    "swap.mat": "rows: x y\ncols: x y\n0 1\n1 0\n",
    "win.txt": "tower: dyadic 2\nbasis: x y\ndepth: 1\nxy 1\n",
    "bad.mat": "rows: x y\ncols: x y\n0 1\n1\n",
    "bad.json": "[]",
}


def _cross_check_patch():
    """Every table reads as invariant only at its own depth, so a depth-2
    output exceeds its input's invariance level 1: a failed cross-check."""
    import mcctensor.towers

    original = mcctensor.towers.invariance_level_table
    mcctensor.towers.invariance_level_table = lambda tower, support, m: m
    return lambda: setattr(mcctensor.towers, "invariance_level_table", original)


# name -> (argv with "<tmp>" for the case's temp dir, setup returning an
# undo callable, or None)
CASES = {
    **{f"verify-seed{s}": (["verify", "--seed", str(s)], None) for s in range(3)},
    **{f"dims-fig8-{m}-json": (["dims", "fig8", str(m)], None) for m in range(4)},
    **{f"dims-fig8-{m}-csv": (["dims", "fig8", str(m), "csv"], None)
       for m in range(4)},
    "dims-fig8-3-json-out": (["dims", "fig8", "3", "--out", "<tmp>/dims.json"], None),
    "dims-fig8-3-csv-out": (["dims", "fig8", "3", "csv", "--out", "<tmp>/dims.csv"],
                            None),
    "box-tb_inv-ta-power1": (["box", "tb_inv", "ta"], None),
    "box-tb_inv-ta-power4": (["box", "tb_inv", "ta", "--power", "4"], None),
    "box-tb_inv-ta-power4-out": (["box", "tb_inv", "ta", "--power", "4",
                                  "--out", "<tmp>/p4.json"], None),
    "hh-box-power1": (["hh", "box"], None),
    "hh-box-power4": (["hh", "box", "--power", "4"], None),
    "mcc-apply-swap": (["mcc", "apply", "<tmp>/swap.mat", "<tmp>/win.txt"], None),
    "mcc-apply-swap-depth2-out": (["mcc", "apply", "<tmp>/swap.mat", "<tmp>/win.txt",
                                   "--depth", "2", "--out", "<tmp>/out.txt"], None),
    # exit 2: refused input
    "error-hh-malformed-json": (["hh", "<tmp>/bad.json"], None),
    "error-hh-box-power7-over-cap": (["hh", "box", "--power", "7"], None),
    "error-hh-box-power8-over-cap": (["hh", "box", "--power", "8"], None),
    "error-box-box-box-power4-over-cap": (["box", "box", "box", "--power", "4"], None),
    "error-dims-level-out-of-range": (["dims", "fig8", "4"], None),
    "error-mcc-apply-parse": (["mcc", "apply", "<tmp>/bad.mat", "<tmp>/win.txt"], None),
    # exit 1: a failed internal cross-check
    "error-mcc-apply-cross-check": (["mcc", "apply", "<tmp>/swap.mat", "<tmp>/win.txt",
                                     "--depth", "2"], _cross_check_patch),
}


def _block(title, text, tmp):
    text = _MS.sub(lambda m: m.group(1) + "<ms>", text.replace(tmp, "<tmp>"))
    if len(text.encode("utf-8")) > LARGE_BYTES:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        text = f"sha256: {digest}  bytes: {len(text.encode('utf-8'))}\n"
    return f"--- {title}\n{text}"


def render(name):
    """The normalized golden text of one case."""
    from mcctensor.cli import main

    argv, setup = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in FIXTURES.items():
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        undo = setup() if setup else None
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = main([a.replace("<tmp>", tmp) for a in argv])
        finally:
            if undo:
                undo()
        parts = [f"argv: {json.dumps(argv)}\nexit: {code}\n",
                 _block("stdout", out.getvalue(), tmp)]
        for fname in sorted(os.listdir(tmp)):
            if fname not in FIXTURES:
                with open(os.path.join(tmp, fname), encoding="utf-8") as fh:
                    parts.append(_block(f"artifact {fname}", fh.read(), tmp))
    return "".join(parts)


def golden_path(name):
    return os.path.join(GOLDEN_DIR, name + ".txt")


def main(argv):
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__)
        return 2
    differ = []
    for name in CASES:
        text = render(name)
        path = golden_path(name)
        if write:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                same = fh.read() == text
        except FileNotFoundError:
            same = False
        if not same:
            differ.append(name)
    for name in differ:
        print(f"differs: {golden_path(name)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
    sys.exit(main(sys.argv[1:]))
