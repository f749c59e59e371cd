"""Command-line entry points: report shapes, golden outputs, exit codes."""

import copy
import itertools
import json
import os
import tracemalloc

import pytest

import mcctensor.cli
import mcctensor.floer
import mcctensor.solenoidal
from mcctensor.cli import main
from mcctensor.floer import (box_power, dumps_bimodule, golden_box_text, seed_box,
                             write_bimodule)
from mcctensor.mcc import load_window
from mcctensor.towers import dump_tower, dyadic_solenoid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def norm(report):
    """Strip per-check timing so reports compare deterministically."""
    r = copy.deepcopy(report)
    for c in r.get("checks", []):
        c.pop("ms", None)
    return r


VERIFY_CHECKS = [
    "functoriality-window-level",
    "sigma-level-independence",
    "sector-projection-idempotent",
    "solenoidal-functor-law",
    "incompatible-composition-witness",
    "box-table-golden-match",
    "vanishing-certificates",
    "dimension-bridge",
]


def test_verify_all_checks_pass(capsys):
    code, rep = run_json(capsys, "verify")
    assert code == 0
    assert rep["ok"] is True
    assert [c["name"] for c in rep["checks"]] == VERIFY_CHECKS
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert rep["seed"] == 0 and rep["depth_cap"] == 3


def test_verify_seed_changes_cases_not_outcomes(capsys):
    _, rep0 = run_json(capsys, "verify", "--seed", "0")
    _, rep9 = run_json(capsys, "verify", "--seed", "9")
    assert [(c["name"], c["status"]) for c in rep0["checks"]] == \
        [(c["name"], c["status"]) for c in rep9["checks"]]


def test_verify_deterministic_for_fixed_seed(capsys):
    _, a = run_json(capsys, "verify", "--seed", "3")
    _, b = run_json(capsys, "verify", "--seed", "3")
    assert norm(a) == norm(b)


def test_verify_depth_cap_zero(capsys):
    code, rep = run_json(capsys, "verify", "--depth-cap", "0")
    assert code == 0 and rep["ok"] is True


def test_dims_csv_golden_rows(capsys):
    code, out = run(capsys, "dims", "fig8", "2", "csv")
    assert code == 0
    assert out == "0,5\n1,9\n2,49\n"


def test_dims_csv_positional_format(capsys):
    code, out = run(capsys, "dims", "fig8", "2", "csv")
    assert code == 0
    assert out == "0,5\n1,9\n2,49\n"


def test_dims_json_bridges_both_paths(capsys):
    code, rep = run_json(capsys, "dims", "fig8", "3")
    assert code == 0 and rep["ok"] is True
    assert [c["name"] for c in rep["checks"]] == \
        ["vanishing-certificates", "dimension-bridge"]
    assert [row["total"] for row in rep["table"]] == [5, 9, 49, 2209]
    top = rep["table"][3]
    assert top == {"level": 3, "total": 2209, "lower": 1, "middle": 2207,
                   "upper": 1, "floer_total": 2209}


def test_dims_level_out_of_range(capsys):
    code, rep = run_json(capsys, "dims", "fig8", "4")
    assert code == 2
    assert rep["ok"] is False and rep["error"]["type"] == "MccError"


def test_dims_csv_to_file(capsys, tmp_path):
    out = tmp_path / "dims.csv"
    code, rep = run_json(capsys, "dims", "fig8", "1", "csv", "--out", str(out))
    assert code == 0
    assert rep["artifacts"] == [str(out)]
    assert out.read_text() == "0,5\n1,9\n"


def test_dims_json_to_file(capsys, tmp_path):
    out = tmp_path / "dims.json"
    code, rep = run_json(capsys, "dims", "fig8", "1", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == rep["table"]


def test_dims_custom_graph(capsys, tmp_path):
    g = tmp_path / "loop.txt"
    g.write_text("idempotents: v\nedge a v v\n")
    code, rep = run_json(capsys, "dims", str(g), "2")
    assert code == 0
    assert rep["table"] == [{"level": 0, "total": 1}, {"level": 1, "total": 1},
                            {"level": 2, "total": 1}]
    assert rep["checks"] == []  # the floer bridge only applies to the builtin


def test_box_report_and_golden_file(capsys, tmp_path):
    code, rep = run_json(capsys, "box", "tb_inv", "ta")
    assert code == 0
    assert rep["result"]["generators"] == 5 and rep["result"]["terms"] == 21
    assert rep["result"]["bimodule"] == json.loads(golden_box_text())
    out = tmp_path / "box.json"
    code, rep = run_json(capsys, "box", "tb_inv", "ta", "--out", str(out))
    assert code == 0 and rep["artifacts"] == [str(out)]
    assert out.read_text() == golden_box_text()
    assert "bimodule" not in rep["result"]


def test_box_power_two(capsys):
    code, rep = run_json(capsys, "box", "tb_inv", "ta", "--power", "2")
    assert code == 0
    assert rep["result"]["generators"] == 13 and rep["result"]["terms"] == 105


def test_box_power_three(capsys):
    # an odd power runs box_power's multiply step
    code, rep = run_json(capsys, "box", "tb_inv", "ta", "--power", "3")
    assert code == 0
    assert rep["result"]["generators"] == 34 and rep["result"]["terms"] == 630


def refuse(*args):
    raise AssertionError("box must not hold the whole artifact text")


def test_box_out_writes_without_the_whole_text(capsys, monkeypatch, tmp_path):
    expected = dumps_bimodule(box_power(seed_box(), 2)).encode("utf-8")
    monkeypatch.setattr(mcctensor.floer, "dumps_bimodule", refuse)
    out = tmp_path / "p2.json"
    code, _ = run(capsys, "box", "tb_inv", "ta", "--power", "2", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == expected


def test_box_report_reads_no_artifact_text(capsys, monkeypatch):
    """The report's bimodule comes from the term table, never from a
    serialized and re-parsed text; the golden reports pin its bytes."""
    monkeypatch.setattr(mcctensor.floer, "dumps_bimodule", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    code, out = run(capsys, "box", "tb_inv", "ta", "--power", "2")
    monkeypatch.undo()
    assert code == 0
    assert json.loads(out)["result"]["generators"] == 13


def test_writing_p4_holds_under_a_megabyte():
    """The P^4 artifact is 2.34 MB of text; the writer holds one piece at a
    time."""
    p4 = box_power(seed_box(), 4)
    with open(os.devnull, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            write_bimodule(p4, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000


def test_box_power_zero_rejected(capsys):
    code, rep = run_json(capsys, "box", "tb_inv", "ta", "--power", "0")
    assert code == 2 and rep["error"]["type"] == "MccError"


@pytest.mark.parametrize("argv", [("hh", "box", "--power", "8"),
                                  ("box", "box", "box", "--power", "4")])
def test_box_power_over_the_generator_cap_exits_2(capsys, argv):
    code, rep = run_json(capsys, *argv)
    assert code == 2
    assert rep == {"command": argv[0], "ok": False, "error": {
        "type": "SizeCapError",
        "message": "box product would have 4181 generators, over the cap 1000"}}


def test_hh_seed_box(capsys):
    code, rep = run_json(capsys, "hh", "box")
    assert code == 0 and rep["ok"] is True
    assert rep["result"]["diagonal_generators"] == ["p|f", "q|g", "r|h"]
    assert rep["result"]["count"] == 3
    cert = rep["result"]["certificate"]
    assert cert["granted"] is True
    assert cert["fixpoint"] == ["r1", "r3"]
    assert rep["checks"][0]["name"] == "vanishing-certificate"


def test_hh_power_two(capsys):
    code, rep = run_json(capsys, "hh", "box", "--power", "2")
    assert code == 0 and rep["result"]["count"] == 7


def test_hh_left_factor(capsys):
    code, rep = run_json(capsys, "hh", "tb_inv")
    assert code == 0
    assert rep["result"]["diagonal_generators"] == ["p", "q"]
    assert rep["result"]["certificate"]["granted"] is True


def test_hh_accepts_a_long_zero_input_chain(capsys, tmp_path):
    # g0 -> g1 -> ... -> g1499 by zero-input r12 terms: the cycle search
    # walks the whole chain without recursion
    n = 1500
    doc = {"algebra": "torus",
           "generators": [{"name": f"g{i}", "left": "i0", "right": "i0"}
                          for i in range(n)],
           "terms": [{"x": f"g{i}", "inputs": [], "output": "r12", "y": f"g{i + 1}"}
                     for i in range(n - 1)]}
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "hh", str(chain))
    assert code == 0 and rep["ok"] is True
    assert rep["result"]["count"] == n
    assert rep["result"]["certificate"]["fixpoint"] == ["r12"]


def test_hh_deeply_nested_json_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, rep = run_json(capsys, "hh", str(deep))
    assert code == 2
    assert rep["error"] == {"type": "MccError",
                            "message": f"bimodule JSON {str(deep)!r} is nested too "
                                       f"deeply to read"}


def test_emit_refuses_a_value_json_cannot_encode():
    # a report holds plain JSON types only; anything else fails loudly
    with pytest.raises(TypeError, match="set"):
        mcctensor.cli._emit({"checks": [], "result": {"x"}})


def write_swap_fixtures(tmp_path):
    mat = tmp_path / "swap.mat"
    mat.write_text("rows: x y\ncols: x y\n0 1\n1 0\n")
    win = tmp_path / "win.txt"
    win.write_text("tower: dyadic 2\nbasis: x y\ndepth: 1\nxy 1\n")
    return str(mat), str(win)


def test_mcc_apply_swap(capsys, tmp_path):
    mat, win = write_swap_fixtures(tmp_path)
    code, rep = run_json(capsys, "mcc", "apply", mat, win)
    assert code == 0
    assert rep["depth"] == 1
    assert rep["result"]["support_size"] == 1
    assert "yx 1" in rep["result"]["window"]


def test_mcc_apply_deeper_output(capsys, tmp_path):
    mat, win = write_swap_fixtures(tmp_path)
    out = tmp_path / "out.txt"
    code, rep = run_json(capsys, "mcc", "apply", mat, win,
                         "--depth", "2", "--out", str(out))
    assert code == 0 and rep["artifacts"] == [str(out)]
    back = load_window(str(out))
    assert back.support == {("y", "x", "y", "x")}


def test_mcc_apply_output_over_a_file_tower_reads_back(capsys, tmp_path):
    # the output names its tower by absolute path, so it loads from anywhere
    mat, _ = write_swap_fixtures(tmp_path)
    (tmp_path / "t.txt").write_text(dump_tower(dyadic_solenoid(2)))
    win = tmp_path / "w.txt"
    win.write_text("tower: file t.txt\nbasis: x y\ndepth: 1\nxy 1\n")
    sub = tmp_path / "out"
    sub.mkdir()
    once, twice = sub / "o1.txt", sub / "o2.txt"
    assert run_json(capsys, "mcc", "apply", mat, str(win), "--out", str(once))[0] == 0
    assert once.read_text().startswith(f"tower: file {tmp_path / 't.txt'}\n")
    code, rep = run_json(capsys, "mcc", "apply", mat, str(once), "--out", str(twice))
    assert code == 0 and rep["result"]["support_size"] == 1
    assert load_window(str(twice)).support == {("x", "y")}


def test_mcc_apply_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("rows: x y\ncols: x y\n0 1\n1\n")
    _, win = write_swap_fixtures(tmp_path)
    code, rep = run_json(capsys, "mcc", "apply", str(bad), win)
    assert code == 2
    assert rep["error"]["type"] == "ParseError"
    assert "line 4" in rep["error"]["message"]


@pytest.mark.parametrize("ref", ["dyadic x", "dyadic 2 xq"])
def test_mcc_apply_bad_tower_header(capsys, tmp_path, ref):
    mat, _ = write_swap_fixtures(tmp_path)
    win = tmp_path / "bad.txt"
    win.write_text(f"tower: {ref}\nbasis: x y\ndepth: 1\nxy 1\n")
    code, rep = run_json(capsys, "mcc", "apply", mat, str(win))
    assert code == 2
    assert rep["error"] == {
        "type": "ParseError",
        "message": f"line 1: unknown tower reference {ref!r} (expected e.g. 'dyadic 3')"}


def test_mcc_apply_missing_tower_file_names_its_line(capsys, tmp_path):
    mat, _ = write_swap_fixtures(tmp_path)
    win = tmp_path / "w.txt"
    win.write_text("# no such tower\ntower: file nope.txt\nbasis: x y\ndepth: 1\nxy 1\n")
    code, rep = run_json(capsys, "mcc", "apply", mat, str(win))
    assert code == 2
    missing = str(tmp_path / "nope.txt")
    assert rep["error"] == {
        "type": "ParseError",
        "message": f"line 2: [Errno 2] No such file or directory: {missing!r}"}


def test_mcc_apply_refuses_an_over_cap_tower(capsys, tmp_path):
    mat, _ = write_swap_fixtures(tmp_path)
    win = tmp_path / "deep.txt"
    win.write_text("tower: dyadic 30\nbasis: x y\ndepth: 1\nxy 1\n")
    code, rep = run_json(capsys, "mcc", "apply", mat, str(win))
    assert code == 2
    assert rep["error"] == {"type": "ParseError",
                            "message": "line 1: level-14 group exceeds size cap 8192"}


def test_mcc_apply_refuses_a_many_copy_tower(capsys, tmp_path):
    mat, _ = write_swap_fixtures(tmp_path)
    win = tmp_path / "wide.txt"
    win.write_text("tower: dyadic 0 x9999\nbasis: x y\ndepth: 1\nxy 1\n")
    code, rep = run_json(capsys, "mcc", "apply", mat, str(win))
    assert code == 2
    assert rep["error"] == {
        "type": "ParseError",
        "message": "line 1: 9999 copies at level 0 need 99980001 generator-table "
                   "entries, over the size cap 8192"}


def test_missing_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert main(["mcc"]) == 2


def test_unknown_file_errors_cleanly(capsys, tmp_path):
    code, rep = run_json(capsys, "hh", str(tmp_path / "nope.json"))
    assert code == 2 and rep["ok"] is False


GOOD_TERM = {"x": "p", "inputs": ["r1"], "output": "r1", "y": "q"}
GOOD_GENERATORS = [{"name": "p", "left": "i0", "right": "i0"},
                   {"name": "q", "left": "i1", "right": "i1"}]


@pytest.mark.parametrize("doc, field", [
    ([], "the top level"),
    ({"algebra": "torus", "generators": GOOD_GENERATORS}, "terms"),
    ({"algebra": "torus", "generators": GOOD_GENERATORS,
      "terms": [dict(GOOD_TERM, inputs=[["r1"]])]}, "terms[0].inputs[0]"),
    ({"algebra": "torus", "generators": "p", "terms": []}, "generators"),
    ({"algebra": "torus", "generators": [["p", "i0", "i0"]], "terms": []},
     "generators[0]"),
    ({"algebra": "torus", "generators": GOOD_GENERATORS,
      "terms": [dict(GOOD_TERM, y=None)]}, "terms[0].y"),
], ids=["top-level-list", "no-terms", "list-in-inputs", "generators-string",
        "generator-list", "null-target"])
def test_malformed_bimodule_json_exits_2(capsys, tmp_path, doc, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "hh", str(bad))
    assert code == 2 and rep["ok"] is False
    assert rep["error"]["type"] == "MccError"
    assert rep["error"]["message"].startswith(f"bimodule JSON: {field} ")


@pytest.mark.parametrize("argv", [["verify"], ["dims", "fig8", "3"], ["hh", "box", "--power", "4"]])
def test_report_size_does_not_depend_on_check_times(capsys, monkeypatch, argv):
    """Every check takes 3 ms in one run and 3000 ms in the other; the
    fixed-width ms field keeps the report the same length."""
    lengths = []
    for step in (0.0035, 3.0005):
        clock = itertools.count(0.0, step)
        monkeypatch.setattr(mcctensor.cli.time, "monotonic", lambda: next(clock))
        code, out = run(capsys, *argv)
        monkeypatch.undo()
        assert code == 0
        ms = {c["ms"] for c in json.loads(out)["checks"]}
        assert ms == {int(step * 1000)}
        lengths.append(len(out.encode("utf-8")))
    assert lengths[0] == lengths[1]


def test_failed_cross_check_exits_1_not_2(capsys, monkeypatch, tmp_path):
    mat, win = write_swap_fixtures(tmp_path)
    # every table reads as invariant only at its own depth: the depth-2
    # output then exceeds the input's invariance level 1
    monkeypatch.setattr(mcctensor.mcc._tw, "invariance_level_table",
                        lambda tower, support, m: m)
    code, rep = run_json(capsys, "mcc", "apply", mat, win, "--depth", "2")
    assert code == 1
    assert rep["ok"] is False
    assert rep["error"]["type"] == "CrossCheckError"
    assert rep["error"]["witness"]["output_inv_level"] == 2


def refused_box():
    """The seed box plus one r2 output fed without an r2: P1 refuses it."""
    box = seed_box()
    return mcctensor.floer.DABimodule(
        box.generators, list(box.terms) + [("q|g", ("r23",), "r2", "p|h")])


def checks_by_name(rep):
    return {c["name"]: c for c in rep["checks"]}


def test_hh_refused_certificate_exits_1(capsys, tmp_path):
    path = tmp_path / "refused.json"
    path.write_text(dumps_bimodule(refused_box()))
    code, rep = run_json(capsys, "hh", str(path))
    assert code == 1 and rep["ok"] is False
    check = checks_by_name(rep)["vanishing-certificate"]
    assert check["status"] == "fail"
    assert [c["name"] for c in check["witness"]["failed"]] == \
        ["P1-r2-output-needs-r2-input"]
    assert rep["result"]["certificate"]["granted"] is False


@pytest.mark.parametrize("argv", [("dims", "fig8", "2"),
                                  ("verify", "--depth-cap", "1")])
def test_dimension_bridge_mismatch_exits_1(capsys, monkeypatch, argv):
    real = mcctensor.solenoidal.staircase_dims
    monkeypatch.setattr(mcctensor.solenoidal, "staircase_dims",
                        lambda *a: [d + 1 for d in real(*a)])
    code, rep = run_json(capsys, *argv)
    assert code == 1 and rep["ok"] is False
    checks = checks_by_name(rep)
    assert checks["vanishing-certificates"]["status"] == "pass"
    bridge = checks["dimension-bridge"]
    assert bridge["status"] == "fail"
    levels = int(argv[-1]) + 1
    totals = [5, 9, 49, 2209][:levels]
    assert bridge["witness"] == {"box_totals": totals,
                                 "staircase": [t + 1 for t in totals]}


def test_refused_seed_fails_both_dimension_checks(capsys, monkeypatch):
    monkeypatch.setattr(mcctensor.floer, "seed_box", refused_box)
    code, rep = run_json(capsys, "dims", "fig8", "2")
    assert code == 1 and rep["ok"] is False
    checks = checks_by_name(rep)
    assert list(checks) == ["vanishing-certificates", "dimension-bridge"]
    cert = checks["vanishing-certificates"]
    assert cert["status"] == "fail"
    assert "P1-r2-output-needs-r2-input" in cert["witness"]["error"]
    assert cert["witness"]["report"]["granted"] is False
    bridge = checks["dimension-bridge"]
    assert bridge["status"] == "fail"
    assert bridge["witness"]["error"].startswith("no dimension rows")
    assert "floer_total" not in rep["table"][0]
