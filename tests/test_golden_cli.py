"""Every CLI report in `tests/golden/cli/` is reproduced byte for byte, apart
from check timings and temp paths (see `tests/golden/regen.py`)."""

import importlib.util
import os
import subprocess
import sys

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regen", os.path.join(os.path.dirname(__file__), "golden", "regen.py"))
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)


def _refuse(obj):
    raise AssertionError(f"report value {obj!r} is not a plain JSON type")


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_cli_report_matches_golden(name, monkeypatch):
    import mcctensor.cli

    # reports hold only plain JSON types: json's fallback never runs
    monkeypatch.setattr(mcctensor.cli, "_plain", _refuse)
    with open(regen.golden_path(name), encoding="utf-8") as fh:
        golden = fh.read()
    assert regen.render(name) == golden


def test_ms_token_replaces_only_fixed_width_timings():
    text = '"ms":       3,\n"ms": 3,\n"msx":       3\n"ms":    12345678'
    assert regen._block("t", text, "/nowhere") == \
        '--- t\n"ms": <ms>,\n"ms": 3,\n"msx":       3\n"ms":    12345678'


@pytest.mark.parametrize("hash_seed", ["1", "777"])
def test_golden_reports_do_not_depend_on_the_hash_seed(hash_seed):
    # several reports are built from sets, and set order follows the string
    # hash: each report must come out the same under any PYTHONHASHSEED
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, regen.__file__], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
