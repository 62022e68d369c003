"""The CLI's stdout and exit codes on the fixtures, byte for byte.

``tests/golden/cli.txt`` was written by ``tests/golden/regen_cli.py``;
each invocation runs ``gentle.cli.main`` in-process here.
"""

from __future__ import annotations

import importlib.util
import os

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_cli", os.path.join(GOLDEN_DIR, "regen_cli.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_cli_output_matches_golden():
    regen = _regen_module()
    with open(regen.GOLDEN, encoding="utf-8", newline="") as fh:
        want = fh.read()
    got = regen.render()
    assert got.count("$ gentle ") == len(regen.invocations()) == 46
    assert got == want
