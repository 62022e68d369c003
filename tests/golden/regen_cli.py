"""Regenerate ``cli.txt``, the golden stdout of the CLI on the fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen_cli.py

The file holds, for every invocation in ``INVOCATIONS``, the command line,
its stdout and its exit code; ``tests/test_golden_cli.py`` replays them
in-process and compares byte for byte.  The golden file pins the CLI's
output across refactors, so a regenerated file is a change of output: say
in CHANGES.md what changed and why.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "cli.txt")

FIXTURES = ("a2", "a3_hereditary", "a3_relation", "dual_numbers", "kronecker", "pent")

# two (from, to) word pairs per fixture for ``hom --json --profile``
HOM_PAIRS = {
    "a2": (("a", "triv:1:+1@1"), ("triv:2:+1", "a")),
    "a3_hereditary": (("b*a", "a@1"), ("b", "triv:3:+1")),
    "a3_relation": (("b, a", "b@1"), ("a", "b, a")),
    "dual_numbers": (("x", "x@1"), ("triv:1:+1", "x")),
    "kronecker": (("a", "b@1"), ("b^-1, a", "triv:1:+1@-1")),
    "pent": (("c, b", "a@1"), ("d", "e, d@1")),
}

# further (from, to) pairs for ``alp --json``, beyond ``HOM_PAIRS``: double
# maps over direct and over inverse middle letters, and graph maps with an
# end component on the high and on the low flank
ALP_PAIRS = {
    "pent": (("a, d^-1", "c^-1, f"), ("d, a^-1", "f^-1, c"),
             ("a^-1", "b, a*f"), ("a", "a*f^-1, b^-1")),
}


def invocations() -> list[list[str]]:
    """Each invocation as CLI arguments, with fixture paths relative to the
    repository root."""
    out = []
    for name in FIXTURES:
        path = f"fixtures/{name}.gentle"
        for cmd in ("search", "cycles", "ag"):
            out.append([cmd, path, "--json"])
        for src, dst in HOM_PAIRS[name]:
            out.append(["hom", path, "--from", src, "--to", dst, "--json", "--profile"])
        for src, dst in HOM_PAIRS[name] + ALP_PAIRS.get(name, ()):
            out.append(["alp", path, "--from", src, "--to", dst, "--json"])
    return out


def run(argv: list[str]) -> str:
    """One invocation's record: command line, stdout, exit code."""
    from gentle.cli import main
    buf = io.StringIO()
    resolved = [os.path.join(ROOT, x) if x.startswith("fixtures/") else x for x in argv]
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return f"$ gentle {shlex.join(argv)}\n{buf.getvalue()}[exit {code}]\n"


def render() -> str:
    return "".join(run(argv) for argv in invocations())


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render())
    print(f"wrote {os.path.relpath(GOLDEN, ROOT)}", file=sys.stderr)
