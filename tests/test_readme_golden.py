"""Golden output of the command-line examples in the README.

Every ``planarops ...`` line of the README's example block runs twice, as
written and with ``--format json``; an optional flag written ``[--flag]``
runs both without and with it.  ``verify`` is left out because its output
carries timings.  The exit code and the exact standard output must match
``tests/data/readme_golden.json``.

When an output change is intended, regenerate the data from the root of a
checkout with

    PYTHONPATH=src python3 tests/test_readme_golden.py
"""

import contextlib
import io
import json
import os
import shlex
from pathlib import Path

import pytest

from planarops.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "readme_golden.json"


def readme_commands():
    """argv lists of the README examples, in README order."""
    block = next(b for b in (ROOT / "README.md").read_text().split("```")
                 if "planarops enumerate" in b)
    out = []
    for line in block.replace("\\\n", " ").splitlines():
        tokens = shlex.split(line, comments=True)
        if not tokens or tokens[0] != "planarops" or tokens[1] == "verify":
            continue
        required = [t for t in tokens[1:] if not t.startswith("[")]
        optional = [t[1:-1] for t in tokens[1:] if t.startswith("[")]
        out.append(required)
        if optional:
            out.append(required + optional)
    return [argv + fmt for argv in out for fmt in ([], ["--format", "json"])]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return {"exit": code, "stdout": buf.getvalue()}


def capture():
    return {shlex.join(argv): run(argv) for argv in readme_commands()}


def test_golden_covers_the_readme():
    assert sorted(json.loads(GOLDEN.read_text())) == \
        sorted(shlex.join(argv) for argv in readme_commands())


@pytest.mark.parametrize("argv", readme_commands(), ids=shlex.join)
def test_readme_example_output(argv, monkeypatch):
    monkeypatch.chdir(ROOT)       # the README's fixture paths are relative
    assert run(argv) == json.loads(GOLDEN.read_text())[shlex.join(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
