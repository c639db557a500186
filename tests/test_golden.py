"""Golden outputs: every file written by a fixed set of CLI runs.

``golden/outputs.json`` holds the SHA-256 digest, the size and the numbers
of each file those runs write, with the Python, numpy and scipy versions
that made it. A JSON file's numbers are keyed by their path in the document
(``config.seed``, ``re.0.3``); a CSV file's are listed in order. A change
that moves output bytes regenerates the fixture in the same commit and
records which files moved and by how much. Regenerate with

    PYTHONPATH=src python tests/test_golden.py --regen

which prints, before it overwrites the fixture, the same list of moved,
added and removed files that this test fails with.

The bootstrap is left out: one bootstrapped ``tomo`` run costs about as much
as all the runs below together.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from mstomo import cli

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).with_name("golden") / "outputs.json"
CONFIGS = {name: str(ROOT / "configs" / f"{name}.cfg") for name in ("noisy", "ideal")}

# (output directory, argv); paths are relative to the run directory, so the
# "source" that analyze records does not depend on where the runs happen
RUNS = [
    *((name, ["tomo", "--config", cfg, "--state", state, "--no-bootstrap",
              "--emit-intermediate"])
      for name, cfg in CONFIGS.items() for state in ("uu", "ud")),
    *((name, ["scan", kind, "--config", cfg])
      for name, cfg in CONFIGS.items() for kind in ("detuning", "time")),
    ("noisy", ["budget", "--config", CONFIGS["noisy"]]),
    ("analyze", ["analyze", "--density", "noisy/tomo_uu_density.json",
                 "--state", "uu"]),
]

# a number in a CSV file, not glued to an identifier (the 1 of "basis_q1"
# is not one)
_NUMBER = re.compile(rb"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_golden(workdir: Path) -> dict[str, bytes]:
    """Run every golden CLI call inside ``workdir``; {relative path: bytes}."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for out, argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", out])
            if code != 0:
                raise RuntimeError(f"mstomo {' '.join(argv)} exited {code}")
    finally:
        os.chdir(cwd)
    return {path.relative_to(workdir).as_posix(): path.read_bytes()
            for path in sorted(workdir.rglob("*")) if path.is_file()}


def json_numbers(value, path: str = "") -> dict:
    """{key path: number} for every int and float of a parsed JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return {path: value}
    else:
        return {}
    numbers = {}
    for key, item in items:
        numbers.update(json_numbers(item, f"{path}.{key}" if path else str(key)))
    return numbers


def describe(name: str, data: bytes) -> dict:
    numbers = (json_numbers(json.loads(data)) if name.endswith(".json")
               else [float(x) for x in _NUMBER.findall(data)])
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data),
            "numbers": numbers}


def _change(old: dict, new: dict, path: str) -> str:
    return f"{abs(new[path] - old[path]):.3g} at {path} ({old[path]!r} -> {new[path]!r})"


def numeric_change(old, new) -> str:
    """How two files' numbers differ, in words.

    CSV numbers are compared by position. JSON numbers are compared by key
    path: removed and added paths, then the largest change over the shared
    ones; when that one is an integer counter (an iteration count, say),
    also the largest change among the other numbers.
    """
    if isinstance(old, list):
        if len(old) != len(new):
            return f"number count {len(old)} -> {len(new)}"
        if not old:
            return "no numbers"
        diff = np.abs(np.array(new) - np.array(old))
        k = int(np.argmax(diff))
        return (f"largest numeric change {diff[k]:.3g} "
                f"(number {k}: {old[k]!r} -> {new[k]!r})")
    parts = [f"{verb} {', '.join(sorted(paths))}" for verb, paths in
             (("removed", old.keys() - new.keys()), ("added", new.keys() - old.keys()))
             if paths]
    moved = sorted((p for p in sorted(old.keys() & new.keys()) if old[p] != new[p]),
                   key=lambda p: abs(new[p] - old[p]), reverse=True)
    if moved:
        parts.append("largest change " + _change(old, new, moved[0]))
        floats = [p for p in moved
                  if not (isinstance(old[p], int) and isinstance(new[p], int))]
        if floats and floats[0] != moved[0]:
            parts.append("largest non-integer change " + _change(old, new, floats[0]))
    return "; ".join(parts) or "no number moved"


def changes(expected: dict, actual: dict) -> list[str]:
    """One line per file that moved, or is written or no longer written."""
    lines = [f"{name}: no longer written (was {expected[name]['size']} bytes)"
             for name in expected if name not in actual]
    lines += [f"{name}: not in the fixture ({actual[name]['size']} bytes)"
              for name in actual if name not in expected]
    for name in sorted(set(expected) & set(actual)):
        old, new = expected[name], actual[name]
        if old["sha256"] != new["sha256"]:
            lines.append(f"{name}: {old['size']} -> {new['size']} bytes, "
                         + numeric_change(old["numbers"], new["numbers"]))
    return lines


def test_golden_outputs_are_unchanged(tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    actual = {name: describe(name, data)
              for name, data in run_golden(tmp_path).items()}
    problems = changes(fixture["files"], actual)
    assert not problems, (
        f"golden outputs changed (fixture made with {fixture['versions']}, "
        f"now {versions()}):\n" + "\n".join(problems))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: describe(name, data)
                 for name, data in run_golden(Path(tmp)).items()}
    previous = (json.loads(FIXTURE.read_text())["files"]
                if FIXTURE.exists() else {})
    for line in changes(previous, files) or ["no file moved"]:
        print(line)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"versions": versions(), "files": files},
                                  indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(files)} files)")
