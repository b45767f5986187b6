"""Mutation runner: shows that the tests named for each mutant can fail.

    python3 mutants/run.py               # every mutant, a few seconds each

``mutants.json`` lists the mutants.  Each is one exact source edit:
``file`` (a path under ``src/``), ``old`` text that must occur there
exactly once, its replacement ``new``, the pytest node ids in ``tests``
expected to catch it, and the invariant it ``guards``.

The runner first runs every named test on an unmutated copy of ``src/``;
if any fails there, no mutant can show anything and the run fails.  Then,
for each mutant, it copies ``src/`` to a temporary directory, applies the
edit to the copy and runs only the named tests from the repository root,
with ``PYTHONPATH`` set to the copy and pytest's own ``pythonpath``
setting cleared, so the repository's ``src/`` is never imported.  A
mutant is caught when pytest reports a failed test (exit status 1).  One
that survives, whose copy fails to collect, whose tests time out, or
whose ``old`` text does not occur exactly once (a stale mutant) fails the
run: none is skipped.  The exit status is 0 only if every mutant is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MUTANTS = HERE / "mutants.json"
KEYS = ("name", "file", "old", "new", "tests", "guards")
TIMEOUT_S = 600


def load(path: Path = MUTANTS) -> list[dict]:
    """The mutants of ``path``, in file order."""
    return json.loads(path.read_text())


def stale(mutant: dict, root: Path = ROOT) -> str | None:
    """Why ``mutant`` cannot be applied to the source under ``root``, or ``None`` if it can."""
    if sorted(mutant) != sorted(KEYS):
        return f"needs exactly the keys {', '.join(KEYS)}"
    if not mutant["file"].startswith("src/") or not mutant["tests"] or mutant["old"] == mutant["new"]:
        return "needs a file under src/, a named test and an edit that changes the text"
    source = root / mutant["file"]
    if not source.is_file():
        return f"{mutant['file']} does not exist"
    count = source.read_text().count(mutant["old"])
    if count != 1:
        return f"its old text occurs {count} times in {mutant['file']}"
    return None


def pytest(tests: list[str], mutant: dict | None = None, root: Path = ROOT) -> tuple[int | None, str]:
    """``(exit status, last output line)`` of ``tests`` run on a copy of ``root``'s ``src/``.

    The copy carries ``mutant``'s edit if one is given; the status is
    ``None`` if the tests ran past ``TIMEOUT_S``.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(root / "src", Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = Path(tmp) / mutant["file"]
            target.write_text(target.read_text().replace(mutant["old"], mutant["new"]))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", "pythonpath=", *tests]
        try:
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s"
    return done.returncode, (done.stdout.strip().splitlines()[-1:] or ["no output"])[0]


def baseline(mutants: list[dict], root: Path = ROOT) -> tuple[bool, str]:
    """``(passed, detail)`` for every test the mutants name, run on an unmutated copy."""
    status, last = pytest(sorted({t for m in mutants for t in m["tests"]}), root=root)
    return status == 0, last


def run(mutant: dict, root: Path = ROOT) -> tuple[bool, str]:
    """``(caught, detail)`` for ``mutant`` applied to a copy of ``root``'s ``src/``."""
    why = stale(mutant, root)
    if why is not None:
        return False, f"stale: {why}"
    status, last = pytest(mutant["tests"], mutant, root)
    if status == 1:
        return True, last
    if status == 0:
        return False, f"survived: {last}"
    return False, last if status is None else f"pytest exit status {status}: {last}"


def main() -> int:
    mutants = load()
    passed, detail = baseline(mutants)
    print(f"{'ok' if passed else 'FAIL':4} unmutated source: {detail}", flush=True)
    if not passed:
        return 1
    ok = True
    for mutant in mutants:
        caught, detail = run(mutant)
        ok &= caught
        print(f"{'ok' if caught else 'FAIL':4} {mutant['name']}: {detail}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
