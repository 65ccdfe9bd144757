"""List the statements of src/nccorr that the Tier-1 suite never executes.

    python tools/untested_lines.py [extra pytest arguments]

Runs `python -m pytest -q tests` from the repository root with a line tracer
(`sys.settrace`) in the pytest process and in every Python subprocess the
tests start: a temporary `sitecustomize.py`, put first on PYTHONPATH,
installs the tracer at start-up and writes the lines it saw when its process
exits.  The tests pass PYTHONPATH on to the processes they start, so those
load it too.  Statement lines come from `ast`: a simple statement counts as
executed if any of its lines ran, a compound one (def, class, if, for, ...)
if a line of its header did.  Docstrings and `global`/`nonlocal` run no
code and are not listed.

Prints `file:line: statement` for every statement that no process executed.
Exits 1 if any of them is not in ALLOWED, 2 if pytest failed, else 0.  Only
the standard library is used.  The suite runs about twice as slowly traced.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nccorr"

# (file, statement) pairs left untested on purpose, keyed by text so that
# they survive line shifts.  Both are the fallbacks, in verify.py, of seeded
# draws whose pinned seeds succeed on the first try.
ALLOWED = {
    ("verify.py", 'raise RuntimeError("could not draw a generic probability tensor")'),
    ("verify.py", 'raise RuntimeError("could not draw a nondegenerate-marginal state")'),
}

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_seen = set()


def _line(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_PREFIX) else None


@atexit.register
def _dump():
    with open(os.path.join(_OUT, "%d.txt" % os.getpid()), "a") as fh:
        fh.writelines("%s\\t%d\\n" % hit for hit in _seen)


sys.settrace(_call)
threading.settrace(_call)
'''


def _header(node: ast.stmt) -> Tuple[int, int]:
    """First and last line at which executing `node` can report itself."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return first, max(node.lineno, body[0].lineno - 1)
    return first, node.end_lineno or node.lineno


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def statements(path: Path) -> Iterator[Tuple[int, int, str]]:
    """(first, last header line, source text of the first line) per statement of path."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and not isinstance(node, (ast.Global, ast.Nonlocal)) and not _is_docstring(node):
            first, last = _header(node)
            yield first, last, lines[node.lineno - 1].strip()


def traced_run(pytest_args: List[str]) -> Tuple[int, Dict[str, Set[int]]]:
    """Run the suite under the tracer: pytest's exit code and the lines run per file of the package."""
    with tempfile.TemporaryDirectory(prefix="untested-lines-") as tmp:
        site, out = Path(tmp) / "site", Path(tmp) / "out"
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(prefix=str(PACKAGE) + os.sep, out=str(out)), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(site), env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests", *pytest_args]
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        seen: Dict[str, Set[int]] = {}
        for dump in out.iterdir():
            for row in dump.read_text(encoding="utf-8").splitlines():
                name, line = row.rsplit("\t", 1)
                seen.setdefault(name, set()).add(int(line))
    return code, seen


def untested(seen: Dict[str, Set[int]]) -> List[Tuple[str, int, str]]:
    """(file, line, statement) of every package statement that no traced line falls in."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = seen.get(str(path), set())
        for first, last, text in sorted(statements(path)):
            if not any(line in ran for line in range(first, last + 1)):
                missed.append((path.name, first, text))
    return missed


def main(argv: List[str]) -> int:
    code, seen = traced_run(argv)
    missed = untested(seen)
    for name, line, text in missed:
        note = "  (allowed)" if (name, text) in ALLOWED else ""
        print(f"src/nccorr/{name}:{line}: {text}{note}")
    unexpected = [m for m in missed if (m[0], m[2]) not in ALLOWED]
    print(f"{len(missed)} untested statements, {len(unexpected)} outside the allow-list")
    if code != 0:
        print(f"pytest exited {code}")
        return 2
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
