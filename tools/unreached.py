"""Print the lines of ``src/greenseq`` that the test suite never runs.

Run from anywhere, with pytest's arguments after the script (the default
is the whole suite, as tier-1 runs it)::

    python tools/unreached.py
    python tools/unreached.py tests/test_type_d.py

It runs pytest in this process under ``sys.settrace``, records each line
executed in a file under ``src/greenseq``, and prints, per module, the
executable lines (read off the compiled code objects) that no test
reached.  A function's ``def`` line counts as reached when the module
defines it.  Tests that run the CLI in a subprocess are not traced, so
code that only those tests reach is listed as unreached.  Tracing makes
the suite six to seven times slower.  Standard library and pytest only.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "greenseq"
PREFIX = str(PACKAGE) + "/"

hits: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(PREFIX):
        return _local
    return None


def executable_lines(path: Path) -> set[int]:
    """Every line that starts an instruction of the module's code objects,
    without each function's first line (its ``def`` or decorator)."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    top = stack[0]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code is not top:
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``3, 7-9, 12``."""
    out: list[str] = []
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line is not None and line == prev + 1:
            prev = line
            continue
        out.append(str(start) if start == prev else f"{start}-{prev}")
        if line is not None:
            start = prev = line
    return ", ".join(out)


def main(argv: list[str]) -> int:
    import pytest

    if "greenseq" in sys.modules:
        raise SystemExit("greenseq is already imported, so its module lines would be missed")
    sys.path.insert(0, str(ROOT / "src"))
    args = argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    print("\nUnreached lines (tests that run the CLI in a subprocess are not traced):")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - hits.get(str(path), set()))
        print(f"  {path.name}: {ranges(missed) if missed else '-'}")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
