#!/usr/bin/env python3
"""Check that the repo's references to its markdown docs resolve.

Scans the given markdown files (default: README.md and docs/*.md) for
inline links and images ``[text](target)``.  External targets (http/https/
mailto) are skipped; every other target must name an existing file or
directory relative to the file containing the link (``#fragment`` suffixes
are ignored, pure-fragment links are accepted).

Python files (default: every ``.py`` file under src/, benchmarks/ and
examples/) are scanned for ``*.md`` names in docstrings and comments; each
must name an existing file relative to the repo root (``docs/harness.md``,
``README.md``), so a pointer to a deleted or renamed doc fails the check.

Exit status 0 when every reference resolves, 1 otherwise — suitable for CI.

Usage::

    python tools/check_doc_links.py [FILE.md | FILE.py ...]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown links/images: [text](target) / ![alt](target).  Nested
#: brackets and angle-bracket targets are out of scope for these docs.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: A ``*.md`` name mentioned in Python source (path characters only).
_MD_MENTION_RE = re.compile(r"[\w./-]*\w\.md\b")

#: Targets that are not filesystem paths.
_EXTERNAL = ("http://", "https://", "mailto:")

#: Directories whose Python files may only mention docs that exist.
_PY_DIRS = ("src", "benchmarks", "examples")


def iter_links(text: str):
    """Yield (line_number, target) for every inline markdown link."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        for match in _LINK_RE.finditer(line):
            yield line_no, match.group(1)


def check_file(path: Path) -> list:
    """Return a list of human-readable problems for one markdown file."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for line_no, target in iter_links(text):
        if target.startswith(_EXTERNAL):
            continue
        bare = target.split("#", 1)[0]
        if not bare:  # pure in-page fragment
            continue
        resolved = (path.parent / bare).resolve()
        if not resolved.exists():
            problems.append(f"{path}:{line_no}: broken link -> {target}")
    return problems


def check_py_file(path: Path, root: Path) -> list:
    """Return a problem for every ``*.md`` mention not resolving from ``root``."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        for mention in _MD_MENTION_RE.findall(line):
            if not (root / mention).exists():
                problems.append(
                    f"{path}:{line_no}: stale doc mention -> {mention}")
    return problems


def main(argv: list) -> int:
    root = Path(__file__).resolve().parent.parent
    if argv:
        files = [Path(arg) for arg in argv]
    else:
        files = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
        for name in _PY_DIRS:
            files.extend(sorted((root / name).rglob("*.py")))
    missing = [str(f) for f in files if not f.exists()]
    if missing:
        print("no such file(s): " + ", ".join(missing))
        return 1
    problems = []
    for path in files:
        if path.suffix == ".py":
            problems.extend(check_py_file(path, root))
        else:
            problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    checked = len(files)
    if problems:
        print(f"{len(problems)} broken reference(s) across {checked} file(s)")
        return 1
    print(f"all doc references resolve across {checked} file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
