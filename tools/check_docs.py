#!/usr/bin/env python
"""Docs lint: links resolve, the architecture guide covers the code.

Four checks, all cheap enough for every CI run:

1. **Link existence** — every relative markdown link in README.md,
   EXPERIMENTS.md and docs/*.md must point at a file or directory
   that exists in the repo. External links (http/https/mailto),
   pure anchors, and GitHub-UI links that resolve outside the repo
   root (the CI badge's ``../../actions/...``) are skipped.
2. **Architecture coverage** — every package under ``src/repro/``
   (any directory with an ``__init__.py``) must be named in
   ``docs/architecture.md`` by its dotted import path, so new
   subsystems cannot land undocumented.
3. **Source references** — every ``*.md`` filename named in a
   ``src/`` file must exist, at the repo root or under ``docs/``
   (a path with a directory resolves from the repo root), so a
   docstring cannot send its reader to a document that is not there.
4. **Code references** — every Sphinx-role reference to a ``repro``
   name in a ``src/`` file (``:func:``, ``:class:``, ``:meth:``,
   ``:data:``, ``:attr:`` or ``:mod:`` followed by a backticked
   ``repro.`` path, ``~`` prefix allowed, line breaks inside the
   backticks ignored) must resolve: the longest importable module
   prefix, then ``getattr`` for the rest.  A deleted or renamed name
   cannot leave docstrings pointing at it.

Exit status 0 when clean, 1 with one line per violation — the CI
docs job runs this before executing the documented snippets
(tests/test_docs_examples.py).
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Markdown files whose links must resolve.
LINKED_FILES = ("README.md", "EXPERIMENTS.md")

#: [text](target) — target captured up to the closing paren.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Targets that are never filesystem paths.
_EXTERNAL = ("http://", "https://", "mailto:")


def _markdown_files() -> list[Path]:
    files = [REPO / name for name in LINKED_FILES]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links() -> list[str]:
    errors = []
    for path in _markdown_files():
        for match in _LINK.finditer(path.read_text()):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.is_relative_to(REPO):
                continue  # GitHub-UI link (e.g. the CI badge)
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(REPO)}: broken link -> {target}"
                )
    return errors


def repro_packages() -> list[str]:
    """Dotted names of every package under src/repro (root excluded)."""
    root = REPO / "src" / "repro"
    names = []
    for init in sorted(root.rglob("__init__.py")):
        package = init.parent
        if package == root:
            continue
        names.append("repro." + ".".join(package.relative_to(root).parts))
    return names


def check_architecture_coverage() -> list[str]:
    doc = REPO / "docs" / "architecture.md"
    if not doc.exists():
        return ["docs/architecture.md is missing"]
    text = doc.read_text()
    return [
        f"docs/architecture.md: package `{name}` is not documented"
        for name in repro_packages()
        if name not in text
    ]


#: A markdown filename, optionally with a relative directory.
_MD_NAME = re.compile(r"[\w./-]+\.md\b")


def check_source_references() -> list[str]:
    errors = []
    for path in sorted((REPO / "src").rglob("*.py")):
        for name in sorted(set(_MD_NAME.findall(path.read_text()))):
            if not ((REPO / name).exists() or (REPO / "docs" / name).exists()):
                errors.append(
                    f"{path.relative_to(REPO)}: names missing document {name}"
                )
    return errors


#: A Sphinx-role reference to a ``repro`` name; the path may wrap lines.
_CODE_REF = re.compile(r":(?:func|class|meth|data|attr|mod):`~?(repro\.[\w.\s]+?)`")


def resolve_reference(dotted: str) -> bool:
    """True when ``dotted`` names an importable module or an attribute
    reachable from one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def code_references(path: Path) -> list[str]:
    """Every ``repro.`` path a Sphinx role in ``path`` names."""
    return [
        re.sub(r"\s+", "", match.group(1))
        for match in _CODE_REF.finditer(path.read_text())
    ]


def check_code_references() -> list[str]:
    """Dangling references; ``repro`` must be importable."""
    errors = []
    for path in sorted((REPO / "src").rglob("*.py")):
        for dotted in sorted(set(code_references(path))):
            if not resolve_reference(dotted):
                errors.append(
                    f"{path.relative_to(REPO)}: dangling reference {dotted}"
                )
    return errors


def main() -> int:
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    errors = (
        check_links()
        + check_architecture_coverage()
        + check_source_references()
        + check_code_references()
    )
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(
        f"check_docs: {len(_markdown_files())} files linked cleanly, "
        f"{len(repro_packages())} packages covered"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
