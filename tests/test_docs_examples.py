"""Every documented Python snippet executes; every documented link
resolves.

The docs promise that each fenced ```python block in README.md and
docs/*.md is runnable — this module collects them and runs them, one
shared namespace per file (so a later block can use an earlier
block's imports and variables, exactly as a reader would paste them).
Blocks run under a temporary working directory so a snippet that
writes files can never pollute the repo.

``tools/check_docs.py`` (link existence, architecture package
coverage, documents named in ``src/`` exist, Sphinx-role references
in ``src/`` resolve) is also exercised here so link rot fails tier-1,
not just the CI docs job.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_FENCE = re.compile(r"^```python\s*$")
_FENCE_END = re.compile(r"^```\s*$")


def _documented_files() -> list[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def _python_blocks(path: Path) -> list[tuple[int, str]]:
    """(start line, source) for every ```python fence in the file."""
    blocks = []
    lines = path.read_text().splitlines()
    i = 0
    while i < len(lines):
        if _FENCE.match(lines[i]):
            start = i + 2  # 1-indexed first line of the block body
            body = []
            i += 1
            while i < len(lines) and not _FENCE_END.match(lines[i]):
                body.append(lines[i])
                i += 1
            blocks.append((start, "\n".join(body)))
        i += 1
    return blocks


@pytest.mark.parametrize(
    "doc", _documented_files(), ids=lambda p: str(p.relative_to(REPO))
)
def test_documented_snippets_execute(doc, tmp_path, monkeypatch):
    blocks = _python_blocks(doc)
    if not blocks:
        pytest.skip(f"{doc.name} documents no python snippets")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": f"docs_{doc.stem}"}
    for start, source in blocks:
        code = compile(source, f"{doc.name}:{start}", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs


def test_docs_site_is_complete():
    """The four guides exist and cross-link from the README."""
    for guide in ("architecture", "operations", "benchmarks", "scenarios"):
        assert (REPO / "docs" / f"{guide}.md").exists(), guide
    readme = (REPO / "README.md").read_text()
    for guide in ("architecture", "operations", "benchmarks", "scenarios"):
        assert f"docs/{guide}.md" in readme, f"README must link docs/{guide}.md"


def _check_docs_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_docs_lint_is_clean(capsys):
    """tools/check_docs.py: links resolve, every package documented,
    every document named in src/ exists, every code reference in src/
    resolves."""
    module = _check_docs_module()
    rc = module.main()
    captured = capsys.readouterr()
    assert rc == 0, f"docs lint failed:\n{captured.err}"
    packages = module.repro_packages()
    assert "repro.streaming" in packages and "repro.obs" in packages


def test_check_docs_flags_a_dangling_code_reference(tmp_path, monkeypatch):
    """A reference to a name that does not exist fails the lint; a
    wrapped reference to one that does passes."""
    module = _check_docs_module()
    planted = tmp_path / "src" / "planted.py"
    planted.parent.mkdir()
    planted.write_text(
        '"""See :func:`~repro.model.instance.build_problem_gone` and\n'
        ':class:`~repro.geo.spatial_index.\n    SpatialIndex`."""\n'
    )
    monkeypatch.setattr(module, "REPO", tmp_path)
    assert module.check_code_references() == [
        "src/planted.py: dangling reference repro.model.instance.build_problem_gone"
    ]
