"""Documentation references to tests name tests that exist, links to
documents resolve, and the README lists every document."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md", ROOT / "ROADMAP.md"]
REFERENCE = re.compile(r"tests/(\w+\.py)::(\w+)(?:::(\w+))?")
# Markdown link targets, read relative to the linking file, and plain
# mentions of docs/*.md, read relative to the repository root.
LINK = re.compile(r"\]\(([\w./-]+\.md)\)")
MENTION = re.compile(r"(?<![\w(/.-])docs/[\w.-]+\.md")


def references() -> list[tuple[str, str, str, str | None]]:
    """(document, file, class or function, test or None) for every reference."""
    found = []
    for doc in DOCUMENTS:
        for match in REFERENCE.finditer(doc.read_text(encoding="utf-8")):
            found.append((doc.name, *match.groups()))
    return found


def defined_names(path: Path) -> dict[str, set[str]]:
    """Top-level classes and functions of a test file, each with the
    functions defined directly in its body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name: {item.name for item in node.body if isinstance(item, functions)}
        for node in tree.body
        if isinstance(node, (ast.ClassDef, *functions))
    }


def test_references_are_found():
    # The scan is not vacuous: the proofs in docs/ cite their tests.
    assert len(references()) >= 10


def test_referenced_tests_exist():
    found = references()
    tests = ROOT / "tests"
    names = {f: defined_names(tests / f) for f in {r[1] for r in found} if (tests / f).is_file()}
    missing = [
        (doc, file, name, test)
        for doc, file, name, test in found
        if name not in names.get(file, {}) or (test is not None and test not in names[file][name])
    ]
    assert missing == []


def test_document_links_resolve():
    found = []
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = doc.read_text(encoding="utf-8")
        found += [(doc.name, doc.parent / target) for target in LINK.findall(text)]
        found += [(doc.name, ROOT / mention) for mention in MENTION.findall(text)]
    assert len(found) >= 10
    assert [(name, path) for name, path in found if not path.is_file()] == []


def test_readme_layout_lists_every_document():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    # The entries indented under the docs/ line, up to the next top-level one.
    section = re.search(r"^docs/\n((?:[ \t]+.*\n)*)", layout, re.MULTILINE).group(1)
    listed = re.findall(r"^[ \t]+([\w.-]+\.md)", section, re.MULTILINE)
    assert sorted(listed) == sorted(doc.name for doc in (ROOT / "docs").glob("*.md"))
