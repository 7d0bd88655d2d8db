"""Documentation references to tests name tests that exist, private names
in code spans name code that exists, graph names in code spans name
attributes of a graph, bare calls and code names name code or notation,
names written with a public owner are its attributes, one-word names after
a dot are attributes of a class or module of the package or of a builtin
type, cited sections of documents exist, links to documents resolve, the
README lists every document and its library tour runs."""

from __future__ import annotations

import ast
import builtins
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import planaralg
from planaralg import build_graph
from conftest import corpus_entry

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md", ROOT / "ROADMAP.md"]
REFERENCE = re.compile(r"tests/(\w+\.py)::(\w+)(?:::(\w+))?")
# Markdown link targets, read relative to the linking file, and plain
# mentions of docs/*.md, read relative to the repository root.
LINK = re.compile(r"\]\(([\w./-]+\.md)\)")
MENTION = re.compile(r"(?<![\w(/.-])docs/[\w.-]+\.md")
# Fenced blocks; code spans outside them, which may break across lines; and
# the names in a span that start with an underscore.
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`]+)`")
PRIVATE_NAME = re.compile(r"(?<!\w)_\w+")
# The name after `g.`, `graph.` or `BipartiteGraph.` in a span; a file name
# such as `graph.py` or `src/planaralg/graph.py` names no attribute.
GRAPH_NAME = re.compile(r"(?<![\w./])(?:g|graph|BipartiteGraph)\.(?!py\b)(\w+)")
# A bare call in a span: a name right before "(", not after a dot, such as
# `edges_down(dst d)`; and a document's notation block, the first fenced
# block after its "Notation" heading or paragraph.
BARE_CALL = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\(")
NOTATION = re.compile(r"^(?:## \d+\. |\*\*)Notation\b.*?^```\n(.*?)^```", re.MULTILINE | re.DOTALL)
# A name in a span, not after a slash or a hyphen and not the stem of a file
# name; it is a code name, such as `is_valid_loop` or the one in
# `step.output_degree`, when it has two or more "_"-separated parts of two or
# more characters, where math notation such as `S_k` or `sum_i` has at most
# one.
NAME = re.compile(r"(?<![\w/-])([A-Za-z_]\w*)(?!\w*\.(?:py|md|json)\b)")
# `Owner.name` in a span, such as `PlanarElement.support()` or
# `tangles.multiply`, not after a dot or a slash and not a file name.
QUALIFIED = re.compile(r"(?<![\w./])(\w+)\.(?!py\b)(\w+)")
# A cited section: "docs/<name>.md, section N", "[<name>.md](<name>.md) §N" or
# "section N of docs/<name>.md"; in a document, a bare "section N" or "§N"
# cites that document.  "sections N and M" and "§§N, M and P" cite each number.
CITATION = re.compile(
    r"(?:(?P<before>[\w-]+\.md)[`)]*,?[\s#]*)?"
    r"(?:sections?|§§?)\s*(?P<numbers>\d+(?:(?:,\s*|,?\s+and\s+)\d+)*)"
    r"(?:\s+of\s+[`\[]*(?:docs/)?(?P<after>[\w-]+\.md))?"
)
HEADING = re.compile(r"^## (\d+)\.", re.MULTILINE)
# A name of two or more characters right after a dot in a span, such as the
# one in `x.support()` or `rows(k).paths`, not a file extension; one letter
# after a dot is notation, such as `x.f` or `sigma.x`.
AFTER_DOT = re.compile(r"(?<=[\w)\]]\.)(?!(?:py|md|json)\b)([A-Za-z_]\w+)")


def is_code_name(name: str) -> bool:
    return sum(len(part) >= 2 for part in name.split("_")) >= 2


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


def defined_anywhere(paths) -> set[str]:
    """Every name a module defines: functions, classes, assignment targets,
    attributes assigned to and the entries of `__slots__`."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
                names.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    return names


def test_private_names_in_documents_exist():
    # A backticked `_extend` or `group._level(k)` in docs/*.md or
    # the README names code in src/ or tests/, so a rename or removal that
    # leaves a document behind fails here.
    defined = defined_anywhere([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])
    found = [
        (doc.name, name)
        for doc in [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md"]
        for span in CODE_SPAN.findall(FENCE.sub("", doc.read_text(encoding="utf-8")))
        for name in PRIVATE_NAME.findall(span)
    ]
    assert len(found) >= 10
    assert [(doc, name) for doc, name in found if name not in defined] == []


def test_graph_names_in_documents_exist():
    # A backticked `g.step(pos)`, `graph.unit` or `BipartiteGraph.rows(k)` in
    # docs/*.md or the README names an attribute of a built graph, so a
    # renamed or removed graph method fails here.  A bare call such as
    # `edges_down(dst d)` and a code name such as `is_valid_loop` name a
    # builtin, code in src/ or tests/, or notation listed in the document's
    # notation block, so a removed method named without `g.`, with or
    # without its parentheses, fails here too.
    g = build_graph(corpus_entry("C-in-C2").inclusion())
    defined = defined_anywhere([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")]) | set(dir(builtins))
    found, calls, names = [], [], []
    for doc in [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md"]:
        text = doc.read_text(encoding="utf-8")
        block = NOTATION.search(text)
        notation = set(BARE_CALL.findall(block.group(1))) if block else set()
        for span in CODE_SPAN.findall(FENCE.sub("", text)):
            found += [(doc.name, name) for name in GRAPH_NAME.findall(span)]
            calls += [(doc.name, name) for name in BARE_CALL.findall(span) if name not in notation]
            names += [(doc.name, name) for name in NAME.findall(span) if is_code_name(name) and name not in notation]
    assert len(found) >= 10 and len(calls) >= 10 and len(names) >= 100
    assert [(doc, name) for doc, name in found if not hasattr(g, name)] == []
    assert [(doc, name) for doc, name in calls + names if name not in defined] == []


def test_qualified_names_in_documents_exist():
    # A backticked `PlanarElement.support()` or `tangles.multiply` in
    # docs/*.md or the README, whose owner is a public name of the package
    # or one of its modules, names an attribute of that owner, so a removed
    # reader written with its owner fails here even when another class
    # defines the same name.  A graph's names are read on a built graph by
    # the test above.
    owners = {name: getattr(planaralg, name) for name in planaralg.__all__ if name != "BipartiteGraph"}
    owners.update(
        (name, importlib.import_module(f"planaralg.{name}"))
        for name in ("cli", "errors", "markov", "radical", "symmetry", "tangles")
    )
    found = [
        (doc.name, owner, name)
        for doc in [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md"]
        for span in CODE_SPAN.findall(FENCE.sub("", doc.read_text(encoding="utf-8")))
        for owner, name in QUALIFIED.findall(span)
        if owner in owners
    ]
    assert len(found) >= 5
    assert [(doc, owner, name) for doc, owner, name in found if not hasattr(owners[owner], name)] == []


def test_one_word_names_after_a_dot_are_attributes():
    # A one-word name after a dot, such as `x.support()` or `dims.blocks`,
    # is an attribute of a public class or module of the package or of a
    # builtin type, so a removed method read through a variable fails here,
    # even where a parameter or a test variable has its name.  Code names,
    # such as `x.is_zero()`, are checked by the name test above.
    modules = [
        importlib.import_module(f"planaralg.{m.name}")
        for m in pkgutil.iter_modules(planaralg.__path__)
        if m.name != "__main__"
    ]
    owners = [planaralg, *modules, *(v for v in vars(builtins).values() if isinstance(v, type))]
    owners += [
        value
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and not name.startswith("_") and value.__module__.startswith("planaralg")
    ]
    found = [
        (doc.name, name)
        for doc in [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md"]
        for span in CODE_SPAN.findall(FENCE.sub("", doc.read_text(encoding="utf-8")))
        for name in AFTER_DOT.findall(span)
        if not is_code_name(name)
    ]
    assert len(found) >= 20
    assert [(doc, name) for doc, name in found if not any(hasattr(owner, name) for owner in owners)] == []


def cited_sections() -> list[tuple[str, str | None, int]]:
    """(citing file, cited document or None, section number) for every
    section cited in src/, tests/ or docs/."""
    found = []
    code = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    for path in [*code, *sorted((ROOT / "docs").glob("*.md"))]:
        own = path.name if path.suffix == ".md" else None
        for match in CITATION.finditer(path.read_text(encoding="utf-8")):
            cited = match["before"] or match["after"] or own
            found += [(path.name, cited, int(n)) for n in re.findall(r"\d+", match["numbers"])]
    return found


def test_cited_sections_exist():
    # Sections are renumbered when one is added or dropped; every citation in
    # code, tests and documents must still name a "## N." heading of its
    # document.
    headings = {
        doc.name: {int(n) for n in HEADING.findall(doc.read_text(encoding="utf-8"))}
        for doc in (ROOT / "docs").glob("*.md")
    }
    found = cited_sections()
    assert len(found) >= 20
    assert {"symmetry.py", "test_symmetry.py", "element_oracle.py"} <= {path for path, _, _ in found}
    assert [(path, doc, n) for path, doc, n in found if n not in headings.get(doc, ())] == []


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


def test_readme_library_tour_runs():
    # The README's python blocks, in order, in one fresh interpreter, as a
    # reader pastes them: each block uses the names the ones before it set.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    paths = [str(Path(planaralg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    run = subprocess.run(
        [sys.executable, "-c", "".join(blocks)], capture_output=True, text=True, timeout=120, env=env
    )
    assert (run.returncode, run.stderr) == (0, "")
