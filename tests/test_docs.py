"""README.md and DESIGN.md cite the code; these tests keep every citation
real.

Each backticked span of either document is read for three kinds of name:

* a repo path (a span holding ``/`` or ending in a file suffix), resolved
  from the repository root, with ``path:line`` (or ``path:a-b``) checked
  against the file's length;
* a test node id (``tests/test_x.py::Class::name``): the file must define
  the name, read by AST with no collection;
* a dotted ``repro.*`` name, imported and then read with ``getattr``.

Neither document may name a pull request or grow past ``MAX_LINES``, and
a heading that ``src/`` or ``tests/`` cites (the document's file name, a
comma, the heading in double quotes) must exist.  The README's ``python``
blocks run, in order, in one namespace.
"""

import ast
import contextlib
import importlib
import io
import linecache
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md")
MAX_LINES = 400

FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
SPAN = re.compile(r"`([^`\n]+)`")
PATH = re.compile(r"^[\w./-]+/[\w./-]*(?::\d+(?:-\d+)?)?$"
                  r"|^[\w./-]+\.(?:py|md|json|txt|toml|max)(?::\d+(?:-\d+)?)?$")
NODE_ID = re.compile(r"^(tests/[\w/]+\.py)((?:::\w+)+)(?:\[[^\]]*\])?$")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
HEADING_CITE = re.compile(r"\b(README|DESIGN)\.md,? \"([^\"\n]+)\"")


def text(doc):
    return (ROOT / doc).read_text()


def spans(doc):
    """The backticked spans of *doc* outside fenced blocks."""
    return SPAN.findall(FENCE.sub("", text(doc)))


def headings(doc):
    return [line.lstrip("#").strip() for line in FENCE.sub("", text(doc)).splitlines()
            if line.startswith("#")]


def cited_paths(doc):
    return sorted({s for s in spans(doc) if PATH.match(s) and "::" not in s})


def cited_node_ids(doc):
    return sorted({s for s in spans(doc) if NODE_ID.match(s)})


def cited_names(doc):
    return sorted({m for s in spans(doc) for m in DOTTED.findall(s)})


def resolve_path(cite):
    path, _, lines = cite.partition(":")
    target = ROOT / path
    assert target.exists(), f"{path} does not exist"
    if lines:
        last = max(int(n) for n in lines.split("-"))
        length = len(target.read_text().splitlines())
        assert last <= length, f"{cite}: {path} has {length} lines"


def resolve_node_id(cite):
    path, names = NODE_ID.match(cite).groups()
    target = ROOT / path
    assert target.exists(), f"{path} does not exist"
    body = ast.parse(target.read_text()).body
    for name in names.split("::")[1:]:
        found = [n for n in body if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and n.name == name]
        assert found, f"{cite}: {path} defines no {name}"
        body = found[0].body


def resolve_name(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            assert hasattr(value, attr), f"{dotted}: no {attr} on {value!r}"
            value = getattr(value, attr)
        return
    raise AssertionError(f"{dotted}: no module of it imports")


@pytest.mark.parametrize("doc", DOCS)
def test_a_document_is_short_and_names_no_pull_request(doc):
    lines = text(doc).splitlines()
    assert len(lines) <= MAX_LINES, f"{doc} has {len(lines)} lines"
    assert not [line for line in lines if re.search(r"\bPR ?\d+", line)]


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_path_exists(doc):
    assert cited_paths(doc)
    for cite in cited_paths(doc):
        resolve_path(cite)


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_test_is_defined(doc):
    assert cited_node_ids(doc)
    for cite in cited_node_ids(doc):
        resolve_node_id(cite)


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_repro_name_resolves(doc):
    assert cited_names(doc)
    for dotted in cited_names(doc):
        resolve_name(dotted)


def test_every_heading_the_code_cites_exists():
    cites = [(path, doc, heading)
             for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
             for doc, heading in HEADING_CITE.findall(path.read_text())]
    assert len(cites) >= 3
    for path, doc, heading in cites:
        have = headings(f"{doc}.md")
        assert any(h == heading or h.startswith(heading + " ") for h in have), \
            f"{path.relative_to(ROOT)} cites {doc}.md, \"{heading}\", which has no such heading"


def run_block(body, index, namespace):
    """Run one README block under a file name ``linecache`` serves, so code
    that reads its own source (graph-break repair) sees the block."""
    name = f"<README.md python block {index}>"
    linecache.cache[name] = (len(body), None, body.splitlines(True), name)
    exec(compile(body, name, "exec"), namespace)


def test_the_readme_python_blocks_run():
    blocks = [body for lang, body in FENCE.findall(text("README.md")) if lang == "python"]
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        run_block(blocks[0], 0, namespace)
        # the quickstart's comment shows the code it prints
        lines = blocks[0].splitlines()
        at = next(i for i, line in enumerate(lines) if "print(traced.code)" in line)
        shown = []
        for line in lines[at + 1:]:
            if not line.startswith("# "):
                break
            shown.append(line[2:])
        assert shown and "\n".join(shown) == namespace["traced"].code.strip()
        for index, body in enumerate(blocks[1:], 1):
            run_block(body, index, namespace)
