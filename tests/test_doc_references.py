"""The docs cite only files and CLI commands that exist.

Every backticked ``*.py`` reference in README.md, DESIGN.md,
EXPERIMENTS.md and ``docs/*.md`` (inline spans and fenced blocks) must
name a file whose basename exists under one of the source trees, and
every ``repro <name>`` / ``python -m repro <name>`` must name a
registered experiment or one of the CLI's own verbs.  A module or
experiment that is deleted or renamed then fails here until its
mentions are updated.
"""

import pathlib
import re

import pytest

from repro.experiments import REGISTRY

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
SOURCE_TREES = ("src", "tests", "perfbench", "scripts", "examples")
CLI_VERBS = {"all", "list", "bench"}

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_COMMAND = re.compile(
    r"(?<!from )(?<!import )(?<![\w./-])repro\s+([a-z][\w-]*)"
)


def code_chunks(text):
    """The fenced blocks, then the inline spans outside them."""
    return _FENCE.findall(text) + _SPAN.findall(_FENCE.sub("", text))


def python_files(chunk):
    """Every whitespace-separated token of ``chunk`` naming a ``.py`` file
    (a ``::test`` suffix or trailing punctuation dropped)."""
    for token in chunk.split():
        token = token.split("::")[0].rstrip(",.;:)")
        if token.endswith(".py"):
            yield token


def repro_commands(chunk):
    """The ``<name>`` of every ``repro <name>`` in ``chunk``."""
    return _COMMAND.findall(chunk)


def _known_basenames():
    return {
        path.name
        for tree in SOURCE_TREES
        for path in (ROOT / tree).rglob("*.py")
    }


def test_extractors_see_both_kinds_of_reference():
    text = (
        "Run `python -m repro overhead` or\n\n"
        "```bash\nrepro fig8 --duration 30\n```\n\n"
        "see `src/repro/experiments/scheduling_overhead.py`, "
        "`tests/x.py::TestY::test_z` and `from repro import wire`."
    )
    chunks = code_chunks(text)
    assert [f for c in chunks for f in python_files(c)] == [
        "src/repro/experiments/scheduling_overhead.py",
        "tests/x.py",
    ]
    assert [n for c in chunks for n in repro_commands(c)] == [
        "fig8",
        "overhead",
    ]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_python_file_references_exist(doc):
    known = _known_basenames()
    missing = [
        path
        for chunk in code_chunks(doc.read_text())
        for path in python_files(chunk)
        if path.rsplit("/", 1)[-1] not in known
    ]
    assert not missing, f"{doc.name} cites files that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_repro_commands_are_registered(doc):
    allowed = set(REGISTRY) | CLI_VERBS
    unknown = [
        name
        for chunk in code_chunks(doc.read_text())
        for name in repro_commands(chunk)
        if name not in allowed
    ]
    assert not unknown, f"{doc.name} runs unknown experiments: {unknown}"
