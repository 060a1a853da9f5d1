"""Every backticked ``repro.…`` path and repository file in the docs is real.

A deleted module, renamed function, retired bench or removed JSON file
must not leave a stale row behind in the README, the design inventory,
the experiment log or ``docs/``.  File paths (``*.py``, ``*.json``,
``*.sh``, ``*.yml``, optionally followed by ``::test`` or ``:line``)
resolve against the repository root or, for the module-relative paths
the architecture notes use, against ``src/repro``.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
SPAN = re.compile(r"`+([^`]+?)`+")
PATH = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
FILE = re.compile(r"([\w.-]+(?:/[\w.-]+)*\.(?:py|json|sh|yml))(?::\S*)?")
# A CI artifact the docs name: a run writes it, the repository does not
# hold it.
RUN_OUTPUTS = {"chaos_report.json"}


def _doc_paths():
    found = set()
    for doc in DOCS:
        for span in SPAN.finditer(doc.read_text(encoding="utf-8")):
            text = span.group(1).strip()
            match = PATH.match(text)
            if match:
                found.add((doc.name, match.group(0)))
            match = FILE.fullmatch(text)
            if match and match.group(1) not in RUN_OUTPUTS:
                found.add((doc.name, match.group(1)))
    return sorted(found)


def _resolves(path: str) -> bool:
    """A file path must exist; a dotted path imports its longest module
    prefix, then walks the attributes."""
    if FILE.fullmatch(path):
        return any((base / path).is_file()
                   for base in (ROOT, ROOT / "src" / "repro"))
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docs_mention_repro_paths():
    assert len(_doc_paths()) > 20


@pytest.mark.parametrize("doc, path", _doc_paths())
def test_doc_reference_resolves(doc, path):
    assert _resolves(path), f"{doc} names {path}, which does not exist"
