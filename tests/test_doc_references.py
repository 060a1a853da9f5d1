"""Every backticked ``repro.…`` path in the docs names something real.

A deleted module or renamed function must not leave a stale row behind
in the README, the design inventory, the experiment log or ``docs/``.
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


def _doc_paths():
    found = set()
    for doc in DOCS:
        for span in SPAN.finditer(doc.read_text(encoding="utf-8")):
            match = PATH.match(span.group(1).strip())
            if match:
                found.add((doc.name, match.group(0)))
    return sorted(found)


def _resolves(path: str) -> bool:
    """Import the longest module prefix, then walk the attributes."""
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
