"""Every `module.name` the README cites names something that exists.

A README that outlives a rename or a deletion points its reader at code
that is gone. Each backquoted reference to a ddsi module's attribute,
with or without the `ddsi.` prefix, must resolve by getattr.
"""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("kernels", "train", "model", "metrics", "mmr", "rng", "corpus", "helper", "fileio", "cli", "errors")
# `train.py` is a file, not an attribute
REFERENCE = re.compile(rf"`(?:ddsi\.)?({'|'.join(MODULES)})\.(?!py`)([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def unresolved(text: str) -> tuple[int, list[str]]:
    """How many references text cites, and those that do not resolve."""
    refs = REFERENCE.findall(text)
    missing = []
    for module, path in refs:
        obj = importlib.import_module(f"ddsi.{module}")
        try:
            for name in path.split("."):
                obj = getattr(obj, name)
        except AttributeError:
            missing.append(f"{module}.{path}")
    return len(refs), missing


def test_readme_references_resolve():
    count, missing = unresolved(README.read_text(encoding="utf-8"))
    assert count > 0
    assert missing == []


def test_unresolved_finds_a_deleted_name():
    text = "`kernels.add_rows_at`, `ddsi.helper.Helper`, `train.py`, `train.AdamHelper`, `model.gone.x`"
    assert unresolved(text) == (4, ["train.AdamHelper", "model.gone.x"])
