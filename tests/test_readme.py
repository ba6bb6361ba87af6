"""The README's "Library layout" bullets name only things the library has.

Each bullet opens with a backticked `plbandit.<module>`. Every other backticked
identifier on that bullet must be an attribute of the module; a trailing `*`
makes it a name prefix that some attribute must start with. A backticked
dotted `plbandit.*` name must import. Backticked text that is not a name
(such as `plbandit verify`) is prose and is not checked.
"""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*\*?")
MODULE = re.compile(r"plbandit(\.[A-Za-z_]\w*)+")


def layout_bullets() -> dict[str, list[str]]:
    """Backticked names per `plbandit.<module>` bullet of the "Library layout" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for bullet in re.split(r"\n(?=- )", section.strip().split("\n\n", 1)[0]):
        names = re.findall(r"`([^`]+)`", bullet)
        assert bullet.startswith("- ") and MODULE.fullmatch(names[0]), bullet
        bullets[names[0]] = names[1:]
    return bullets


def test_layout_lists_every_module():
    assert set(layout_bullets()) == {
        f"plbandit.{name}" for name in ["model", "estimators", "csc", "continuous", "simulator", "verify"]
    }


@pytest.mark.parametrize("module", sorted(layout_bullets()))
def test_layout_names_exist(module):
    attributes = dir(importlib.import_module(module))
    for name in layout_bullets()[module]:
        if MODULE.fullmatch(name):
            importlib.import_module(name)
        elif IDENTIFIER.fullmatch(name):
            if name.endswith("*"):
                assert any(a.startswith(name[:-1]) for a in attributes), f"{module} has no name {name}"
            else:
                assert name in attributes, f"{module} has no attribute {name}"
