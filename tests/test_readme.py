"""README.md states the package's contract; the docstrings state the mechanism."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_no_private_symbol():
    # a private name is mechanism: its docstring states it, and it may change.
    # Two characters at least: a subscript such as ||S||_F is not a name.
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"(?<!\w)_[A-Za-z]\w+", text) == []
