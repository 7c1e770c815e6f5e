"""The README's library example runs as written and gives the value its
comment shows, so the entry points it imports stay."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_entry_points_run():
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    *setup, last = block.strip().splitlines()
    expression, shown = (part.strip() for part in last.split("#", 1))
    namespace = {}
    exec("\n".join(setup), namespace)
    assert eval(expression, namespace) == eval(shown, {"Fraction": Fraction})
    assert shown == "{'E1': Fraction(2, 5), 'E2': Fraction(1, 5)}"
