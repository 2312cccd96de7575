"""The README's Python examples run against the library as it is: every
```python block is executed in order in one namespace, and each line
that prints and ends in a comment must print that comment."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_examples_print_what_their_comments_say(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        expected = [
            line.split("#", 1)[1].strip()
            for line in block.splitlines()
            if line.startswith("print(") and "#" in line
        ]
        assert capsys.readouterr().out.splitlines() == expected
