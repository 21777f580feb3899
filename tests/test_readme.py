"""The README's library example runs as shown, so the package keeps
every name it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.endswith(" pass") for line in lines)
