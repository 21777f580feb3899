"""The README's library example and CLI examples run as shown, so the
package keeps every name and flag it documents."""

import re
import shlex
from pathlib import Path

from qcong import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.endswith(" pass") for line in lines)


def test_readme_cli_examples(capsys):
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "qcong", line
        assert cli.main(argv[1:]) == 0, line
        capsys.readouterr()
