"""The README's library example runs as written, so a public name or
signature it shows cannot change without this failing."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    # the example prints the clearances and the terminal error
    assert capsys.readouterr().out.strip()
