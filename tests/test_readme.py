"""README's examples run as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs(capsys):
    section = README.read_text().split("## Quickstart (API)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} Quickstart", "exec"), namespace)
    report = namespace["report"]
    assert capsys.readouterr().out == f"{report.objective} {report.r_false} {report.a_false}\n"
