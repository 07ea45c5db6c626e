"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under the README's "## Library example" heading."""
    section = README.read_text(encoding="utf-8").split(
        "\n## Library example\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)^```", section, re.S | re.M).group(1)


def test_readme_library_example_runs(capsys):
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    u, result = scope["u"], scope["result"]
    assert len(result.diagnostics) == 1000
    assert u.min() >= 0.0
    assert max(d.ledger_residual for d in result.diagnostics) <= 1e-8
    assert "ledger residual:" in capsys.readouterr().out
