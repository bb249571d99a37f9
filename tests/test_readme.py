"""README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block of README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = library_example()
    # The first word of each print's comment is the line it prints.
    expected = [
        line.split("#", 1)[1].split()[0] for line in code.splitlines() if line.startswith("print(")
    ]
    assert expected == ["234461.89", "SolverStatus.OPTIMAL", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    revenue, *rest = out.getvalue().splitlines()
    assert f"{float(revenue):.2f}" == expected[0]
    assert rest == expected[1:]
