"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    # The example's loop body is an ellipsis line; give it a statement to run.
    code = block.replace("    ...\n", "    pass\n")
    assert "    pass\n" in code
    exec(compile(code, str(README), "exec"), {})
