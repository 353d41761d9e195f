"""The README's Quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # it prints the largest certificate of its run, which the default
    # step_tol bounds
    assert 0.0 <= float(capsys.readouterr().out.split()[-1]) <= 1e-6
