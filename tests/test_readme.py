"""The README's library quickstart runs and prints what it says it prints,
and its API section names every export of the package."""

import re
from pathlib import Path

import numpy as np

import credalmc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_values():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # Each line `expression  # -> expected` claims the expression's value.
    claims = re.findall(r"^(\S.*?)\s+# -> (.+)$", block, re.MULTILINE)
    assert [expected for _, expected in claims] == [
        "[0.3, 0.6]", "0.65, 0.28", "6", "True, 175"
    ]
    for expression, expected in claims:
        actual = eval(expression, namespace)
        np.testing.assert_allclose(
            np.asarray(actual, dtype=float),
            np.asarray(eval(expected), dtype=float),
            rtol=0,
            atol=1e-12,
            err_msg=expression,
        )


def test_library_api_lists_every_export():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library API", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`([^`]+)`", section)) == set(credalmc.__all__)
    # Each export has a line of its own, and only one.
    listed = re.findall(r"^- `(\w+)`:", section, re.MULTILINE)
    assert sorted(listed) == sorted(credalmc.__all__)
