"""The README's library example runs as written, so the documented API
cannot go stale unnoticed."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    A, x = namespace["A"], namespace["x"]
    assert x.shape == (A.rows,) and A.rows == A.cols
