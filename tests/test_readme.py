import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_api_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "README should hold exactly one python example"
    exec(compile(blocks[0], str(README), "exec"), {})
