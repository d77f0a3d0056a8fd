import re
from pathlib import Path

from ellipose import PoseEstimate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    # the first code block of the README's library quick start runs as
    # printed and ends with a pose estimate
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert isinstance(namespace["est"], PoseEstimate)
