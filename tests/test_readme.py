"""The README's Python examples run as written and its JSON configs load, so
a signature or config-key change that leaves them stale fails the suite."""

import re
from pathlib import Path

from hcransim import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_json_blocks_load_as_configs(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for n, block in enumerate(blocks):
        path = tmp_path / f"config{n}.json"
        path.write_text(block)
        load_config(path)
