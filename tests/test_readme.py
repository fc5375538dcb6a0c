import re
from pathlib import Path

import yaml

from rhflow import runio

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["traj"].termination == "blowup_threshold"
    assert abs(namespace["curvature_fields"](namespace["zoom"]).max_rm - 1.0) <= 1e-12


def test_readme_config_example_names_every_key():
    # the README's full config example parses and documents every config key
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    raw = yaml.safe_load(blocks[0])
    runio.parse_config(raw)
    assert set(raw) == runio._CONFIG_KEYS
