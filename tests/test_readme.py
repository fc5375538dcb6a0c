import math
import re
from pathlib import Path

import pytest
import yaml

from rhflow import runio
from rhflow.flow import run
from rhflow.oracles import default_scenario, scenario_run

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


def test_readme_dt_cap_example_is_set_by_the_cfl_bound():
    # the step-control text's example: a dt cap above the default CFL bound,
    # so the bound sets every step but the last, which lands on t_end
    text = " ".join(README.read_text().split())
    m, dt, steps, t_end, capped, bound = re.search(
        r"A shrinking_cylinder run with `m: (\d+)` and `dt: (\S+)` therefore takes (\d+) "
        r"steps to t=([\d.]+), not (\d+): its CFL bound is ([\d.]+e-\d+)\.", text).groups()
    cfg, initial = scenario_run(default_scenario("shrinking_cylinder"), m=int(m), dt=float(dt),
                                t_end=float(t_end))
    cfl = cfg.c_cfl * initial.stable_dt()
    assert cfl == pytest.approx(float(bound), rel=0.05) and cfl < cfg.dt
    assert round(cfg.t_end / cfg.dt) == int(capped)
    traj = run(cfg, initial)
    assert traj.termination == "reached_t_end"
    assert traj.steps == int(steps) == math.ceil(cfg.t_end / cfl)
