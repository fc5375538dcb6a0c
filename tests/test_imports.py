import os
import subprocess
import sys
from pathlib import Path

import rhflow

# Runs with one module blocked (sys.argv[1]): a None entry in sys.modules
# makes every `import <name>...` raise ImportError, so rhflow must neither
# import it at module level nor reach for it in the ball-volume fit or a
# flow run.  scipy is a test-only dependency; PyYAML is read only by
# runio.load_config, which neither of these paths calls.
SCRIPT = """
import importlib, math, pkgutil, sys
blocked = sys.argv[1]
sys.modules[blocked] = None
import numpy as np
import rhflow
for mod in pkgutil.iter_modules(rhflow.__path__):
    importlib.import_module("rhflow." + mod.name)
loaded = [key for key, value in sys.modules.items()
          if (key == blocked or key.startswith(blocked + ".")) and value is not None]
assert not loaded, loaded
from rhflow import Factor, Fiber, FlowConfig, HomogeneousState, Scenario, exact_state, run
from rhflow.analysis import ball_volume_expansion_fit
s3 = HomogeneousState(3, 0.0, (Factor(1.0, Fiber.ROUND_SPHERE, 3),))
c = ball_volume_expansion_fit(s3, np.linspace(0.05, 0.2, 7))
assert abs(c - 0.2) <= 0.02 * 0.2, c
scn = Scenario("shrinking_cylinder", 4, 0.0)
cfg = FlowConfig(scenario=scn.id, n=4, alpha=0.0, m=16, dt=1e-3, t_end=0.01)
traj = run(cfg, exact_state(scn, 0.0, 16))
assert traj.termination == "reached_t_end" and math.isfinite(traj.records[-1].monitor.max_rm)
print("ok")
"""


def run_blocked(name):
    src = str(Path(rhflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, name], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_rhflow_runs_without_scipy():
    run_blocked("scipy")


def test_rhflow_runs_without_yaml():
    run_blocked("yaml")
