"""The simulation path imports no scipy module.

``scipy.stats`` and ``scipy.interpolate`` alone cost well over a second
of start-up, paid by every process that runs a cell.  scipy stays a
dependency for trace analysis (``repro.workload.analysis``) and tests,
but loading any of these entry points must not pull it in.  The check
runs in a fresh interpreter: this test process has imported scipy
through other tests long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.experiments.runner",
    "repro.experiments.shard",
    "repro.experiments.figures",
)

CHILD = r"""
import importlib
import json
import sys

for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_entry_points_import_no_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, *ENTRY_POINTS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == [], (
        f"importing {', '.join(ENTRY_POINTS)} loaded scipy modules: "
        f"{', '.join(loaded)}")
