"""``import glspace`` and the CLI commands leave scipy.integrate unloaded;
the density twins load it on their first moment or sample."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# one fresh interpreter, its input files in argv[1]: which stages have
# scipy.integrate loaded, as JSON
SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

import numpy as np

def loaded():
    return "scipy.integrate" in sys.modules

seen = {}
import glspace, glspace.cli
from glspace.models import gaussian_density_model, uniform01_density_model
seen["import"] = loaded()

tmp = Path(sys.argv[1])
np.savetxt(tmp / "sample.txt", np.random.default_rng(1).standard_normal(300))
(tmp / "f.txt").write_text("1 0.5 -0.25 2")
(tmp / "g.txt").write_text("0.5 1 0 -1")
psi = "power_slowvary(r=2, delta=0.5)"
commands = [
    ["norm", "--model", "gaussian", "--psi", psi],
    ["norm", "--model", f"empirical:{tmp / 'sample.txt'}", "--psi", psi,
     "--set", "intervals:1-3,9-inf", "--grid", "geometric:D=2:M=4"],
    ["tail", "--model", "exponential", "--psi", psi, "--grid", "integers:M=20", "--n", "2000", "--seed", "3"],
    ["convolve", "--group", "cyclic:4", str(tmp / "f.txt"), str(tmp / "g.txt")],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        codes.append(glspace.cli.main(argv))
seen["cli"] = loaded()

gaussian_density_model().lp_norm(2.0)
uniform01_density_model().sample_values(8, 0)
seen["density"] = loaded()
print(json.dumps({"seen": seen, "codes": codes}))
"""


def test_scipy_integrate_loads_only_with_a_density_model(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0, 0]
    assert got["seen"] == {"import": False, "cli": False, "density": True}
