"""``import glspace`` and the CLI commands that need no Gaussian or
exponential model load no SciPy; building one of those two models loads
scipy.special.  The package never loads scipy.integrate: no CLI command
and no model that model_from_spec builds, sampled and asked for moments,
imports it, and no exported name is a density model."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# one fresh interpreter, its input files in argv[1] and the closed-form
# model it builds in argv[2]: which SciPy modules each stage has loaded,
# as JSON
SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def loaded(name):
    return name in sys.modules

seen = {}
import glspace, glspace.cli
from glspace.models import exponential_model, gaussian_model, sample
from glspace.specs import model_from_spec
seen["import"] = scipy_modules()

tmp = Path(sys.argv[1])
np.savetxt(tmp / "sample.txt", np.random.default_rng(1).standard_normal(300))
(tmp / "f.txt").write_text("1 0.5 -0.25 2")
(tmp / "g.txt").write_text("0.5 1 0 -1")
psi = "power_slowvary(r=2, delta=0.5)"
numpy_commands = [
    ["convolve", "--group", "cyclic:4", str(tmp / "f.txt"), str(tmp / "g.txt")],
    ["verify", "--suite", "algebra", "--seed", "1"],
    ["verify", "--suite", "young", "--seed", "1"],
    ["norm", "--model", f"empirical:{tmp / 'sample.txt'}", "--psi", psi,
     "--set", "intervals:1-3,9-inf", "--grid", "geometric:D=2:M=4"],
    ["norm", "--model", "uniform01", "--psi", psi],
]
commands = [
    ["norm", "--model", "gaussian", "--psi", psi],
    ["tail", "--model", "exponential", "--psi", psi, "--grid", "integers:M=20", "--n", "2000", "--seed", "3"],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in numpy_commands:
        codes.append(glspace.cli.main(argv))
    seen["numpy_cli"] = scipy_modules()
    {"gaussian": gaussian_model, "exponential": exponential_model}[sys.argv[2]]()
    seen["closed_form"] = [loaded("scipy.special"), loaded("scipy.integrate")]
    for argv in commands:
        codes.append(glspace.cli.main(argv))
seen["cli"] = loaded("scipy.integrate")

specs = ["gaussian", "uniform01", "exponential", "rademacher", "constant:-2.5", f"empirical:{tmp / 'sample.txt'}"]
for spec in specs:
    model = model_from_spec(spec)
    sample(model, 1000, 2)
    model.lp_norm(1.5)
    model.lp_norm(np.array([1.0, 2.0, 8.0]))
seen["models"] = loaded("scipy.integrate")
seen["density_names"] = [name for name in dir(glspace) if "density" in name.lower()]
print(json.dumps({"seen": seen, "codes": codes}))
"""


@pytest.mark.parametrize("closed_form", ["gaussian", "exponential"])
def test_scipy_loads_only_with_a_model_that_needs_it(tmp_path, closed_form):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), closed_form],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * 7
    assert got["seen"] == {
        "import": [],
        "numpy_cli": [],
        "closed_form": [True, False],
        "cli": False,
        "models": False,
        "density_names": [],
    }
