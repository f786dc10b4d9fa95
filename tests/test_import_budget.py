"""Import budget: training, plans and serving never load ``scipy``.

Only the offline circuit fitters (``fit_mu``, ``derive_eta``,
``synthesize_ptanh``) use ``scipy.optimize``; they import it on their
first call, so every other entry point starts without its import
(0.3-0.4 s and 30-40 MiB per process on 2 cores).  The check runs in a
fresh interpreter because other tests may already have imported scipy
into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
from dataclasses import replace

import numpy as np

import repro.cli, repro.compile, repro.core, repro.parallel, repro.report, repro.serve
from repro.compile import compile_plan
from repro.core import AdaptPNC, Trainer, TrainingConfig
from repro.data import load_dataset


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


model = AdaptPNC(3, rng=np.random.default_rng(0))
logits = compile_plan(model)(np.zeros((2, 16)))
data = load_dataset("Slope", n_samples=12, seed=0, length=16)
config = replace(TrainingConfig.ci(), max_epochs=1)
Trainer(AdaptPNC(3, rng=np.random.default_rng(1)), config, seed=0).fit(
    data.x_train, data.y_train, data.x_val, data.y_val
)
before = scipy_modules()

from repro.circuits import derive_eta

fit = derive_eta(points=20)
print(json.dumps({
    "logits_shape": list(logits.shape),
    "before": before,
    "rms_error": fit.rms_error,
    "optimize_loaded": "scipy.optimize" in sys.modules,
}))
"""


def test_training_plans_and_serving_load_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["logits_shape"] == [2, 3]
    assert result["before"] == [], (
        "scipy is imported outside the offline circuit fitters: "
        f"{result['before'][:5]}"
    )
    # The fitters still work, and load scipy.optimize on first call.
    assert result["optimize_loaded"]
    assert 0.0 <= result["rms_error"] < 0.02
