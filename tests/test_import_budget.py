"""Cold start loads only what it runs.

A fresh interpreter imports what the benchmark's workloads import, costs one
model slot, builds a depth-1 library and builds the CLI parser.  None of that
trains or lowers eagerly, so none of it may load numpy, the nn substrate's
autograd and trainer, the eager and plan generators, the search session or
an experiment module other than the two every run shares.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Modules only the training and eager-lowering paths load.
TRAINING_ONLY = {
    "numpy",
    "repro.nn.tensor",
    "repro.nn.trainer",
    "repro.codegen.eager",
    "repro.codegen.plan",
    "repro.search.session",
}
#: The experiment modules every run shares; the others load only to run.
SHARED_EXPERIMENT_MODULES = {"repro.experiments.common", "repro.experiments.runner"}

COLD_START = """
import importlib, json, sys

for name in json.loads(sys.argv[1]):
    importlib.import_module(name)

from repro.cli.main import build_parser
from repro.compiler.backends import InductorBackend
from repro.compiler.targets import MOBILE_CPU
from repro.experiments.common import evaluate_model, syno_candidates
from repro.library.builder import build_library
from repro.library.specs import space_for
from repro.nn.models.profiles import MODEL_PROFILES
from repro.runtime import RuntimeConfig, RuntimeContext

runtime = RuntimeContext(RuntimeConfig(smoke=True, library_dir=sys.argv[2]))
slots = MODEL_PROFILES["resnet18"][:1]
evaluate_model("resnet18", slots, InductorBackend(), MOBILE_CPU, syno_candidates(), runtime=runtime)
space = space_for("resnet", max_depth=1)
build_library(space.spec, space.options, name="resnet", runtime=runtime, force=True)
build_parser()
print(json.dumps(sorted(sys.modules)))
"""


def benchmark_imports() -> list[str]:
    """The ``repro`` modules ``perfbench/workloads.py`` imports."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    return sorted({
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
    })


def test_cold_start_loads_no_training_stack_and_no_experiment(tmp_path):
    modules = benchmark_imports()
    assert "repro.library.builder" in modules
    completed = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(modules), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    loaded = set(json.loads(completed.stdout.splitlines()[-1]))
    assert "repro.library.builder" in loaded and "repro.experiments.runner" in loaded
    unexpected = sorted(
        name
        for name in loaded
        if name in TRAINING_ONLY
        or (name.startswith("repro.experiments.") and name not in SHARED_EXPERIMENT_MODULES)
    )
    assert unexpected == []
