"""A run loads numpy and ``scipy.linalg`` of scipy, nothing more.

HiGHS (``scipy.optimize``), the KD-tree (``scipy.spatial``),
``scipy.special`` and ``scipy.sparse`` cost more start-up time than a small
run spends working.  The package keeps them off the run path; the tests
use them only as references.  Every name a module exports resolves.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

OFF_THE_RUN_PATH = (
    "scipy.optimize", "scipy.spatial", "scipy.special", "scipy.sparse",
)

# Import the CLI, then tabulate a few elements (GLL and uniform baselines,
# triangle faces, simplex quadrature) and compare the files that wrote.
RUN = r"""
import sys
import symnodes.cli
from symnodes.cli import main

out = sys.argv[1]
assert main(["tabulate", "--element", "line,quad,tet", "--degree-range",
             "2:2", "--out", out]) == 0
assert main(["compare", "--element", "tet", "--degree-range", "2:2",
             "--dist", f"tab={out}", "--out", f"{out}/tet.csv"]) == 0
print("\n".join(sorted(sys.modules)))
"""


def test_cli_run_loads_no_optimize_spatial_special_or_sparse(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    modules = subprocess.run(
        [sys.executable, "-c", RUN, str(tmp_path)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.split()
    assert "scipy.linalg" in modules
    loaded = [m for m in modules
              if m in OFF_THE_RUN_PATH or m.startswith(
                  tuple(name + "." for name in OFF_THE_RUN_PATH))]
    assert loaded == []
    assert (tmp_path / "tet.csv").read_text().count("\n") == 2


def test_every_export_resolves():
    import symnodes

    for info in pkgutil.iter_modules(symnodes.__path__):
        name = f"symnodes.{info.name}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        assert [n for n in exported if not hasattr(module, n)] == [], name
        exec(f"from {name} import *", {})
    namespace = {}
    exec("from symnodes import *", namespace)
    assert "optimize_nodes" in namespace
