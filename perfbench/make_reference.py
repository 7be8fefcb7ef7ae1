"""Write ``eval_reference.json``: metrics of the unpermuted uniform node sets
that the eval-files workload compares, computed as ``symnodes compare`` does.

Run from the repository root: ``python3 perfbench/make_reference.py``.
Rerun only when a change to the program is meant to change these metrics.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from symnodes.baselines import baseline_distribution  # noqa: E402
from symnodes.basis import FunctionSpace  # noqa: E402
from symnodes.metrics import evaluate_metrics  # noqa: E402

from checks import REFERENCE_FILE  # noqa: E402
from worker import EVAL  # noqa: E402


def main():
    rows = {}
    for el, top in EVAL["eval-files"].items():
        for p in range(1, top + 1):
            dist = baseline_distribution(el, p, "uniform")
            report = evaluate_metrics(FunctionSpace(dist.kind, p), dist)
            rows[f"{el}_p{p}"] = {
                "lebesgue_constant": report.lebesgue_constant,
                "lebesgue_objective": report.lebesgue_objective,
                "mass_condition": report.mass_condition,
            }
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
