"""Record the ellipsoid-flow workload's initial energy for every seed it runs.

    PYTHONPATH=src python3 bench/make_energy_reference.py

Run from the repository root on the commit whose numbers are the
reference; it rewrites bench/ellipsoid_energy_reference.json. The
ellipsoid-flow gate compares each run's energy-eval energy with the
recorded value for its seed, so a change that moves the initial loop or
the energy shows as a failed run.
"""

import json
import os

from loopflow import energy, parse_config
from loopflow.cli import make_initial_map

from workloads import ELLIPSOID_FLOW, LOOPFLOW_SEEDS


def main():
    config = parse_config(json.dumps(ELLIPSOID_FLOW.config))
    energies = {str(seed): energy(make_initial_map(config, seed)) for seed in LOOPFLOW_SEEDS}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ellipsoid_energy_reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"config": ELLIPSOID_FLOW.config, "energies": energies}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
