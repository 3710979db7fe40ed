"""Build one workload's fixed objects in a fresh process.

    python setup_probe.py {flow,reduce} CONFIG SEED

The benchmark takes the CPU time of this whole process, so set-up time
covers interpreter start, `import loopflow`, config parsing and the
public calls that build what a run needs before it iterates: the
initial map for a flow, and the bundle, energy functional and reduction
workspace for a reduction.
"""

import dataclasses
import sys


def flow_setup(config, seed):
    from loopflow.cli import make_initial_map

    make_initial_map(config, seed)


def reduce_setup(config, seed):
    from loopflow import (
        build_pullback_bundle,
        build_reduction_workspace,
        energy_functional_on_bundle,
    )
    from loopflow.cli import make_initial_map

    # With amplitude 0 the initial map is the configured base loop.
    unperturbed = dataclasses.replace(
        config, perturbation=dataclasses.replace(config.perturbation, amplitude=0.0)
    )
    base = make_initial_map(unperturbed, seed)
    bundle = build_pullback_bundle(base.mesh, base.target, base.values)
    functional = energy_functional_on_bundle(bundle)
    build_reduction_workspace(
        bundle,
        functional,
        kernel_tol=config.reduction.kernel_tol,
        newton_tol=config.reduction.newton_tol,
        newton_max_iter=config.reduction.newton_max_iter,
    )


def main():
    kind, config_path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    from loopflow import parse_config_file

    config = parse_config_file(config_path)
    {"flow": flow_setup, "reduce": reduce_setup}[kind](config, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
