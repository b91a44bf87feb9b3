"""The benchmark's workloads and their input generation.

Each workload is a synthetic population drawn from the run's ``--seed``
with the public ``homedest.synth`` generator and written as the four input
files the CLI chain reads.
Why each workload exists is recorded in ``BENCHMARK.json``; which layer
metric should move which end-to-end metric, in ``predictions.json``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

INPUT_FILES = ("posts.jsonl", "friends.csv", "ground_truth.csv", "pair_covariates.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    replicates: int
    check_recovery: bool = False  # planted-class recovery is only gated on the reference population


# Sizes keep a chain near 15 s (null_heavy) and 20 s (chain_default) on a
# 2-core machine, so a 55 s run takes the median of two to four chains and a
# round of 48 runs fits in an hour.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain_default", {"n_users": 5_000}, replicates=5, check_recovery=True),
        Workload("null_heavy", {"n_users": 1_000}, replicates=100),
    )
}


def generate_inputs(workload: Workload, seed: int, out_dir: Path) -> None:
    """Generate and write the workload's four input files into ``out_dir``."""
    from homedest import synth

    population = synth.generate_population(synth.default_spec(seed=seed, **workload.spec))
    synth.write_population(population, out_dir)


if __name__ == "__main__":
    # python workloads.py WORKLOAD SEED OUT_DIR, with the package importable
    generate_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
