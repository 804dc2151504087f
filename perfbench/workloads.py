"""The benchmark's workloads: sweep configs generated from a seed.

Each workload is one `run_sweep` config plus the grid the checks expect back.
The sizes are trimmed from the paper's sweeps so that one sweep takes a few
seconds on one BLAS thread, which lets a run repeat it and report medians.
"""

from __future__ import annotations

from dataclasses import dataclass

TRAINED = (
    "task_aware_coding",
    "task_aware_no_coding",
    "task_agnostic_coding",
    "coding_benchmark",
)
CONSTRUCTION = "analytic_construction"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweep: dict
    train: dict
    # sweep values at which the runner adds a closed-form construction cell
    # to the trained approaches: the values with r_plus <= 3Z
    construct_values: tuple

    def config(self, seed: int) -> dict:
        """The `run_sweep` config for one workload seed."""
        return {
            "sweep": dict(self.sweep),
            "train": dict(self.train),
            "seeds": [instance_seed(seed)],
        }

    def expected_counts(self, config: dict) -> dict[str, int]:
        """Records per approach that the sweep must return."""
        values = config["sweep"]["values"]
        seeds = len(config["seeds"])
        counts = {a: len(values) * seeds for a in config["sweep"]["approaches"]}
        built = sum(1 for v in values if v in self.construct_values) * seeds
        if built:
            counts[CONSTRUCTION] = built
        return counts


def instance_seed(seed: int) -> int:
    """Map any integer seed to the non-negative range the generators take."""
    return seed % 2**32


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_paper",
            why=("paper-scale r_plus sweep (n=32, Z=8) with four trained "
                 "approaches; per-epoch Python overhead in train dominates, "
                 "r_plus>24 is rejected by analysis"),
            sweep={
                "param": "r_plus",
                "values": [16, 20, 24, 28, 32],
                "approaches": list(TRAINED),
                "n": 32, "z": 8, "a": 24, "b": 24,
                "keep_sf3": True,
                "eig_profile": "flat_tail",
            },
            train={"epochs": 500, "learning_rate": 0.05},
            construct_values=(16, 20, 24),
        ),
        Workload(
            name="construct_large",
            why=("closed-form construction only at n=256, Z=64; SVD and lstsq "
                 "work in subspace, code and analytic dominates, no training"),
            sweep={
                "param": "r_plus",
                "values": [128, 160, 192],
                "approaches": [CONSTRUCTION],
                "n": 256, "z": 64, "a": 192, "b": 192,
            },
            train={},
            construct_values=(),
        ),
    )
}
