"""The benchmark's workloads: what each one runs and why it was chosen.

The benchmark seed becomes the pipeline config's ``seed``; the program sees
only the generated config (and, for ingest, the generated corpus file).
Shares of ``run_s`` quoted below come from the traced run on 2 vCPUs with
BLAS pinned to one thread; ``perfbench/baseline`` holds the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

CONFIG_SCHEMA = "patimpact-config/1"

# Subcommands the stage-wise workload runs, one process each, in order.
CLI_SEQUENCE = [
    "synth", "label", "features", "train", "evaluate",
    "explain", "jt-test", "topic-score", "report",
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int], dict]
    mode: str  # "inproc": config_from_obj + run_pipeline; "cli": one process per subcommand
    input_patents: Optional[int] = None  # corpus JSONL generated during set-up
    check_mcc_seeds: frozenset = frozenset()


def _base(seed: int) -> dict:
    return {"schema": CONFIG_SCHEMA, "seed": seed, "threshold_mode": "fixed"}


def _acceptance(seed: int) -> dict:
    # the configuration of tests/test_acceptance.py::test_c08 with seed 7
    return {
        **_base(seed),
        "synth": {"n_patents": 2000},
        "train": {"class_weighting": True},
        "explain": {"n_instances": 8, "n_permutations": 50},
        "validation": {"method": "normal_approx"},
    }


# Early stopping off (patience = max_epochs) fixes the training work, so the
# seed changes the data but not how many epochs a run trains.
def _fixed_epochs(epochs: int) -> dict:
    return {"class_weighting": True, "max_epochs": epochs, "early_stop_patience": epochs}


def _ingest(seed: int) -> dict:
    return {
        **_base(seed),
        "corpus_path": "input/corpus.jsonl",
        "train": _fixed_epochs(30),
        "explain": {"n_instances": 1, "n_permutations": 10},
        "validation": {"method": "normal_approx"},
    }


def _stagewise(seed: int) -> dict:
    return {
        **_base(seed),
        "synth": {"n_patents": 2000},
        "train": _fixed_epochs(40),
        "explain": {"n_instances": 1, "n_permutations": 10},
        "validation": {"method": "permutation", "n_permutations": 10_000},
    }


def input_generator_config(seed: int, n_patents: int) -> dict:
    """Config for ``patimpact synth`` that writes the ingest workload's input."""
    return {**_base(seed), "out_dir": "input", "synth": {"n_patents": n_patents}}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="acceptance-2k",
            why="c08 config in-process; explain is ~3/4 of run_s: the Shapley and inference path",
            config=_acceptance,
            mode="inproc",
            # c08 asserts MCC > 0 for its own seed only: the test year holds
            # 102 patents with one BT per horizon, so the sign moves with the seed
            check_mcc_seeds=frozenset({7}),
        ),
        Workload(
            name="ingest-8k",
            why="8k-patent JSONL ingested; training and corpus parsing dominate, explain ~2%",
            config=_ingest,
            mode="inproc",
            input_patents=8000,
        ),
        Workload(
            name="stagewise-jtperm-2k",
            why="one CLI process per stage, re-parsing from disk; permutation JT dominates",
            config=_stagewise,
            mode="cli",
        ),
    ]
}
