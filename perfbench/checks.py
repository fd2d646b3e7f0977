"""Correctness checks on the CLI's outputs, one list per workload.

Each check takes the parsed outputs of one command and what they must agree
with, and returns a message when the outputs fail it (``None`` otherwise).
They compare against the benchmark's own reference (``reference.py``) or
against properties the method must have: descent of the energy, the
variational bound, agreement between estimator routes.  None compares
against a stored copy of an earlier output.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ENERGY_TOL = 1e-9
FIDELITY_TARGET = 0.99
QUENCH_MIN_FIDELITY = 0.8
QUENCH_MAX_DEVIATION = 0.1
EXACT_COLUMN_TOL = 1e-8
ROUTE_TOL = 1e-8


@dataclass
class Output:
    """``trajectory.csv`` and ``final.json`` of one command."""

    header: list[str]
    rows: np.ndarray
    final: dict

    def col(self, name: str) -> np.ndarray:
        return self.rows[:, self.header.index(name)]


def read_output(directory: Path) -> Output:
    with open(directory / "trajectory.csv", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].strip().split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    with open(directory / "final.json", encoding="utf-8") as fh:
        final = json.load(fh)
    return Output(header, rows.reshape(-1, len(header)), final)


@dataclass
class Expected:
    """What one workload's outputs are checked against."""

    steps: int
    ground_energy: float  # reference E0
    occupations: np.ndarray | None = None  # reference site occupations per row
    exact_route: Output | None = None  # same config through the exact estimator


def ran_to_end(out: Output, exp: Expected):
    if out.rows.shape[0] != exp.steps + 1:
        return f"{out.rows.shape[0]} rows, expected {exp.steps + 1}"


def energy_descends(out: Output, exp: Expected):
    rise = np.diff(out.col("energy"))
    if rise.size and rise.max() > ENERGY_TOL:
        return f"energy rises by {rise.max():.3e} at step {int(np.argmax(rise)) + 1}"


def variational_bound(out: Output, exp: Expected):
    low = float(out.col("energy").min())
    if low < exp.ground_energy - ENERGY_TOL:
        return f"energy {low!r} below the reference ground energy {exp.ground_energy!r}"


def reaches_fidelity(out: Output, exp: Expected):
    final = out.col("fidelity")[-1]
    if not final >= FIDELITY_TARGET:
        return f"final fidelity {final:.6f} < {FIDELITY_TARGET}"


def ground_energy_matches(out: Output, exp: Expected):
    dev = abs(out.final["ground_energy"] - exp.ground_energy)
    if not dev <= ENERGY_TOL:
        return f"final.json ground_energy differs from the reference by {dev:.3e}"


def min_fidelity(out: Output, exp: Expected):
    low = out.col("fidelity").min()
    if not low >= QUENCH_MIN_FIDELITY:
        return f"min fidelity {low:.6f} < {QUENCH_MIN_FIDELITY}"


def corner_follows_reference(out: Output, exp: Expected):
    site = out.final["designated_site"]
    dev = np.max(np.abs(out.col(f"n_{site}") - exp.occupations[:, site]))
    if not dev < QUENCH_MAX_DEVIATION:
        return f"corner occupation deviates from the reference by {dev:.4f}"


def exact_columns_match(out: Output, exp: Expected):
    cols = [i for i, name in enumerate(out.header) if name.startswith("exact_n_")]
    dev = np.max(np.abs(out.rows[:, cols] - exp.occupations))
    if not dev <= EXACT_COLUMN_TOL:
        return f"exact_n_* columns differ from the reference by {dev:.3e}"


def matches_exact_route(out: Output, exp: Expected):
    ref = exp.exact_route
    if ref is None:
        return "no exact-route run to compare with"
    if out.rows.shape[0] != ref.rows.shape[0]:
        return f"{out.rows.shape[0]} rows against {ref.rows.shape[0]} on the exact route"
    dev_e = np.max(np.abs(out.col("energy") - ref.col("energy")))
    dev_t = np.max(np.abs(np.subtract(out.final["theta"], ref.final["theta"])))
    if not max(dev_e, dev_t) <= ROUTE_TOL:
        return f"exact route differs: energies by {dev_e:.3e}, final theta by {dev_t:.3e}"


def run_checks(checks, out: Output, exp: Expected) -> list[str]:
    failures = []
    for check in checks:
        try:
            msg = check(out, exp)
        except (ValueError, IndexError, KeyError) as exc:  # malformed outputs
            msg = f"{type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append(f"{check.__name__}: {msg}")
    return failures
