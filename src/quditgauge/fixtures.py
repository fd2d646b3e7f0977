"""Frozen regression constants and the bootstrap that regenerates them.

Each record stores the value with 17 significant digits, a hash of the
generating parameters, and a one-line description of the oracle that
produced it.  ``verify_fixtures`` fails when a recomputed value drifts by
more than 1e-9 relative to the committed one.
"""
from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path

import numpy as np

from . import model, oracle

DRIFT_RTOL = 1e-9


def _params_hash(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _record(name: str, params: dict, value: float, description: str) -> dict:
    return {
        "name": name,
        "config_hash": _params_hash(params),
        "value": format(value, ".17g"),
        "oracle": description,
    }


def compute_fixtures() -> list[dict]:
    out = []
    for links in (5, 7):
        params = {"model": "chain", "num_links": links, "g": 1.0, "mass": 0.1}
        ham = model.chain_hamiltonian(links, 1.0, 0.1)
        dense = model.materialize(ham)
        energy, _, _ = oracle.ground_state(dense)
        out.append(
            _record(
                f"chain_L{links}_ground_energy",
                params,
                energy,
                "dense eigensolver on the materialized chain Hamiltonian",
            )
        )
        if links == 5:
            out.append(
                _record(
                    "chain_L5_trace",
                    params,
                    float(np.trace(dense).real),
                    "sum of the diagonal of the materialized chain Hamiltonian",
                )
            )
    params = {"model": "plaquette", "g": 1.0, "mass": 0.1}
    dense = model.materialize(model.plaquette_hamiltonian(1.0, 0.1))
    energy, _, _ = oracle.ground_state(dense)
    out.append(
        _record(
            "plaquette_ground_energy",
            params,
            energy,
            "dense eigensolver on the materialized plaquette Hamiltonian",
        )
    )
    return out


def fixtures_path() -> Path:
    return Path(resources.files("quditgauge") / "fixtures" / "constants.json")


def load_fixtures() -> dict[str, dict]:
    with open(fixtures_path(), "r", encoding="utf-8") as fh:
        return {rec["name"]: rec for rec in json.load(fh)}


def verify_fixtures() -> list[str]:
    """Recompute everything and report drifted records; empty means clean."""
    committed = load_fixtures()
    drifted = []
    for rec in compute_fixtures():
        old = committed.get(rec["name"])
        if old is None:
            drifted.append(f"{rec['name']}: missing from the committed file")
            continue
        a, b = float(old["value"]), float(rec["value"])
        scale = max(abs(a), abs(b), 1e-30)
        if abs(a - b) / scale > DRIFT_RTOL:
            drifted.append(f"{rec['name']}: committed {old['value']} vs recomputed {rec['value']}")
    return drifted


def write_fixtures(path: Path | None = None) -> Path:
    path = path or fixtures_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(compute_fixtures(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
