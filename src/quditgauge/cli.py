"""Batch front door: run configurations in, deterministic CSV/JSON out.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 dimension cap exceeded or an allocation too large for the host.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, fixtures, measure, model, varsim
from .ansatz import random_initial_params
from .config import ConfigError, RunConfig, config_hash, load_config, validate_config
from .model import CapError

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CAP = 4


def _fmt(x: float, precision: int = 17) -> str:
    return format(float(x), f".{precision}g")


def _write_csv(path: Path, header: list[str], rows: list[list[float]], cfg_hash: str, precision: int):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# quditgauge {__version__} config={cfg_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x, precision) for x in row) + "\n")


def _write_json(path: Path, payload: dict, cfg_hash: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"version": __version__, "config_hash": cfg_hash, **payload}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    """The output directory, created before the command does any work."""
    path = Path(override) if override else Path(cfg.output.directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        raise ConfigError(f"cannot create the output directory {str(path)!r}: {exc}") from exc
    return path


def _write_run(cfg: RunConfig, out: Path, records: list[varsim.TrajectoryRecord], time_name: str, extra: dict):
    """``trajectory.csv``, one row per record, and ``final.json`` from the last record plus ``extra``."""
    cfg_hash = config_hash(cfg)
    header = ["step", time_name, *records[0].columns]
    rows = [[rec.step, rec.time, *rec.columns.values()] for rec in records]
    _write_csv(out / "trajectory.csv", header, rows, cfg_hash, cfg.output.precision)
    final = records[-1]
    summary = {name: final.columns[name] for name in ("energy", "fidelity", "entropy")}
    payload = {"steps_run": final.step, time_name: final.time, **summary, "theta": [float(x) for x in final.theta]}
    _write_json(out / "final.json", {**payload, **extra}, cfg_hash)


def cmd_ground(cfg: RunConfig, out_override: str | None) -> int:
    if cfg.evolution.mode != "vite":
        raise ConfigError("the ground command requires evolution.mode = 'vite'")
    out = _out_dir(cfg, out_override)
    records, ctx = varsim.run_ground_search(cfg)
    extra = {"grad_norm": records[-1].columns["grad_norm"], "ground_energy": ctx.spectrum.ground_energy}
    _write_run(cfg, out, records, "tau", extra)
    return 0


def cmd_quench(cfg: RunConfig, out_override: str | None) -> int:
    if cfg.evolution.mode != "vrte":
        raise ConfigError("the quench command requires evolution.mode = 'vrte'")
    out = _out_dir(cfg, out_override)
    records, _ = varsim.run_quench(cfg)
    _write_run(cfg, out, records, "t", {"designated_site": varsim.designated_site(cfg)})
    return 0


def cmd_exact(cfg: RunConfig, out_override: str | None) -> int:
    out = _out_dir(cfg, out_override)
    ctx = varsim.RunContext.from_config(cfg)
    cfg_hash = config_hash(cfg)
    spec = ctx.spectrum
    _write_json(
        out / "spectrum.json",
        {
            "dimension": int(spec.eigenvalues.size),
            "ground_energy": spec.ground_energy,
            "ground_multiplicity": spec.ground_multiplicity(),
            "lowest_eigenvalues": [float(w) for w in spec.eigenvalues[:10]],
        },
        cfg_hash,
    )
    ev = cfg.evolution
    energy0 = float(np.vdot(ctx.psi0.amplitudes, ctx.spectrum @ ctx.psi0.amplitudes).real)
    rows = [{"energy": energy0, **varsim.exact_row(ctx, k, k * ev.dt)[1]} for k in range(ev.steps + 1)]
    header = ["step", "t", *rows[0]]
    values = [[k, k * ev.dt, *row.values()] for k, row in enumerate(rows)]
    _write_csv(out / "exact.csv", header, values, cfg_hash, cfg.output.precision)
    return 0


def cmd_measure_check(cfg: RunConfig, out_override: str | None) -> int:
    # Checked before the context builds the Hamiltonian and its spectrum.
    if 3**cfg.model.num_links > 243:
        raise ConfigError("measure-check is meant for small models (L=3 or the plaquette)")
    out = _out_dir(cfg, out_override)
    ctx = varsim.RunContext.from_config(cfg)
    cfg_hash = config_hash(cfg)
    circuit = ctx.circuit
    npar = circuit.num_params
    theta = random_initial_params(circuit, cfg.ansatz.init_seed, cfg.ansatz.init_range)
    shots = cfg.estimator.shots or 10_000
    # One estimator per value column, called as a run with its route calls
    # it; the shift route has no real-time vector.
    imag, real = [], []
    for mode, n in (("exact", None), ("shift", None), ("hadamard", None), ("shift", shots), ("hadamard", shots)):
        est = varsim.make_estimator(dataclasses.replace(cfg.estimator, mode=mode, shots=n), ctx)
        imag.append(est(theta, "imag"))
        real.append(np.full(npar, np.nan) if mode == "shift" else est(theta, "real").v)
    # tests per element, pair and single words, as the Hadamard route draws them
    route = measure.hadamard_plan(circuit, model.hamiltonian_unitary_pieces(ctx.ham_spec))
    imag_tests, real_tests = route.tests["imag"].counts(), route.tests["real"].counts()
    header = [
        "kind",
        "mu",
        "nu",
        "exact",
        "shift",
        "hadamard",
        "shift_shots",
        "hadamard_shots",
        "hadamard_tests",
    ]
    mus, nus = np.triu_indices(npar)
    slots = np.arange(npar)

    def vector_rows(kind, tests, *cols):
        return np.column_stack([np.full(npar, kind), slots, np.full(npar, -1), *cols, tests[mus.size :]])

    rows = np.vstack(
        [
            np.column_stack(
                [np.zeros_like(mus), mus, nus] + [eom.m[mus, nus] for eom in imag] + [imag_tests[: mus.size]]
            ),
            vector_rows(1, imag_tests, *(eom.v for eom in imag)),
            vector_rows(2, real_tests, *real),
        ]
    )
    _write_csv(out / "measure_check.csv", header, rows, cfg_hash, cfg.output.precision)
    _write_json(
        out / "measure_summary.json",
        {
            "max_abs_dev_shift": float(np.nanmax(np.abs(rows[:, 4] - rows[:, 3]))),
            "max_abs_dev_hadamard": float(np.max(np.abs(rows[:, 5] - rows[:, 3]))),
            "shots": shots,
            "kinds": {"0": "M", "1": "VI", "2": "VR"},
        },
        cfg_hash,
    )
    return 0


def cmd_info(cfg: RunConfig) -> int:
    ctx = varsim.RunContext.from_config(cfg)
    print(ctx.circuit.describe())
    census: dict[int, int] = {}
    for _, op in ctx.ham_spec.terms:
        census[len(op.targets)] = census.get(len(op.targets), 0) + 1
    print(f"hamiltonian terms by support size: {dict(sorted(census.items()))}")
    print(f"parameters: {ctx.circuit.num_params}")
    print(f"entangling gates: {ctx.circuit.entangling_count()}")
    print(f"config hash: {config_hash(cfg)}")
    return 0


def cmd_bootstrap(write: bool) -> int:
    if write:
        path = fixtures.write_fixtures()
        print(f"wrote {path}")
        return 0
    drifted = fixtures.verify_fixtures()
    if drifted:
        for line in drifted:
            print(f"DRIFT {line}")
        return EXIT_NUMERICAL
    print("fixtures verified")
    return 0


def _apply_overrides(cfg: RunConfig, seed: int | None) -> RunConfig:
    if seed is None:
        return cfg
    cfg = dataclasses.replace(
        cfg,
        ansatz=dataclasses.replace(cfg.ansatz, init_seed=seed),
        estimator=dataclasses.replace(cfg.estimator, seed=seed),
    )
    validate_config(cfg)
    return cfg


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages() -> None:
    """Let glibc's malloc keep freed heap pages for the next EOM.

    An EOM allocates and frees the same bundle-sized arrays on every call.
    By default glibc returns that memory to the kernel when it is freed, so
    the next call faults every page in again (about 440 minor faults per
    EOM on the N=5 plaquette quench).  Arrays up to 32 MiB (glibc's largest
    mmap threshold) now come from the heap, and the heap is trimmed only
    above 1 GiB of free top.  Both are set: setting either alone turns off
    glibc's dynamic threshold and faults more than the default.  Without
    glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_pages()
    parser = argparse.ArgumentParser(prog="quditgauge", description=__doc__)
    parser.add_argument(
        "command",
        choices=["ground", "quench", "exact", "measure-check", "info", "bootstrap-fixtures"],
    )
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="override the ansatz and estimator seeds")
    parser.add_argument("--write", action="store_true", help="bootstrap: rewrite the fixture file")
    args = parser.parse_args(argv)

    try:
        if args.command == "bootstrap-fixtures":
            return cmd_bootstrap(args.write)
        if not args.config:
            raise ConfigError("--config is required for this command")
        cfg = _apply_overrides(load_config(args.config), args.seed)
        if args.command == "ground":
            return cmd_ground(cfg, args.out)
        if args.command == "quench":
            return cmd_quench(cfg, args.out)
        if args.command == "exact":
            return cmd_exact(cfg, args.out)
        if args.command == "measure-check":
            return cmd_measure_check(cfg, args.out)
        return cmd_info(cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapError as exc:
        print(f"dimension cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"allocation too large: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
