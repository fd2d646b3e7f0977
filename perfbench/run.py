"""Benchmark of the quditgauge CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload <name|all> [--seed 1] [--seconds 20] [--trace 0|1]

Run from a checkout of the repository: the program is imported from
``src/``.  A run is a closed loop with one client: it starts one CLI command
in a fresh process, waits for it, checks its outputs, and starts the next,
in whole rounds until ``--seconds`` have passed (at least one round).
``--trace 0`` reports the end-to-end metrics, medians over the run's
commands.  ``--trace 1`` alternates an untraced command with a traced one
and reports the per-layer metrics of the traced commands (medians), plus the
tracing overhead: median traced CPU time minus median untraced CPU time.

Every command runs with one BLAS thread, and every time is CPU time of the
command's process, which excludes the host's steal time (see ``child.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (``--workload all``
prints one such line per workload, then a summary).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks  # sits next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # a run must end within 180 s

GROUND_L7_STEPS = 100
QUENCH_STEPS = 40
HADAMARD_STEPS = 10
SETUP_REPEATS = 2
# One compute thread per command: a second BLAS thread on a 2-vCPU shared
# host waits on the first whenever either vCPU is taken away, and its
# spinning would count in the CPU time.
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int], dict]  # seed -> run configuration
    fixture: str | None  # committed constant the reference E0 must match
    checks: tuple
    target: Callable[[checks.Output], int]  # rows up to the target row


def _ground_chain(links: int, layers: int, steps: int, estimator: str, init_seed: int) -> dict:
    return {
        "model": {"dimension": 1, "num_links": links, "g": 1.0, "mass": 0.1},
        "ansatz": {"family": "chain", "layers": layers, "init_seed": init_seed},
        "evolution": {"mode": "vite", "dt": 0.05, "steps": steps, "integrator": "euler"},
        "estimator": {"mode": estimator},
    }


def _ground_l7(seed: int) -> dict:
    # Pinned at init seed 1, whose flow first reaches fidelity 0.99 at step 82.
    # Other init seeds take from 71 to 140 steps (seed 13 has not reached it
    # by step 160), so following --seed would change the work per run and
    # time_to_target_s would spread by about 20% across ten seeds.
    return _ground_chain(7, 3, GROUND_L7_STEPS, "exact", 1)


def _hadamard_l3(seed: int) -> dict:
    # Every init seed does the same work: a fixed number of steps, each with
    # the same Hadamard tests.
    return _ground_chain(3, 1, HADAMARD_STEPS, "hadamard", seed)


def _quench_plaquette(seed: int) -> dict:
    # The quench starts from theta = 0, so the seed changes nothing.
    return {
        "model": {"dimension": 2, "num_links": 4, "g": 1.0, "mass": 0.1},
        "ansatz": {"family": "plaquette", "layers": 5, "include_plaquette_gate": True},
        "evolution": {"mode": "vrte", "dt": 0.01, "steps": QUENCH_STEPS, "integrator": "rk4"},
    }


def _first_fidelity_row(out: checks.Output) -> int:
    hits = (out.col("fidelity") >= checks.FIDELITY_TARGET).nonzero()[0]
    return int(hits[0]) + 1 if hits.size else out.rows.shape[0]


def _all_rows(out: checks.Output) -> int:
    return out.rows.shape[0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ground-chain-L7",
            "ground",
            _ground_l7,
            "chain_L7_ground_energy",
            (checks.ran_to_end, checks.energy_descends, checks.variational_bound,
             checks.reaches_fidelity, checks.ground_energy_matches),
            _first_fidelity_row,
        ),
        Workload(
            "quench-plaquette-N5",
            "quench",
            _quench_plaquette,
            "plaquette_ground_energy",
            (checks.ran_to_end, checks.min_fidelity, checks.corner_follows_reference,
             checks.exact_columns_match),
            _all_rows,
        ),
        Workload(
            "hadamard-ground-chain-L3",
            "ground",
            _hadamard_l3,
            None,
            (checks.ran_to_end, checks.matches_exact_route, checks.energy_descends,
             checks.variational_bound, checks.ground_energy_matches),
            _all_rows,
        ),
    )
}

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "time_to_target_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> the statistics reported for it
SPANS = {
    "core.kernel.single": ("calls", "s"),
    "core.kernel.pair": ("calls", "s"),
    "core.kernel.general": ("calls", "s"),
    "core.kernel.full": ("calls", "s"),
    "core.hermitian_expm": ("calls", "s"),
    "core.apply": ("calls", "s"),
    "core.entanglement_entropy": ("calls", "s"),
    "ansatz.state": ("calls", "s"),
    "ansatz.tangents": ("calls", "s", "self_s"),
    "varsim.exact_eom": ("calls", "self_s"),
    "varsim.solve_flow": ("calls", "s"),
    "varsim.snapshot": ("self_s",),
    "model.build": ("s",),
    "model.materialize": ("s",),
    "model.unitary_split": ("calls", "s"),
    "oracle.eigendecompose": ("s",),
    "oracle.evolve_real": ("calls", "s"),
    "measure.element_from_hadamard": ("calls", "self_s"),
    "measure.hadamard_test": ("calls", "s"),
}
COUNTERS = {"core.kernel.rows": "count", "core.kernel.bytes": "B", "measure.hadamard_test.ops": "count"}
_STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
_STAT_SOURCE = {"calls": "calls", "s": "busy", "self_s": "self"}


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{stat}": _STAT_UNITS[stat] for span, stats in SPANS.items() for stat in stats}
    units.update(COUNTERS)
    units["varsim.backtrack_halvings"] = "count"
    units["cli.output.s"] = "s"
    return units


OVERHEAD = "trace.overhead_s"  # traced minus untraced CPU time, unit s


def _fixtures() -> dict[str, float]:
    with open(SRC / "quditgauge" / "fixtures" / "constants.json", encoding="utf-8") as fh:
        return {rec["name"]: float(rec["value"]) for rec in json.load(fh)}


class Invocation:
    """One CLI command in a fresh process: its times, memory, outputs and stats."""

    def __init__(self, command: str, config_path: Path, out_dir: Path, trace: bool, deadline: float):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        stats_path = out_dir / "stats.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), "--stats", str(stats_path),
            "--trace", str(int(trace)), "--",
            command, "--config", str(config_path), "--out", str(out_dir),
        ]
        with open(out_dir / "stderr.txt", "wb") as err:
            # Only one child runs at a time, so the growth of RUSAGE_CHILDREN
            # across its wait is its own CPU time, start-up and exit included.
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, **ONE_THREAD),
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
            timer.start()
            try:
                self.code = proc.wait()
            except BaseException:  # interrupted: leave no command running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            self.cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        self.out_dir = out_dir
        self.output = self.stats = None
        if self.code == 0:
            try:
                with open(stats_path, encoding="utf-8") as fh:
                    self.stats = json.load(fh)
                if command != "info":
                    self.output = checks.read_output(out_dir)
            except (OSError, ValueError, IndexError):
                self.code = None  # exited 0 without its outputs

    @property
    def ok(self) -> bool:
        return self.code == 0

    def error(self) -> str:
        return f"exit {self.code}: {(self.out_dir / 'stderr.txt').read_text()[-400:]}"

    def end_to_end(self, workload: Workload) -> dict[str, float]:
        busy = self.stats["busy"]
        setup = busy["setup"]
        rate = self.output.rows.shape[0] / (busy["varsim.run"] - setup)
        return {
            "cpu_s": self.cpu_s,
            "setup_s": setup,
            "steps_per_s": rate,
            "time_to_target_s": setup + workload.target(self.output) / rate,
            "peak_rss_mb": self.stats["peak_rss_kb"] / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        st = self.stats
        values = {}
        for span, stats in SPANS.items():
            for stat in stats:
                values[f"{span}.{stat}"] = st[_STAT_SOURCE[stat]].get(span, 0)
        for name in COUNTERS:
            values[name] = st["counts"].get(name, 0)
        values["varsim.backtrack_halvings"] = backtrack_halvings(self.output)
        values["cli.output.s"] = st["self"]["cli.cmd"]
        return values


def backtrack_halvings(out: checks.Output) -> int:
    """Step halvings of the ground search, read from the tau column."""
    if "tau" not in out.header:
        return 0
    taken = np.diff(out.col("tau"))
    if not taken.size:
        return 0
    return int(np.rint(np.log2(taken.max() / taken)).sum())


def expected_for(workload: Workload, seed: int, work: Path, deadline: float):
    """The benchmark's own reference for one workload, built before any timing.

    Returns what the outputs are checked against and the problems found on
    the way (a reference that disagrees with the committed fixture, or an
    exact-route run that fails).
    """
    import reference

    cfg = workload.config(seed)
    needs_evolution = workload.command == "quench"
    ref = reference.build(cfg["model"], needs_evolution)
    problems = []
    if workload.fixture is not None:
        committed = _fixtures()[workload.fixture]
        if abs(ref.ground_energy - committed) > checks.ENERGY_TOL:
            problems.append(
                f"reference ground energy {ref.ground_energy!r} does not match "
                f"the committed {workload.fixture} = {committed!r}"
            )
    steps, dt = cfg["evolution"]["steps"], cfg["evolution"]["dt"]
    exp = checks.Expected(steps, ref.ground_energy)
    if needs_evolution:
        exp.occupations = np.array([ref.occupations(k * dt) for k in range(steps + 1)])
    if checks.matches_exact_route in workload.checks:
        path = work / "exact-route.json"
        path.write_text(json.dumps(dict(cfg, estimator={"mode": "exact"})), encoding="utf-8")
        inv = Invocation(workload.command, path, work / "exact-route", False, deadline)
        if inv.ok:
            exp.exact_route = inv.output
        else:
            problems.append(f"the exact-route run failed: {inv.error()}")
    return exp, problems


def _median_metrics(samples: list[dict[str, float]], units: dict[str, str]) -> dict:
    return {
        name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name, unit in units.items()
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config(seed)), encoding="utf-8")
    exp, problems = expected_for(workload, seed, work, deadline)  # problems: wrong outputs
    failures: list[str] = []  # commands that did not complete

    # One round: the workload's command, then SETUP_REPEATS `info` commands,
    # which build the same RunContext and stop, so that every run samples
    # set-up several times.  Traced rounds pair an untraced command with a
    # traced one instead.
    if trace:
        round_ = [(workload.command, False), (workload.command, True)]
    else:
        round_ = [(workload.command, False)] + [("info", False)] * SETUP_REPEATS
    attempted = 0
    done: dict[tuple[str, bool], list[Invocation]] = {op: [] for op in round_}
    start = time.perf_counter()
    while True:
        for command, traced in round_:
            inv = Invocation(command, config_path, work / command, traced, deadline)
            attempted += 1
            if not inv.ok:
                failures.append(inv.error())
                continue
            if inv.output is not None:
                problems += checks.run_checks(workload.checks, inv.output, exp)
            done[command, traced].append(inv)
            print(f"{workload.name}: {command}{' traced' if traced else ''}: wall {inv.wall_s:.4f} s, "
                  f"CPU {inv.cpu_s:.4f} s, set-up {inv.stats['busy']['setup']:.4f} s, peak RSS {inv.stats['peak_rss_kb'] / 1024:.1f} MB",
                  file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            break

    runs = done[workload.command, False]
    metrics: dict = {}
    if trace and runs and done[workload.command, True]:
        traced_runs = done[workload.command, True]
        metrics = _median_metrics([inv.per_layer() for inv in traced_runs], per_layer_units())
        overhead = statistics.median(i.cpu_s for i in traced_runs) - statistics.median(i.cpu_s for i in runs)
        metrics[OVERHEAD] = {"value": overhead, "unit": "s"}
    elif runs:
        metrics = _median_metrics([inv.end_to_end(workload) for inv in runs], END_TO_END)
        setups = [inv.stats["busy"]["setup"] for group in done.values() for inv in group]
        metrics["setup_s"]["value"] = statistics.median(setups)
    for msg in failures + problems:
        print(f"{workload.name}: {msg}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quditgauge" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'quditgauge'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            r = results[name]
            shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
            print(f"{name}: attempted={r['attempted']} failed={r['failed']} correct={r['correct']}  {shown}")
            print(json.dumps(r))
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        print(json.dumps(summary))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
