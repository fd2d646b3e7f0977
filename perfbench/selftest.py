"""Self-test of the benchmark: every check passes on real outputs and fails on corrupted ones.

    python3 perfbench/selftest.py

For each workload it runs the CLI command once, confirms that every check
passes, then corrupts one output per check and confirms that this check
reports a failure.  It also confirms that ``BENCHMARK.json`` names the
workloads and metrics that ``run.py`` defines.  Exits 1 on any mismatch.
"""
from __future__ import annotations

import copy
import json
import sys
import time

import checks
import run


def _set(out, column, row, value):
    out.rows[row, out.header.index(column)] = value


def _bump(out, column, row, delta):
    out.rows[row, out.header.index(column)] += delta


def _raise_energy(out, exp):
    _set(out, "energy", 5, out.col("energy")[4] + 1e-6)


def _below_bound(out, exp):
    _set(out, "energy", -1, exp.ground_energy - 1e-6)


def _corner(out, exp):
    _bump(out, f"n_{out.final['designated_site']}", 3, 0.11)


def _theta(out, exp):
    out.final["theta"][0] += 1e-7


CORRUPTIONS = {
    checks.ran_to_end: [lambda out, exp: setattr(out, "rows", out.rows[:-1])],
    checks.energy_descends: [_raise_energy],
    checks.variational_bound: [_below_bound],
    checks.reaches_fidelity: [lambda out, exp: _set(out, "fidelity", -1, 0.98)],
    checks.ground_energy_matches: [lambda out, exp: out.final.update(ground_energy=exp.ground_energy + 1e-8)],
    checks.min_fidelity: [lambda out, exp: _set(out, "fidelity", 7, 0.79)],
    checks.corner_follows_reference: [_corner],
    checks.exact_columns_match: [lambda out, exp: _bump(out, "exact_n_0", 2, 1e-7)],
    checks.matches_exact_route: [_theta, lambda out, exp: _bump(out, "energy", 6, 1e-7)],
}


def benchmark_json_matches() -> list[str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if listed != run.END_TO_END:
        problems.append(f"end_to_end differs: {listed} against {run.END_TO_END}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {**run.per_layer_units(), run.OVERHEAD: "s"}
    if listed != emitted:
        problems.append(f"per_layer differs in {sorted(set(listed.items()) ^ set(emitted.items()))}")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = benchmark_json_matches()
    for name, workload in run.WORKLOADS.items():
        work = run.OUT / "selftest" / name
        work.mkdir(parents=True, exist_ok=True)
        deadline = time.perf_counter() + run.DEADLINE_S
        exp, problems_ref = run.expected_for(workload, 1, work, deadline)
        problems += [f"{name}: {msg}" for msg in problems_ref]
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config(1)), encoding="utf-8")
        inv = run.Invocation(workload.command, config_path, work / "run", False, deadline)
        if not inv.ok:
            problems.append(f"{name}: the command failed with exit {inv.code}")
            continue
        clean = checks.run_checks(workload.checks, inv.output, exp)
        problems += [f"{name}: fails on its real output: {msg}" for msg in clean]
        for check in workload.checks:
            for corrupt in CORRUPTIONS[check]:
                out = copy.deepcopy(inv.output)
                corrupt(out, exp)
                msg = check(out, exp)
                status = "caught" if msg else "MISSED"
                print(f"{name}: {check.__name__}: {status}: {msg}")
                if not msg:
                    problems.append(f"{name}: {check.__name__} passes a corrupted output")
    for msg in problems:
        print(f"FAIL {msg}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
