"""The traced benchmark in perfbench/ wraps program functions by name.

``perfbench/child.py``'s ``install`` looks up, and fails on a missing one:
``core.batch_kernel``, ``hermitian_expm``, ``apply`` and
``entanglement_entropy``; ``Circuit.state`` and ``Circuit.tangents``;
``varsim.exact_eom``, ``solve_flow``, ``snapshot`` and ``build_hamiltonian``;
the classmethod ``RunContext.from_config``; ``model.materialize`` and
``unitary_split``; ``oracle.eigendecompose`` and ``evolve_real``;
``measure.element_from_hadamard`` and ``hadamard_test``.  Installing it here
makes a rename or removal fail the tests rather than a traced benchmark run.

The tangent sweep's kernel rows are pinned too.  With one bundle row per
parameter slot, each stage pushes the rows already in use, one row per
gate for its inserted generator, and the state: 351 + 81 + 18 = 450 rows on
the L=7 N=3 chain's 18 stages and 2,420 + 185 + 25 = 2,630 on the N=5
plaquette's 25, where stages that fused only runs of equal targets pushed
837 and 4,650.  So is the Hadamard route: one call of the estimator that
``varsim.make_estimator`` builds for it on the benchmark's L=3 N=1 chain
runs its stage sweep through the traced kernels and calls no
``hadamard_test``, and the traced wrappers must accept it.  One
shift-route call of the same factory there simulates each state it reads
once through the traced ``Circuit.state``: the base state and each distinct
(slot, shift) state, at most 401 where a simulation per sample took 1,097.
Set-up is pinned too: the run context of the L=7 N=3 chain builds its
spectrum from the Hamiltonian's sectors, with no traced ``model.materialize``
or ``oracle.eigendecompose`` call, and the process peaks below 200 MB (the
dense matrix, its eigenvectors and the ``eigh`` workspace took it to about
376 MB).
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from child import Tracer, install
tracer = Tracer()
install(tracer, True)
{extra}
"""

TANGENT_ROWS = """
import json
from quditgauge.ansatz import chain_circuit, plaquette_circuit
from quditgauge.core import basis_state
rows = []
for circ in (chain_circuit(7, 3, "imag"), plaquette_circuit(5, "real", True)):
    before = tracer.counts.get("core.kernel.rows", 0)
    circ.tangents([0.1] * circ.num_params, basis_state(circ.num_qudits, 3, [1] * circ.num_qudits))
    rows.append(tracer.counts["core.kernel.rows"] - before)
print(json.dumps({"tangents": tracer.calls.get("ansatz.tangents", 0), "rows": rows}))
"""

HADAMARD_EOM = """
import json
from quditgauge.config import parse_config
from quditgauge.varsim import RunContext, make_estimator
cfg = parse_config({
    "model": {"dimension": 1, "num_links": 3, "g": 1.0, "mass": 0.1},
    "ansatz": {"family": "chain", "layers": 1, "init_seed": 1},
    "estimator": {"mode": "hadamard"},
})
ctx = RunContext.from_config(cfg)
eom = make_estimator(cfg.estimator, ctx)([0.1] * ctx.circuit.num_params, "imag")
print(json.dumps({
    "params": int(eom.v.size),
    "rows": tracer.counts.get("core.kernel.rows", 0),
    "hadamard_tests": tracer.calls.get("measure.hadamard_test", 0),
}))
"""

SHIFT_EOM = HADAMARD_EOM.replace('"mode": "hadamard"', '"mode": "shift"').replace(
    '"rows": tracer.counts.get("core.kernel.rows", 0),', '"states": tracer.calls.get("ansatz.state", 0),'
)


SETUP_L7 = """
import json
from child import peak_rss_kb
from quditgauge.config import parse_config
from quditgauge.varsim import RunContext
cfg = parse_config({
    "model": {"dimension": 1, "num_links": 7, "g": 1.0, "mass": 0.1},
    "ansatz": {"family": "chain", "layers": 3, "init_seed": 1},
})
RunContext.from_config(cfg)
print(json.dumps({
    "setup": tracer.calls.get("setup", 0),
    "dense": [tracer.calls.get(name, 0) for name in ("model.materialize", "oracle.eigendecompose")],
    "peak_rss_mb": peak_rss_kb() / 1024,
}))
"""


def run_traced(extra: str = "") -> subprocess.CompletedProcess:
    code = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"), extra=extra)
    # -B: write no bytecode next to the benchmark's files
    return subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=60
    )


def test_tracer_installs_on_every_wrapped_function():
    proc = run_traced()
    assert proc.returncode == 0, proc.stderr


def test_tangent_sweep_rows_go_through_traced_kernels():
    proc = run_traced(TANGENT_ROWS)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["tangents"] == 2
    chain_rows, plaquette_rows = result["rows"]
    # L=7 N=3 chain (81 gates, 33 slots), then the N=5 plaquette with the gate (185 gates and slots)
    assert 0 < chain_rows <= 460
    assert 0 < plaquette_rows <= 2660


def test_hadamard_eom_sweeps_through_traced_kernels():
    proc = run_traced(HADAMARD_EOM)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["params"] == 8
    assert result["rows"] > 0
    assert result["hadamard_tests"] == 0


def test_shift_eom_simulates_each_state_once():
    proc = run_traced(SHIFT_EOM)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["params"] == 8
    assert 0 < result["states"] <= 401
    assert result["hadamard_tests"] == 0


def test_l7_setup_builds_no_dense_matrix_and_stays_small():
    proc = run_traced(SETUP_L7)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["setup"] == 1
    assert result["dense"] == [0, 0]
    assert result["peak_rss_mb"] < 200
