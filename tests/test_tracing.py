"""The traced benchmark in perfbench/ wraps program functions by name.

``perfbench/child.py``'s ``install`` looks up, and fails on a missing one:
``core.batch_kernel``, ``hermitian_expm``, ``apply`` and
``entanglement_entropy``; ``Circuit.state`` and ``Circuit.tangents``;
``varsim.exact_eom``, ``solve_flow``, ``snapshot`` and ``build_hamiltonian``;
the classmethod ``RunContext.from_config``; ``model.materialize`` and
``unitary_split``; ``oracle.eigendecompose`` and ``evolve_real``;
``measure.element_from_hadamard`` and ``hadamard_test``.  Installing it here
makes a rename or removal fail the tests rather than a traced benchmark run.

The tangent sweep's kernel rows are pinned too, as the traced kernels
count them: a stage's stacked inserts are one call on one row, the state.
In the output frame (``Circuit.tangents``) each stage pushes the state,
then the rows already in use, and applies its inserts in one more call:
18 + 351 + 18 = 387 rows on the L=7 N=3 chain's 18 stages and 25 + 2,420 +
25 = 2,470 on the N=5 plaquette's 25 (the one-call-per-insert sweep counted
450 and 2,630).  ``varsim.exact_eom`` runs the same sweep through the traced
``Circuit.tangents``, in the middle frame: stages 0-9 of the chain run
forward (10 + 124 pushed + 10 insert calls), the state runs on through the
other 8, and those 8 run backward (8 insert calls, then H psi and their
live rows pulled back: 8 + 90), 258 rows in all; the plaquette's middle
frame is stage 12, 1,204 rows.  The Hadamard route is pinned too: one
call of the estimator that ``varsim.make_estimator`` builds for it on the
benchmark's L=3 N=1 chain runs its stage sweep through the traced kernels
and calls no ``hadamard_test``, and the traced wrappers must accept it.  One
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
from quditgauge.config import parse_config
from quditgauge.varsim import RunContext, exact_eom
rows, calls = [], []
for model in (
    {"model": {"dimension": 1, "num_links": 7}, "ansatz": {"family": "chain", "layers": 3}},
    {
        "model": {"dimension": 2, "num_links": 4},
        "ansatz": {"family": "plaquette", "layers": 5, "include_plaquette_gate": True},
        "evolution": {"mode": "vrte"},
    },
):
    ctx = RunContext.from_config(parse_config(model))
    circ, theta = ctx.circuit, [0.1] * ctx.circuit.num_params
    for sweep in (lambda: circ.tangents(theta, ctx.psi0), lambda: exact_eom(circ, theta, ctx.spectrum, ctx.psi0, "real")):
        before = tracer.counts.get("core.kernel.rows", 0), tracer.calls.get("ansatz.tangents", 0)
        sweep()
        rows.append(tracer.counts["core.kernel.rows"] - before[0])
        calls.append(tracer.calls["ansatz.tangents"] - before[1])
print(json.dumps({"calls": calls, "rows": rows, "middle": circ.tangent_plan.middle}))
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
    # each sweep, exact_eom's too, is one traced Circuit.tangents call
    assert result["calls"] == [1, 1, 1, 1]
    assert result["middle"] == 12
    # L=7 N=3 chain (81 gates, 33 slots), then the N=5 plaquette with the gate
    # (185 gates and slots): output frame, then exact_eom's middle frame
    assert result["rows"] == [387, 258, 2470, 1204]


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
