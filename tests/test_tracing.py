"""The traced benchmark in perfbench/ wraps program functions by name.

``perfbench/child.py``'s ``install`` looks up, and fails on a missing one:
``core.batch_kernel``, ``hermitian_expm``, ``apply`` and
``entanglement_entropy``; ``Circuit.state`` and ``Circuit.tangents``;
``varsim.exact_eom``, ``solve_flow``, ``snapshot`` and ``build_hamiltonian``;
the classmethod ``RunContext.from_config``; ``model.materialize`` and
``unitary_split``; ``oracle.eigendecompose`` and ``evolve_real``;
``measure.element_from_hadamard`` and ``hadamard_test``.  Installing it here
makes a rename or removal fail the tests rather than a traced benchmark run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from child import Tracer, install
install(Tracer(), True)
"""


def test_tracer_installs_on_every_wrapped_function():
    code = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    # -B: write no bytecode next to the benchmark's files
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
