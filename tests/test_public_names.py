"""Every public name in the package has a caller in the package.

A public module-level function or class, or a public method, that nothing
in ``src/quditgauge`` refers to outside its own definition (``__init__.py``'s
re-exports do not count) runs only under the tests, and belongs in
``tests/helpers.py``.  The exceptions are the names the benchmark reaches
from outside: the functions ``perfbench/child.py``'s ``install`` wraps by
name, the builders ``perfbench/reference.py`` reads, and the console
script ``cli.main``.

The check is by name: a reference to any attribute or variable of the same
name counts, so it can miss a dead method that shares its name with a live
one, but it never flags a live name.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quditgauge"

# (module, name) -> the file outside the package that reaches it
REACHED_FROM_OUTSIDE = {
    ("core", "batch_kernel"): "perfbench/child.py",
    ("core", "hermitian_expm"): "perfbench/child.py",
    ("core", "apply"): "perfbench/child.py",
    ("core", "entanglement_entropy"): "perfbench/child.py",
    ("ansatz", "Circuit.state"): "perfbench/child.py",
    ("ansatz", "Circuit.tangents"): "perfbench/child.py",
    ("varsim", "exact_eom"): "perfbench/child.py",
    ("varsim", "solve_flow"): "perfbench/child.py",
    ("varsim", "snapshot"): "perfbench/child.py",
    ("varsim", "build_hamiltonian"): "perfbench/child.py",
    ("varsim", "RunContext.from_config"): "perfbench/child.py",
    ("varsim", "run_ground_search"): "perfbench/child.py",
    ("varsim", "run_quench"): "perfbench/child.py",
    ("cli", "cmd_ground"): "perfbench/child.py",
    ("cli", "cmd_quench"): "perfbench/child.py",
    ("model", "materialize"): "perfbench/child.py",
    ("model", "unitary_split"): "perfbench/child.py",
    ("oracle", "eigendecompose"): "perfbench/child.py",
    ("oracle", "evolve_real"): "perfbench/child.py",
    ("measure", "element_from_hadamard"): "perfbench/child.py",
    ("measure", "hadamard_test"): "perfbench/child.py",
    ("model", "chain_hamiltonian"): "perfbench/reference.py",
    ("model", "plaquette_hamiltonian"): "perfbench/reference.py",
    ("model", "fermion_number_ops"): "perfbench/reference.py",
    ("cli", "main"): "pyproject.toml",  # the console script
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(modules):
    """(module, qualified name, node) of every public module-level function or class and public method."""
    for module, tree in modules.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node.name, node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield module, f"{node.name}.{sub.name}", sub


def _referenced(modules, module: str, node) -> bool:
    """Whether any Name or Attribute of the definition's name occurs in the package outside it."""
    for other, tree in modules.items():
        if other == "__init__":
            continue
        for ref in ast.walk(tree):
            name = ref.id if isinstance(ref, ast.Name) else ref.attr if isinstance(ref, ast.Attribute) else None
            if name != node.name:
                continue
            if other == module and node.lineno <= ref.lineno <= node.end_lineno:
                continue  # inside its own definition
            return True
    return False


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    unused = [
        f"{module}.{name}"
        for module, name, node in _public_definitions(modules)
        if (module, name) not in REACHED_FROM_OUTSIDE and not _referenced(modules, module, node)
    ]
    assert not unused, f"public names only the tests call (move them to tests/helpers.py): {unused}"


def test_each_exception_is_a_public_name_its_outside_caller_names():
    modules = _modules()
    defined = {(module, name) for module, name, _ in _public_definitions(modules)}
    for (module, name), caller in REACHED_FROM_OUTSIDE.items():
        assert (module, name) in defined, f"{module}.{name} is not defined"
        assert name.split(".")[-1] in (ROOT / caller).read_text(encoding="utf-8"), (module, name, caller)
