"""Run one quditgauge CLI command in this process and record where its time went.

    python3 perfbench/child.py --stats <file> --trace <0|1> -- <cli arguments>

The program is imported from ``src/`` next to this directory and run through
``quditgauge.cli.main``, so the command is the CLI command itself.  Before it
runs, public functions are replaced, at the names the program looks them up
by, with wrappers that open a span.  ``--trace 0`` wraps only the three
boundaries the end-to-end metrics need (set-up, the ``run_*`` loop, the ``cmd_*``
function); ``--trace 1`` wraps every layer.  Each span is folded into
per-name totals when it closes: calls, busy time (outermost span of a name
only) and self time (duration minus the time covered by child spans).  A
Hadamard-route command closes hundreds of thousands of spans, too many to keep.

Spans are timed on the process's CPU clock (``time.process_time``), not the
wall clock.  The benchmark runs this process with one BLAS thread, so the
CPU clock counts the work of the command's single compute thread; unlike the
wall clock, it does not count the time the virtual CPU is taken away by the
host (steal time), which on a shared host moves a command's wall time by
more than a quarter from one minute to the next.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []  # [start, time covered by child spans]
        self._depth: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, func):
        clock = time.process_time
        stack, depth = self._stack, self._depth
        calls, busy, self_time = self.calls, self.busy, self.self_time

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            try:
                return func(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                calls[name] = calls.get(name, 0) + 1
                self_time[name] = self_time.get(name, 0.0) + dur - frame[1]
                if depth[name] == 0:
                    busy[name] = busy.get(name, 0.0) + dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "busy": self.busy,
            "self": self.self_time,
            "counts": self.counts,
        }


def _rebind(owner, attr: str, wrapper_factory) -> None:
    """Replace ``owner.attr`` and every alias of it in the program's modules."""
    original = getattr(owner, attr)
    wrapped = wrapper_factory(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "quditgauge":
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _kernel_pattern(num_qudits: int, targets) -> str:
    """The branch ``core.batch_kernel`` takes for these targets."""
    targets = tuple(targets)
    if len(targets) == 1:
        return "single"
    if len(targets) == 2 and targets[1] == targets[0] + 1:
        return "pair"
    if len(targets) == num_qudits:
        return "full"
    return "general"


def install(tracer: Tracer, full: bool) -> None:
    from quditgauge import ansatz, cli, core, measure, model, oracle, varsim

    ctx_cls = varsim.RunContext
    ctx_cls.from_config = classmethod(tracer.span("setup", ctx_cls.from_config.__func__))
    for name in ("run_ground_search", "run_quench"):
        setattr(varsim, name, tracer.span("varsim.run", getattr(varsim, name)))
    for name in ("cmd_ground", "cmd_quench"):
        setattr(cli, name, tracer.span("cli.cmd", getattr(cli, name)))
    if not full:
        return

    def spanned(name):
        return lambda func: tracer.span(name, func)

    def kernel_factory(original):
        @functools.wraps(original)
        def batch_kernel(num_qudits, d, targets):
            pattern = _kernel_pattern(num_qudits, targets)
            run = tracer.span(f"core.kernel.{pattern}", original(num_qudits, d, targets))
            dim = d**num_qudits

            def counted(rows, matrix):
                tracer.count("core.kernel.rows", rows.shape[0])
                tracer.count("core.kernel.bytes", rows.shape[0] * dim * 16 * 2)
                return run(rows, matrix)

            return counted

        return batch_kernel

    def hadamard_factory(original):
        inner = tracer.span("measure.hadamard_test", original)

        @functools.wraps(original)
        def hadamard_test(psi0, steps, *args, **kwargs):
            tracer.count("measure.hadamard_test.ops", len(steps))
            return inner(psi0, steps, *args, **kwargs)

        return hadamard_test

    _rebind(core, "batch_kernel", kernel_factory)
    for attr in ("hermitian_expm", "apply", "entanglement_entropy"):
        _rebind(core, attr, spanned(f"core.{attr}"))
    ansatz.Circuit.state = tracer.span("ansatz.state", ansatz.Circuit.state)
    ansatz.Circuit.tangents = tracer.span("ansatz.tangents", ansatz.Circuit.tangents)
    for attr in ("exact_eom", "solve_flow", "snapshot"):
        _rebind(varsim, attr, spanned(f"varsim.{attr}"))
    _rebind(varsim, "build_hamiltonian", spanned("model.build"))
    _rebind(model, "materialize", spanned("model.materialize"))
    _rebind(model, "unitary_split", spanned("model.unitary_split"))
    for attr in ("eigendecompose", "evolve_real"):
        _rebind(oracle, attr, spanned(f"oracle.{attr}"))
    _rebind(measure, "element_from_hadamard", spanned("measure.element_from_hadamard"))
    _rebind(measure, "hadamard_test", hadamard_factory)


def peak_rss_kb() -> int:
    """Peak resident memory of this process since its exec (Linux ``VmHWM``).

    ``ru_maxrss`` is no substitute: it carries over the parent's peak across
    the vfork and exec that start this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    import quditgauge
    from quditgauge import cli

    if not Path(quditgauge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"quditgauge was imported from {quditgauge.__file__}, not from src/", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer, bool(args.trace))
    code = cli.main(cli_args)
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(dict(tracer.summary(), peak_rss_kb=peak_rss_kb()), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
