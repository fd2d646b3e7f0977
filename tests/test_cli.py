"""Configuration handling, output formats, determinism, exit codes."""
import ctypes
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quditgauge.cli import main
from quditgauge.config import ConfigError, config_hash, load_config, parse_config
from quditgauge.measure import hadamard_plan
from quditgauge.model import hamiltonian_unitary_pieces
from quditgauge.varsim import RunContext

SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path: Path, name: str, data: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


SMALL_GROUND = {
    "model": {"dimension": 1, "num_links": 3},
    "ansatz": {"family": "chain", "layers": 2, "init_seed": 1},
    "evolution": {"mode": "vite", "dt": 0.05, "steps": 120},
}

SITES = ["n_0", "n_1", "n_2", "n_3"]  # the L=3 chain's four sites

SMALL_QUENCH = {
    "model": {"dimension": 1, "num_links": 3},
    "ansatz": {"family": "chain", "layers": 2},
    "evolution": {"mode": "vrte", "dt": 0.02, "steps": 30, "integrator": "rk4"},
}


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = parse_config({})
        assert cfg.model.g == 1.0
        assert cfg.evolution.mode == "vite"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"modle": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"model": {"coupling": 2.0}})

    def test_bad_choice_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"model": {"electric_offset": "weird"}})

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"model": {"mass": float("inf")}})

    def test_family_geometry_coupling(self):
        with pytest.raises(ConfigError):
            parse_config({"model": {"dimension": 2, "num_links": 4}, "ansatz": {"family": "chain"}})

    def test_hash_stable_and_sensitive(self):
        a = parse_config(SMALL_GROUND)
        b = parse_config(SMALL_GROUND)
        assert config_hash(a) == config_hash(b)
        changed = dict(SMALL_GROUND)
        changed["model"] = {"dimension": 1, "num_links": 3, "g": 1.5}
        assert config_hash(parse_config(changed)) != config_hash(a)


class TestGroundCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", SMALL_GROUND)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["ground", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["ground", "--config", str(cfg_path), "--out", str(out2)]) == 0
        t1 = (out1 / "trajectory.csv").read_bytes()
        t2 = (out2 / "trajectory.csv").read_bytes()
        assert t1 == t2
        assert (out1 / "final.json").read_bytes() == (out2 / "final.json").read_bytes()

    def test_seeded_hadamard_shots_reproduce(self, tmp_path):
        data = {
            "model": {"dimension": 1, "num_links": 3},
            "ansatz": {"family": "chain", "layers": 1, "init_seed": 2},
            "evolution": {"mode": "vite", "dt": 0.05, "steps": 4},
            "estimator": {"mode": "hadamard", "shots": 500, "seed": 9},
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            assert main(["ground", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in ("trajectory.csv", "final.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_csv_structure_and_roundtrip(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", SMALL_GROUND)
        out = tmp_path / "o"
        assert main(["ground", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# quditgauge ")
        header = lines[1].split(",")
        assert header == ["step", "tau", "energy", "fidelity", "entropy", *SITES, "grad_norm", "m_cond"]
        row = lines[2].split(",")
        # 17 significant digits round-trip exactly
        for field in row:
            val = float(field)
            assert float(format(val, ".17g")) == val
        final = json.loads((out / "final.json").read_text())
        assert final["config_hash"] == config_hash(parse_config(SMALL_GROUND))
        assert sorted(final) == [
            "config_hash", "energy", "entropy", "fidelity", "grad_norm", "ground_energy", "steps_run", "tau", "theta",
            "version",
        ]

    def test_seed_override_changes_run(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", SMALL_GROUND)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["ground", "--config", str(cfg_path), "--out", str(out1), "--seed", "5"]) == 0
        assert main(["ground", "--config", str(cfg_path), "--out", str(out2), "--seed", "6"]) == 0
        a = json.loads((out1 / "final.json").read_text())
        b = json.loads((out2 / "final.json").read_text())
        assert a["theta"] != b["theta"]


class TestQuenchCommand:
    def test_reference_columns_and_t0(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", SMALL_QUENCH)
        out = tmp_path / "o"
        assert main(["quench", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[1].split(",")
        exact = [f"exact_{name}" for name in SITES] + ["exact_entropy"]
        assert header == ["step", "t", "energy", "fidelity", "entropy", *SITES, *exact, "grad_norm", "m_cond"]
        final = json.loads((out / "final.json").read_text())
        assert sorted(final) == [
            "config_hash", "designated_site", "energy", "entropy", "fidelity", "steps_run", "t", "theta", "version",
        ]
        first = dict(zip(header, lines[2].split(",")))
        assert float(first["t"]) == 0.0
        assert float(first["fidelity"]) == pytest.approx(1.0, abs=1e-12)
        assert float(first["entropy"]) == pytest.approx(0.0, abs=1e-12)
        # variational numbers start on the staggered vacuum pattern
        assert float(first["n_1"]) == pytest.approx(1.0, abs=1e-12)
        assert float(first["exact_n_1"]) == pytest.approx(1.0, abs=1e-12)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    return lines[1].split(","), np.array([[float(x) for x in line.split(",")] for line in lines[2:]])


class TestEstimatorRoutes:
    """The shift and randomized routes through the drivers, end to end."""

    CHAIN = {
        "model": {"dimension": 1, "num_links": 3},
        "ansatz": {"family": "chain", "layers": 1, "init_seed": 1},
        "evolution": {"mode": "vite", "dt": 0.05, "steps": 3, "integrator": "euler"},
    }

    def run_twice(self, tmp_path, command: str, data: dict) -> list[Path]:
        cfg_path = write_config(tmp_path, "c.json", data)
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        return outs

    def test_noiseless_shift_ground_matches_exact_route(self, tmp_path):
        results = {}
        for mode in ("exact", "shift"):
            cfg_path = write_config(tmp_path, f"{mode}.json", dict(self.CHAIN, estimator={"mode": mode}))
            out = tmp_path / mode
            assert main(["ground", "--config", str(cfg_path), "--out", str(out)]) == 0
            header, rows = read_csv(out / "trajectory.csv")
            theta = np.array(json.loads((out / "final.json").read_text())["theta"])
            results[mode] = rows[:, header.index("energy")], theta
        (e_exact, th_exact), (e_shift, th_shift) = results["exact"], results["shift"]
        assert e_exact.shape == e_shift.shape == (4,)
        assert np.max(np.abs(e_shift - e_exact)) < 1e-8
        assert np.max(np.abs(th_shift - th_exact)) < 1e-8

    def test_seeded_shift_shots_reproduce(self, tmp_path):
        data = dict(self.CHAIN, estimator={"mode": "shift", "shots": 500, "seed": 4})
        outs = self.run_twice(tmp_path, "ground", data)
        for name in ("trajectory.csv", "final.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seeded_randomized_quench_reproduces(self, tmp_path):
        data = dict(
            self.CHAIN,
            evolution={"mode": "vrte", "dt": 0.02, "steps": 2, "integrator": "euler"},
            estimator={"mode": "randomized", "samples": 4, "seed": 3},
        )
        outs = self.run_twice(tmp_path, "quench", data)
        header, rows = read_csv(outs[0] / "trajectory.csv")
        assert rows.shape[0] == 3 and np.all(np.isfinite(rows))
        for name in ("trajectory.csv", "final.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestMeasureCheckCommand:
    def test_chain_rows_and_deviations(self, tmp_path):
        data = {"model": {"dimension": 1, "num_links": 3}, "ansatz": {"family": "chain", "layers": 1}}
        cfg_path = write_config(tmp_path, "c.json", data)
        out = tmp_path / "o"
        assert main(["measure-check", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "measure_check.csv")
        npar = 8
        assert rows.shape == (npar * (npar + 1) // 2 + 2 * npar, len(header))
        assert np.bincount(rows[:, 0].astype(int)).tolist() == [npar * (npar + 1) // 2, npar, npar]
        summary = json.loads((out / "measure_summary.json").read_text())
        assert summary["max_abs_dev_shift"] < 1e-8
        assert summary["max_abs_dev_hadamard"] < 1e-8


    def test_hadamard_test_counts_cover_every_word(self, tmp_path):
        data = {"model": {"dimension": 1, "num_links": 3}, "ansatz": {"family": "chain", "layers": 1}}
        cfg_path = write_config(tmp_path, "c.json", data)
        out = tmp_path / "o"
        assert main(["measure-check", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "measure_check.csv")
        kinds, tests = rows[:, 0].astype(int), rows[:, header.index("hadamard_tests")]
        ctx = RunContext.from_config(parse_config(data))
        route = hadamard_plan(ctx.circuit, hamiltonian_unitary_pieces(ctx.ham_spec))
        metric = ctx.circuit.num_params * (ctx.circuit.num_params + 1) // 2
        imag, real = route.tests["imag"].counts(), route.tests["real"].counts()
        totals = [int(imag[:metric].sum()), int(imag[metric:].sum()), int(real[metric:].sum())]
        assert [int(tests[kinds == k].sum()) for k in range(3)] == totals == [474, 440, 622]

    def test_hadamard_test_counts_of_one_gate(self, tmp_path, monkeypatch):
        # one rotation (g = 1, pieces u and u^dag) and the L=3 chain's B = 20
        # Hamiltonian pieces: 6 single-qudit terms split in 2 each, and one
        # hopping triple in 8.  M(0, 0): 2 * 2 pair words + 2 + 2 singles;
        # VI: 2 * 20 pair words; VR: those, 2 + 20 singles
        from quditgauge import varsim
        from quditgauge.ansatz import Circuit, Gate
        from quditgauge.core import LocalOperator, embedded_pauli

        gen = LocalOperator(3, (1,), embedded_pauli(3, 0, 1, "X").matrix / 2.0, hermitian=True)
        circ = Circuit((Gate("rotation", (1,), 0, gen, (0, 1), 0.0),), 1, 3, 3, 1, "one-gate")
        monkeypatch.setattr(varsim, "build_circuit", lambda cfg: circ)
        data = {"model": {"dimension": 1, "num_links": 3}, "ansatz": {"family": "chain", "layers": 1}}
        cfg_path = write_config(tmp_path, "c.json", data)
        out = tmp_path / "o"
        assert main(["measure-check", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "measure_check.csv")
        assert rows[:, header.index("hadamard_tests")].tolist() == [8, 40, 62]
        summary = json.loads((out / "measure_summary.json").read_text())
        assert summary["max_abs_dev_hadamard"] < 1e-12


class TestExactCommand:
    def test_spectrum_and_series(self, tmp_path):
        data = {
            "model": {"dimension": 1, "num_links": 3},
            "evolution": {"mode": "vrte", "dt": 0.1, "steps": 20},
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        out = tmp_path / "o"
        assert main(["exact", "--config", str(cfg_path), "--out", str(out)]) == 0
        spec = json.loads((out / "spectrum.json").read_text())
        w = spec["lowest_eigenvalues"]
        assert all(a <= b + 1e-12 for a, b in zip(w, w[1:]))
        # L=3 has no committed fixture; the ground energy is still embedded
        assert spec["ground_energy"] == pytest.approx(-0.26032778079, abs=1e-9)
        header, rows = read_csv(out / "exact.csv")
        assert header == ["step", "t", "energy", *SITES, "entropy"]
        assert rows.shape == (21, len(header))

    def test_series_stable_under_dt_halving(self, tmp_path):
        rows = {}
        for dt, steps in ((0.1, 10), (0.05, 20)):
            data = {
                "model": {"dimension": 1, "num_links": 3},
                "evolution": {"mode": "vrte", "dt": dt, "steps": steps},
            }
            cfg_path = write_config(tmp_path, f"c{dt}.json", data)
            out = tmp_path / f"o{dt}"
            assert main(["exact", "--config", str(cfg_path), "--out", str(out)]) == 0
            lines = (out / "exact.csv").read_text().splitlines()
            header = lines[1].split(",")
            for line in lines[2:]:
                vals = dict(zip(header, line.split(",")))
                rows.setdefault(dt, {})[round(float(vals["t"]), 10)] = float(vals["n_1"])
        common = set(rows[0.1]) & set(rows[0.05])
        assert len(common) == 11
        for t in common:
            assert abs(rows[0.1][t] - rows[0.05][t]) < 1e-8

    def test_dimension_cap_exit_code(self, tmp_path):
        data = {"model": {"dimension": 1, "num_links": 9}}
        cfg_path = write_config(tmp_path, "c.json", data)
        assert main(["exact", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4


class TestInfoCommand:
    def test_entangling_counts(self, tmp_path, capsys):
        data = {
            "model": {"dimension": 1, "num_links": 7},
            "ansatz": {"family": "chain", "layers": 3},
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        assert main(["info", "--config", str(cfg_path)]) == 0
        text = capsys.readouterr().out
        assert "entangling gates: 18" in text
        assert "parameters: 33" in text

    def test_plaquette_crot_count(self, tmp_path, capsys):
        data = {
            "model": {"dimension": 2, "num_links": 4},
            "ansatz": {"family": "plaquette", "layers": 2},
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        assert main(["info", "--config", str(cfg_path)]) == 0
        text = capsys.readouterr().out
        assert "entangling gates: 8" in text


MATRIX_FREE_MODELS = {
    "chain": ({"dimension": 1, "num_links": 3}, {"family": "chain", "layers": 1, "init_seed": 1}),
    "plaquette": ({"dimension": 2, "num_links": 4}, {"family": "plaquette", "layers": 1, "init_seed": 1}),
}
MATRIX_FREE_RUNS = [
    ("ground", "vite", "exact"),
    ("ground", "vite", "shift"),
    ("ground", "vite", "hadamard"),
    ("quench", "vrte", "exact"),
    ("quench", "vrte", "randomized"),
    ("exact", "vrte", "exact"),
    ("measure-check", "vite", "exact"),
    ("info", "vite", "exact"),
]


class TestMatrixFreeRunPath:
    """Every command runs without the dense Hamiltonian or its dense eigensolve."""

    @pytest.mark.parametrize("model_name", sorted(MATRIX_FREE_MODELS))
    @pytest.mark.parametrize("command,mode,estimator", MATRIX_FREE_RUNS, ids=["-".join(r[::2]) for r in MATRIX_FREE_RUNS])
    def test_exits_0_without_dense_matrix(self, tmp_path, monkeypatch, model_name, command, mode, estimator):
        from quditgauge import model, oracle

        def refuse(ham):
            raise AssertionError("dense Hamiltonian built")

        monkeypatch.setattr(model, "materialize", refuse)
        monkeypatch.setattr(oracle, "eigendecompose", refuse)
        model_cfg, ansatz_cfg = MATRIX_FREE_MODELS[model_name]
        data = {
            "model": model_cfg,
            "ansatz": ansatz_cfg,
            "evolution": {"mode": mode, "dt": 0.02, "steps": 1 if estimator == "randomized" else 2, "integrator": "euler"},
            "estimator": {"mode": estimator, "samples": 2},
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        args = [command, "--config", str(cfg_path)]
        assert main(args if command == "info" else args + ["--out", str(tmp_path / "o")]) == 0


class TestErrorPaths:
    def test_config_error_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", {"model": {"what": 1}})
        assert main(["ground", "--config", str(cfg_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["ground", "--config", str(tmp_path / "missing.json")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["ground", "--config", str(path)]) == 2

    def test_mode_command_mismatch(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", SMALL_QUENCH)
        assert main(["ground", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("ansatz", "layers", "2"),
            ("model", "num_links", "7"),
            ("output", "precision", "x"),
            ("ansatz", "layers", 1.5),
            ("evolution", "steps", 2.5),
            ("model", "dimension", True),
            ("estimator", "samples", -3),
            ("ansatz", "init_range", -1),
            ("evolution", "cutoff", 1e6),
            ("ansatz", "init_seed", -1),
            ("estimator", "seed", -1),
        ],
    )
    def test_bad_field_value_exits_2(self, tmp_path, capsys, section, key, value):
        data = json.loads(json.dumps(SMALL_GROUND))
        data.setdefault(section, {})[key] = value
        cfg_path = write_config(tmp_path, "c.json", data)
        assert main(["ground", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    # both fields admitted a single value (local_dim 3, tikhonov 0) and are gone
    @pytest.mark.parametrize("section,key,value", [("model", "local_dim", 3), ("evolution", "tikhonov", 0.0)])
    def test_removed_field_is_an_unknown_key(self, tmp_path, capsys, section, key, value):
        data = json.loads(json.dumps(SMALL_GROUND))
        data[section][key] = value
        cfg_path = write_config(tmp_path, "c.json", data)
        assert main(["ground", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown keys in section {section!r}: [{key!r}]" in capsys.readouterr().err

    def test_negative_seed_override_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", SMALL_GROUND)
        assert main(["ground", "--config", str(cfg_path), "--seed", "-2", "--out", str(tmp_path / "o")]) == 2

    def test_measure_check_rejects_large_model_before_building_it(self, tmp_path, monkeypatch, capsys):
        from quditgauge import model, oracle

        def refuse(ham):
            raise AssertionError("Hamiltonian built")

        monkeypatch.setattr(model, "materialize", refuse)
        monkeypatch.setattr(oracle, "eigendecompose", refuse)
        monkeypatch.setattr(oracle, "sector_spectrum", refuse)
        data = {"model": {"dimension": 1, "num_links": 7}, "ansatz": {"family": "chain", "layers": 1}}
        cfg_path = write_config(tmp_path, "c.json", data)
        assert main(["measure-check", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "measure-check is limited to dimension <= 243 (a chain of at most 5 links)" in capsys.readouterr().err


    def test_randomized_dimension_limit_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        from quditgauge import model, oracle

        def refuse(ham):
            raise AssertionError("Hamiltonian built")

        monkeypatch.setattr(model, "materialize", refuse)
        monkeypatch.setattr(oracle, "eigendecompose", refuse)
        monkeypatch.setattr(oracle, "sector_spectrum", refuse)
        data = {
            "model": {"dimension": 1, "num_links": 5},
            "ansatz": {"family": "chain", "layers": 1},
            "evolution": {"mode": "vrte", "steps": 2},
            "estimator": {"mode": "randomized"},
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        assert main(["quench", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "dimension <= 81" in capsys.readouterr().err


class TestOverflowingValues:
    """Values whose arithmetic overflows are config errors, named, with no traceback."""

    PLAQUETTE_QUENCH = {
        "model": {"dimension": 2, "num_links": 4},
        "ansatz": {"family": "plaquette", "layers": 1},
        "evolution": {"mode": "vrte", "dt": 0.02, "steps": 2},
    }

    @pytest.mark.parametrize(
        "command,base,section,key,value",
        [
            ("ground", SMALL_GROUND, "model", "g", 1e200),  # g^2/2 in chain_hamiltonian
            ("quench", PLAQUETTE_QUENCH, "model", "g", 1e300),  # g^2/2 in plaquette_hamiltonian
            ("ground", SMALL_GROUND, "ansatz", "init_range", 1e308),  # the uniform draw's width
            ("ground", SMALL_GROUND, "estimator", "shots", 10**22),  # the shift route's binomial draws
        ],
        ids=["chain-g", "plaquette-g", "init-range", "shots"],
    )
    def test_exits_2_without_traceback(self, tmp_path, command, base, section, key, value):
        data = json.loads(json.dumps(base))
        data.setdefault(section, {})[key] = value
        if key == "shots":
            data["estimator"]["mode"] = "shift"
        cfg_path = write_config(tmp_path, "c.json", data)
        proc = subprocess.run(
            [sys.executable, "-m", "quditgauge.cli", command, "--config", str(cfg_path), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"config error: {section}.{key}" in proc.stderr


class TestAllocationTooLarge:
    """A draw too large for any host exits 4 with one line, not a MemoryError traceback."""

    @pytest.mark.parametrize(
        "command,mode,estimator",
        [
            ("quench", "vrte", {"mode": "randomized", "samples": 10**15}),  # the snapshot draw
            ("ground", "vite", {"mode": "shift", "shots": 10**15}),  # the spectrum draws of an energy
        ],
        ids=["randomized-samples", "shift-shots"],
    )
    def test_exits_4_without_traceback(self, tmp_path, command, mode, estimator):
        data = {
            "model": {"dimension": 1, "num_links": 3},
            "ansatz": {"family": "chain", "layers": 1},
            "evolution": {"mode": mode, "dt": 0.02, "steps": 2},
            "estimator": estimator,
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        proc = subprocess.run(
            [sys.executable, "-m", "quditgauge.cli", command, "--config", str(cfg_path), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("allocation too large: ") and proc.stderr.count("\n") == 1


class TestFileErrors:
    """A config or output path the CLI cannot use exits 2 with one line, before any work."""

    @pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8", "out-is-a-file", "out-under-a-file"])
    def test_exits_2_without_traceback(self, tmp_path, case):
        cfg_path = write_config(tmp_path, "c.json", SMALL_GROUND)
        out = tmp_path / "o"
        if case == "config-is-a-directory":
            cfg_path = tmp_path
        elif case == "config-not-utf8":
            cfg_path.write_bytes(b"\xff\xfe" + cfg_path.read_bytes())
        elif case == "out-is-a-file":
            out.write_text("", encoding="utf-8")
        else:
            (tmp_path / "f").write_text("", encoding="utf-8")
            out = tmp_path / "f" / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "quditgauge.cli", "ground", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["ground", "quench", "exact", "measure-check"])
    def test_output_directory_is_checked_before_the_model_is_built(self, tmp_path, monkeypatch, capsys, command):
        def refuse(cls, cfg):
            raise AssertionError("the run context was built")

        monkeypatch.setattr(RunContext, "from_config", classmethod(refuse))
        cfg_path = write_config(tmp_path, "c.json", SMALL_QUENCH if command == "quench" else SMALL_GROUND)
        out = tmp_path / "o"
        out.write_text("", encoding="utf-8")
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "config error: cannot create the output directory" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_m_quditgauge_runs_info(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", SMALL_GROUND)
        proc = subprocess.run(
            [sys.executable, "-m", "quditgauge", "info", "--config", str(cfg_path)],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert "parameters: " in proc.stdout


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
class TestFreedPagesKept:
    """The CLI keeps freed heap pages, so an EOM does not fault its arrays in anew on every call."""

    def test_quench_faults_few_pages(self, tmp_path):
        resource = pytest.importorskip("resource")
        data = {
            "model": {"dimension": 2, "num_links": 4},
            "ansatz": {"family": "plaquette", "layers": 5, "include_plaquette_gate": True},
            "evolution": {"mode": "vrte", "dt": 0.01, "steps": 10, "integrator": "rk4"},
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")

        def minor_faults(command):
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            proc = subprocess.run(
                [sys.executable, "-m", "quditgauge", command, "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                capture_output=True,
                text=True,
                timeout=300,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        # start-up, imports and set-up fault alike in both; the 40 EOMs of the
        # quench faulted about 13,000 pages more when glibc trimmed its heap
        assert minor_faults("quench") - minor_faults("info") < 3000


class TestNumericalFailure:
    # dt = 1e308 overshoots at once: the ground search runs out of halvings
    # (it used to take the uphill step and write "tau": Infinity with exit 0),
    # and the exact reference of the quench and of the exact command overflows
    @pytest.mark.parametrize("command,mode", [("ground", "vite"), ("quench", "vrte"), ("exact", "vrte")])
    def test_runaway_step_exits_3_naming_the_step(self, tmp_path, capsys, command, mode):
        data = {
            "model": {"dimension": 1, "num_links": 3},
            "ansatz": {"family": "chain", "layers": 1, "init_seed": 1},
            "evolution": {"mode": mode, "dt": 1e308, "steps": 6, "integrator": "euler"},
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
        assert re.search(r"numerical failure: step \d+: ", capsys.readouterr().err)
        assert not (out / "final.json").exists() and not list(out.glob("*.csv"))


class TestNonFiniteTrajectory:
    """A non-finite value in a trajectory row stops the run with exit 3, naming the step and the column."""

    # v stays finite near 1e160, but its norm overflows in the grad_norm column
    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("ground", "mass", 1e160),
            ("ground", "hopping_scale", 1e160),
            ("quench", "mass", 1e160),
            ("quench", "mass", 1e200),
            ("quench", "hopping_scale", 1e160),
        ],
    )
    def test_exits_3_with_one_line(self, tmp_path, command, key, value):
        data = {
            "model": {"dimension": 1, "num_links": 3, key: value},
            "ansatz": {"family": "chain", "layers": 1, "init_seed": 1},
            "evolution": {"mode": "vite" if command == "ground" else "vrte", "dt": 0.05, "steps": 4},
        }
        cfg_path = write_config(tmp_path, "c.json", data)
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "quditgauge.cli", command, "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 3, proc.stderr
        assert re.fullmatch(r"numerical failure: step \d+: non-finite grad_norm\n", proc.stderr), proc.stderr
        assert not (out / "final.json").exists() and not list(out.glob("*.csv"))


class TestBootstrap:
    def test_verify_clean(self, capsys):
        assert main(["bootstrap-fixtures"]) == 0
        assert "verified" in capsys.readouterr().out
