"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest bench/selftest.py -q

They show that the gate can fail, that the per-cycle counts repeat exactly,
that the traced run covers the layers each workload is meant to exercise,
that BENCHMARK.json names exactly the metrics the runner prints, and that
the runner refuses to run without the package.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())


def _once(name, traced=False, reference=True):
    """One cycle (seconds=0) of a workload on the default seed."""
    return run.run_workload(name, workloads.DEFAULT_SEED, 0.0, traced,
                            setup_times=[(1.0, run.PROBE_REF_S)], reference=reference)


def _perturbed(name):
    ref = copy.deepcopy(REFERENCE[name])
    if name == "sweep":
        ref["items"][0]["slopes"][1] += 0.01
    elif name == "scan":
        ref["items"][0]["spectra"][0][0] += 1e-8
    else:
        ref["digests"]["effective.json"] = "0" * 64
    return ref


@pytest.mark.parametrize("name", ["sweep", "scan", "cli"])
def test_reference_passes_and_perturbed_reference_fails(name):
    result, report = _once(name, reference=REFERENCE[name])
    assert result["correct"] and report["fail_share"] == 0, report["errors"]
    result, report = _once(name, reference=_perturbed(name))
    assert not result["correct"]
    assert report["fail_share"] > 0
    assert "reference" in report["errors"][0]


def test_slope_gate_is_one_sided():
    wl = object.__new__(workloads.Sweep)
    wl.items = [{"preset": "kagome", "z": 1.0}]
    w = np.asarray(workloads.OMEGAS)
    # Steeper than expected passes (Lieb at z = 1.8 has order-1 slope -2.33).

    def check(order0, order1):
        return wl.check(0, {0: w ** order0, 1: w ** order1}, None)

    assert check(-1.0, -3.0) is None
    assert "order 1 slope" in check(-1.0, -1.0)
    assert "order 0 slope" in check(-0.5, -2.0)


@pytest.mark.parametrize("name", ["scan", "cli"])
def test_counts_repeat_exactly(name):
    first, _ = _once(name, traced=True)
    second, _ = _once(name, traced=True)
    a, b = first["metrics"], second["metrics"]
    for key in tracing.EXACT_COUNTS:
        assert a[key]["value"] == b[key]["value"], key
    if name == "scan":
        assert a["drive.cutoff_escalations"]["value"] > 0
        assert a["lattice.bloch_matrix_calls"]["value"] > 0
        assert a["floquet.propagate_calls"]["value"] == 0
    else:
        for key in ("floquet.propagate_calls", "floquet.resolutions",
                    "floquet.substeps", "serialization.bytes"):
            assert a[key]["value"] > 0, key
        assert a["config.load_ms"]["value"] > 0
        assert a["serialization.write_ms"]["value"] > 0


def test_sweep_time_is_in_the_propagator():
    result, _ = _once("sweep", traced=True)
    assert result["metrics"]["floquet.propagate_share"]["value"] >= 0.9


def test_tracer_restores_the_package():
    ff = run.import_package()
    from floquet_forge import cli, effective, floquet
    before = (floquet.propagate_period, cli.propagate_period, effective.lattice_harmonics)
    with tracing.Tracer(ff, {}):
        assert floquet.propagate_period is not before[0]
        assert cli.propagate_period is floquet.propagate_period
    assert (floquet.propagate_period, cli.propagate_period, effective.lattice_harmonics) == before


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
