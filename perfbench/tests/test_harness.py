"""Self-test of the benchmark harness on tiny corpora.

    python -m pytest perfbench/tests -q

Checks the statistics helpers and the speed references, that every gate
passes on the program as it is and fails on a deliberately wrong result,
and that run.py prints exactly the metrics BENCHMARK.json declares.  One
strict expected failure records a known defect of ml_reconstruct.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import cli_workload  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gates import GateFailure  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, pct, beyond = run.tail(values)
    assert (value, pct, beyond) == (89, 90.0, 10)
    assert sum(v > value for v in values) == 10
    # too few samples for a percentile above the median: never below the median
    assert run.tail([3, 1, 2])[0] == 2
    assert run.tail([4, 1, 3, 2])[0] == 3


def test_interleave_spreads_each_group():
    merged = workloads.interleave([list("aaaaaa"), list("bb")])
    assert sorted(merged) == sorted("aaaaaabb")
    first_half = merged[: len(merged) // 2]
    assert first_half.count("b") == 1


def test_golden_comparison_is_exact_on_text_and_tolerant_on_numbers():
    assert cli_workload.compare_text("S = 2.0000001\n", "S = 2.0\n") is None
    assert cli_workload.compare_text("S = 2.01\n", "S = 2.0\n") is not None
    assert cli_workload.compare_text("|S| = 2.0\n", "S = 2.0\n") == "text differs"


def test_importtime_parse():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1000 |       1000 |   numpy.core\n"
        "import time:       500 |       1500 | numpy\n"
        "import time:      2000 |       2000 |   scipy.optimize\n"
        "import time:       100 |       3700 | ering\n"
    )
    got = cli_workload.parse_importtime(stderr)
    assert got == pytest.approx({"total_s": 3.7e-3, "scipy_s": 2e-3, "numpy_s": 1.5e-3})


def test_scale_each_follows_a_speed_change():
    # the machine halves its speed after item 5: raw latencies and references double
    raw = [1.0] * 5 + [2.0] * 5
    refs = [0.5] * 5 + [1.0] * 5
    scaled = calibrate.scale_each(raw, refs, 0.5, halfwidth=1)
    assert scaled == pytest.approx([1.0] * 10)
    # a single slow reference does not move its neighbours
    assert calibrate.scale_each([1.0] * 5, [0.5, 0.5, 5.0, 0.5, 0.5], 0.5, 1) == pytest.approx([1.0] * 5)


def test_references_are_timed_and_do_not_preload_numpy():
    assert 0 < calibrate.kernel() < 5
    assert 0 < calibrate.import_numpy(cli_workload.hermetic_env()) < 30
    # a set-up probe imports these before it times ``import ering``
    probe = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
        "import calibrate, cli_workload, gates; assert 'numpy' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)


def test_fidelity_covers_the_corpus_whatever_was_reached(tmp_path):
    wl = workloads.Characterize()
    items = wl.build(0, tmp_path)
    loop = run.run_loop(wl, items, Tracer(False), None, n_items=3)
    extra = run.complete_corpus(wl, items, loop)
    families = {i for i, item in enumerate(items) if item.kind != "random"}
    assert extra.attempted == 0 and set(extra.fidelity) == families - set(range(3))
    index = min(set(extra.fidelity))
    assert extra.fidelity[index] == pytest.approx(
        run.run_loop(wl, items, Tracer(False), None, n_items=1, first=index).fidelity[index]
    )


# Seeds of simulate_tomography on which ml_reconstruct(seed=0) fails at this commit.
SINGLET_FAILING_SEEDS = (1, 15, 21)


@pytest.mark.xfail(
    strict=True, raises=workloads.tomography.ConvergenceError,
    reason="program defect: ml_reconstruct fails on about 1 in 5 exact-singlet datasets at 40k "
    "flux; the tomography corpus leaves the singlet out until it is fixed",
)
def test_ml_reconstruct_converges_on_singlet_data():
    singlet = workloads.states.projector(workloads.states.singlet())
    for seed in SINGLET_FAILING_SEEDS:
        data = workloads.tomography.simulate_tomography(singlet, workloads.TOMO_FLUX, seed)
        workloads.tomography.ml_reconstruct(data, seed=0)


def _key(item) -> tuple:
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(item).values())


@pytest.mark.parametrize("name", ["characterize", "tomography", "bell_run"])
def test_in_process_workload_passes_its_gates(name, tmp_path):
    wl = workloads.WORKLOADS[name]()
    items = wl.build(0, tmp_path)
    again = workloads.WORKLOADS[name]().build(0, tmp_path)
    assert [_key(i) for i in items] == [_key(i) for i in again], "same seed, same corpus"
    first_of_kind = {}
    for item in items:
        first_of_kind.setdefault(wl.kind(item), item)
    tr = Tracer(True)
    loop = run.run_loop(wl, list(first_of_kind.values()), tr, None, n_items=len(first_of_kind))
    assert loop.errors == [] and loop.gate_failures == []
    names = {span[2] for span in tr.spans}
    assert {f"item.{kind}" for kind in first_of_kind} <= names
    assert all(n.split(".")[0] in LAYERS or n.startswith("item.") for n in names)


def _first(wl, kind, tmp_path):
    return next(item for item in wl.build(0, tmp_path) if wl.kind(item) == kind)


def test_characterize_gate_catches_a_wrong_optimum(tmp_path, monkeypatch):
    wl = workloads.Characterize()
    item = _first(wl, "random", tmp_path)
    real = workloads.bell.chsh_optimize
    monkeypatch.setattr(workloads.bell, "chsh_optimize", lambda rho: (real(rho)[0] * 0.99, real(rho)[1]))
    with pytest.raises(GateFailure, match="chsh_optimize"):
        wl.run_item(item, Tracer(False))


def test_tomography_gate_catches_a_worse_likelihood(tmp_path, monkeypatch):
    wl = workloads.Tomography()
    item = _first(wl, "mixed", tmp_path)
    monkeypatch.setattr(
        workloads.tomography, "ml_reconstruct",
        lambda data, seed: workloads.np.eye(4, dtype=complex) / 4,
    )
    with pytest.raises(GateFailure, match="NLL"):
        wl.run_item(item, Tracer(False))


def test_bell_gate_catches_a_biased_s(tmp_path, monkeypatch):
    wl = workloads.BellRun()
    item = _first(wl, "series", tmp_path)
    real = workloads.bell.chsh_from_counts
    monkeypatch.setattr(
        workloads.bell, "chsh_from_counts",
        lambda table, plan: (real(table, plan)[0] * 0.9, real(table, plan)[1]),
    )
    with pytest.raises(GateFailure, match="sigma"):
        wl.run_item(item, Tracer(False))


def test_cli_command_matches_golden(tmp_path):
    wl = cli_workload.Cli()
    commands = {cmd.name: cmd for cmd in wl.build(0, tmp_path)}
    tr = Tracer(True)
    assert wl.run_item(commands["bell_eval"], tr) == {}
    assert [span[2] for span in tr.spans] == ["cli.bell_eval"]


def _run_bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "bell_run", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, declared):
    result = _run_bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in DECLARED[declared]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "characterize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
