"""Benchmark of ering: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (ering is imported from ``src``).
One process, one client: the next item starts when the previous one ends.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
records a span around every call into a layer, writes them to
``.bench_out/spans-<workload>-seed<n>.jsonl`` and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the failures and the environment.
See README.md for the workloads, the metrics and how to compare commits.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("characterize", "tomography", "bell_run", "cli")
# Set-up runs in fresh interpreters, 5 times: 2 before the timed loop, 2 in
# its middle and 1 after it; each probe sits between two reference imports
# of numpy.
SETUP_PROBES = (2, 2, 1)
# Each item's latency is scaled by the median of the reference runs of this
# many items on either side of it (the item's own included).
HALFWIDTH = {"cli": 2}
DEFAULT_HALFWIDTH = 4
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 5

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "import_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "fidelity_mean": "1",
}

_US_P50 = (
    "bell.chsh_optimize", "bell.correlation_matrix", "bell.chsh_max_from_correlation_matrix",
    "tomography.linear_reconstruct", "tomography.simulate_tomography", "tomography.fidelity",
    "tomography.tomo_data_to_csv", "tomography.tomo_data_from_csv",
    "bell.counts_to_csv", "bell.counts_from_csv", "bell.chsh_from_counts",
    "source.simulate_bell_test", "source.simulate_coincidences", "source.synthesize",
    "source.phase_from_displacement", "source.ou_mandel_scan",
    "states.check_density_matrix", "states.build",
    "entanglement.tangle", "entanglement.linear_entropy", "entanglement.is_separable_ppt",
    "entanglement.classify",
)
_COUNTS_PATH = ("bell.chsh_from_counts", "bell.counts_to_csv", "bell.counts_from_csv")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if ".us_" in name:
        return "us"
    if name.endswith(".share"):
        return "share"
    if name.endswith(".calls"):
        return "count"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "s"


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with >= 10 beyond it.

    With fewer than 22 samples no percentile above the median has ten
    beyond it, and the sample just above the median is returned.
    """
    s = sorted(values)
    idx = max(len(s) - 11, len(s) // 2)
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - idx - 1


def _pin_environment() -> None:
    from cli_workload import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ERING_CONFIG", None)
    sys.path.insert(0, str(ROOT / "src"))


def load_workload(name: str):
    if name == "cli":
        from cli_workload import Cli

        return Cli()
    from workloads import WORKLOADS as in_process

    return in_process[name]()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, work: Path) -> None:
    """Child side of a set-up measurement: import ering, build the corpus.

    Timed in CPU time of this process, which on an unshared machine is its
    wall time (single thread, files in the page cache) and leaves out steal.
    """
    t0 = time.process_time()
    import ering  # noqa: F401

    t1 = time.process_time()
    load_workload(workload).build(seed, work)
    t2 = time.process_time()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


def measure_setup(workload: str, seed: int, repeats: int) -> list[dict]:
    """Set-up probes, each between two reference imports of numpy; ``ref_s``
    is the mean of their CPU times."""
    from calibrate import import_numpy
    from cli_workload import hermetic_env

    runs = []
    before = import_numpy(hermetic_env(), cpu=True)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        after = import_numpy(hermetic_env(), cpu=True)
        runs.append({**json.loads(proc.stdout.splitlines()[-1]), "ref_s": (before + after) / 2})
        before = after
    return runs


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Outcome of one closed-loop pass over the corpus."""

    def __init__(self):
        self.latencies: list[float] = []  # by the workload's clock
        self.refs: list[float] = []  # reference time measured after each item
        self.fidelity: dict[int, float] = {}  # corpus index -> fidelity of its first run
        self.reached: set[int] = set()  # corpus indices run
        self.imports: list[dict] = []
        self.errors: list[str] = []
        self.gate_failures: list[str] = []
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.gate_failures)

    def extend(self, other: "Loop") -> None:
        self.latencies += other.latencies
        self.refs += other.refs
        for index, f in other.fidelity.items():
            self.fidelity.setdefault(index, f)
        self.reached |= other.reached
        self.imports += other.imports
        self.errors += other.errors
        self.gate_failures += other.gate_failures
        self.wall += other.wall


def run_loop(
    wl, items: list, tracer, seconds: float | None, n_items: int | None = None,
    first: int = 0, every_kind: bool = False, reference=None,
) -> Loop:
    """Run items from index ``first`` on, one after another, for ``seconds`` or ``n_items``.

    With ``every_kind``, go on past ``seconds`` until each kind of item has
    run; with ``wl.whole_passes``, until the corpus has been run a whole
    number of times.  ``reference()``, if given, runs after every item,
    outside its latency, and its time is kept in ``refs``.
    """
    from gates import GateFailure

    loop = Loop()
    kinds_left = {wl.kind(item) for item in items} if every_kind else set()
    whole_passes = getattr(wl, "whole_passes", False)
    clock = wl.clock
    start = time.perf_counter()
    n = 0
    while (
        n < n_items if n_items is not None
        else time.perf_counter() - start < seconds or kinds_left
        or (whole_passes and n % len(items))
    ):
        index = (first + n) % len(items)
        item = items[index]
        c0 = clock()
        t0 = tracer.begin_item()
        try:
            obs = wl.run_item(item, tracer)
        except GateFailure as exc:
            obs = {}
            loop.gate_failures.append(f"{wl.kind(item)}: {exc}")
        except Exception as exc:  # the loop must go on; the failure is counted and reported
            obs = {}
            loop.errors.append(f"{wl.kind(item)}: {type(exc).__name__}: {exc}")
        tracer.end_item(wl.kind(item), t0)
        loop.latencies.append(clock() - c0)
        if reference is not None:
            loop.refs.append(reference())
        kinds_left.discard(wl.kind(item))
        loop.reached.add(index)
        if "fidelity" in obs:
            loop.fidelity.setdefault(index, obs["fidelity"])
        if "import" in obs:
            loop.imports.append(obs["import"])
        n += 1
    loop.wall = time.perf_counter() - start
    return loop


def timed_loop(wl, items: list, seconds: float, reference, midway) -> Loop:
    """The untraced measurement: two halves of ``seconds / 2``, the second
    going on through the corpus where the first stopped; ``midway()`` runs
    between them.
    """
    from spans import Tracer

    loop = run_loop(wl, items, Tracer(False), seconds / 2, reference=reference)
    midway()
    loop.extend(run_loop(
        wl, items, Tracer(False), seconds / 2, first=loop.attempted, reference=reference,
    ))
    return loop


def complete_corpus(wl, items: list, loop: Loop) -> Loop:
    """Run, untimed, the corpus items the timed loop did not reach, so that
    fidelity_mean covers the whole corpus whatever the program's speed.

    A workload with a ``fidelity(item)`` method gets only that (None: the
    item has no fidelity); any other runs each missing item in full (its
    failures count like any other).
    """
    from spans import Tracer

    extra = Loop()
    for index in range(len(items)):
        if index in loop.reached:
            continue
        if hasattr(wl, "fidelity"):
            f = wl.fidelity(items[index])
            if f is not None:
                extra.fidelity[index] = f
        else:
            extra.extend(run_loop(wl, items, Tracer(False), None, n_items=1, first=index))
    return extra


def warm_up(wl, items: list) -> None:
    """Run the first item and the reference once, untimed, so that lazy
    imports and caches are done."""
    from spans import Tracer

    run_loop(wl, items[:1], Tracer(False), None, n_items=1)
    wl.reference()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are every waited-for descendant
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def end_to_end_metrics(
    wl_name: str, loop: Loop, extra: Loop, setups: list[dict], ref: float,
) -> tuple[dict, list[str]]:
    """Every timing scaled to the reference speed (see calibrate.py)."""
    from calibrate import REF_IMPORT_S, scale_each

    halfwidth = HALFWIDTH.get(wl_name, DEFAULT_HALFWIDTH)
    scaled = scale_each(loop.latencies, loop.refs, ref, halfwidth)
    value, pct, beyond = tail(scaled)
    def setup_median(key):
        return statistics.median(s[key] * REF_IMPORT_S / s["ref_s"] for s in setups)

    fidelities = list({**extra.fidelity, **loop.fidelity}.values())
    metrics = {
        "setup_s": setup_median("setup_s"),
        "import_s": setup_median("import_s"),
        "items_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * value,
        "peak_rss_mb": peak_rss_mb(),
        "fidelity_mean": statistics.fmean(fidelities) if fidelities else 0.0,
    }
    raw_tail = tail(loop.latencies)[0]
    notes = [
        f"{loop.attempted} items in {loop.wall:.3f} s; timings scaled to the reference speed "
        f"(item reference median {statistics.median(loop.refs):.6g} s against {ref:.6g} s, "
        f"set-up reference median {statistics.median(s['ref_s'] for s in setups):.6g} s "
        f"against {REF_IMPORT_S:.6g} s)",
        f"unscaled: items_per_s {loop.attempted / sum(loop.latencies):.6g}, "
        f"latency_p50_ms {1e3 * statistics.median(loop.latencies):.6g}, "
        f"latency_tail_ms {1e3 * raw_tail:.6g}, "
        f"setup_s {statistics.median(s['setup_s'] for s in setups):.6g}, "
        f"import_s {statistics.median(s['import_s'] for s in setups):.6g}",
        f"latency_tail_ms is p{pct:.1f} ({beyond} of {len(scaled)} items beyond it)",
        f"fidelity_mean over {len(fidelities)} corpus items, {len(extra.fidelity)} of them "
        "computed after the timed loop",
    ]
    return metrics, notes


def per_layer_metrics(tr, traced: Loop, untraced: Loop) -> dict:
    from spans import LAYERS

    def p50_us(name, tag=None):
        d = tr.durations(name, tag)
        return 1e6 * statistics.median(d) if d else 0.0

    def tail_us(name):
        d = tr.durations(name)
        return 1e6 * tail(d)[0] if d else 0.0

    m = {f"{name}.us_p50": p50_us(name) for name in _US_P50}
    m["bell.chsh_optimize.us_tail"] = tail_us("bell.chsh_optimize")
    m["tomography.ml_reconstruct.us_p50.mixed"] = p50_us("tomography.ml_reconstruct", "mixed")
    m["tomography.ml_reconstruct.us_p50.nearpure"] = p50_us("tomography.ml_reconstruct", "nearpure")
    m["tomography.ml_reconstruct.us_tail"] = tail_us("tomography.ml_reconstruct")
    for layer in LAYERS:
        m[f"{layer}.share"] = tr.layer_time((layer + ".",)) / traced.wall
        m[f"{layer}.calls"] = sum(
            1 for _, parent, name, *_ in tr.spans if parent and name.startswith(layer + ".")
        )
    m["bell.counts_path.share"] = tr.layer_time(_COUNTS_PATH) / traced.wall
    for part in ("total_s", "scipy_s", "numpy_s"):
        m[f"cli.import.{part}"] = (
            statistics.median(i[part] for i in traced.imports) if traced.imports else 0.0
        )
    from cli_workload import COMMANDS

    for cmd in COMMANDS:
        d = tr.durations(f"cli.{cmd.name}")
        m[f"cli.{cmd.name}.s_p50"] = statistics.median(d) if d else 0.0
    m["trace.overhead_ratio"] = traced.wall / untraced.wall
    return m


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of ROOT/.git, read from the files (the checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ering" / "__init__.py").is_file():
        print(f"error: no ering sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    _pin_environment()
    if args.workload == "all":
        return run_all(args)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{args.workload}-"))
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, work)
            return 0
        return run_benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Run every workload in turn; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def run_benchmark(args, work: Path) -> int:
    from spans import Tracer

    setups = [] if args.trace else measure_setup(args.workload, args.seed, SETUP_PROBES[0])
    wl = load_workload(args.workload)
    items = wl.build(args.seed, work)
    warm_up(wl, items)
    if args.trace:
        tr = Tracer(True)
        traced = run_loop(wl, items, tr, args.seconds / 2, every_kind=True)
        untraced = run_loop(wl, items, Tracer(False), None, n_items=traced.attempted)
        loops = [traced, untraced]
        metrics = per_layer_metrics(tr, traced, untraced)
        units = {name: layer_unit(name) for name in metrics}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tr.write(spans_path)
        notes = [f"{len(tr.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    else:
        def midway():
            setups.extend(measure_setup(args.workload, args.seed, SETUP_PROBES[1]))

        loop = timed_loop(wl, items, args.seconds, wl.reference, midway)
        setups += measure_setup(args.workload, args.seed, SETUP_PROBES[2])
        extra = complete_corpus(wl, items, loop)
        metrics, notes = end_to_end_metrics(args.workload, loop, extra, setups, wl.reference_s)
        loops = [loop, extra]
        units = END_TO_END

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    gate_failures = [msg for lp in loops for msg in lp.gate_failures]
    errors = [msg for lp in loops for msg in lp.errors]
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for note in notes:
        print(f"# {note}")
    print(f"# fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    for kind, msgs in (("gate failure", gate_failures), ("error", errors)):
        for msg in msgs[:MAX_REPORTED_FAILURES]:
            print(f"# {kind}: {msg}")
        if len(msgs) > MAX_REPORTED_FAILURES:
            print(f"# ... {len(msgs) - MAX_REPORTED_FAILURES} more of kind {kind}")
    result = {
        "correct": not gate_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
