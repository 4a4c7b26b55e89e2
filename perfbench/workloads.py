"""The three in-process workloads: corpus generation, items and correctness gates.

Each workload turns a seed into a corpus of items (``build``) and runs one
item at a time (``run_item``), every call into ering going through the
tracer.  Categories are interleaved in the corpus so that any prefix of it
has the same mix, which keeps throughput comparable when a run does not
finish a whole pass.

Every gate has a leg computed by the benchmark's own code, so a bug that
moves a layer function and its oracle together still shows:

* characterize: the CHSH optimum of ``chsh_optimize`` against
  ``chsh_max_from_correlation_matrix`` and against 2 sqrt(s1^2 + s2^2) from
  the singular values of a correlation matrix the benchmark builds itself;
  the returned settings must reach the optimum under ``chsh()``; tangle > 0
  exactly when the PPT test says entangled.
* tomography: the CSV reads back as written; the ML state passes
  ``check_density_matrix``; its Poisson negative log-likelihood, computed
  here from the benchmark's own projectors, is no worse than that of the
  eigenvalue-clipped linear estimate the solver starts from.
* bell_run: the counts CSV reads back as the table written; the counts-based
  S agrees with the trace-evaluated ``chsh()`` of the visibility-applied
  state within ``S_SIGMA_TOL`` sigma.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
from ering import bell, entanglement, sampling, source, states, tomography
from ering.entanglement import MEMS, WERNER
from gates import gate
from spans import Tracer

CHSH_TOL = 1e-6  # |S| agreement of optimizer, oracle and chsh() (as in the acceptance tests)
SVD_TOL = 1e-9  # ering's correlation-matrix oracle against the benchmark's own SVD
# PPT calls a state separable down to a partial-transpose eigenvalue of -1e-10,
# i.e. negativity N <= 2e-10; since N >= C^2/2 for small concurrence C, such a
# state can still have tangle C^2 up to 4e-10.  PPT-entangled needs tangle > 0.
TANGLE_TOL = 1e-9
NLL_REL_TOL = 1e-9  # ML may not be worse than its linear start by more than this share
TOMO_FLUX = 40000  # pairs per setting, the figure 8/11 default
BELL_VISIBILITY = 0.94
BELL_DURATION_S = 20.0
# At 20 s the accidentals (10 ns window) lower |S| by about 0.7 sigma; 7 sigma
# leaves over 6 sigma for Poisson noise: ~1e-10 false alarms per item.
S_SIGMA_TOL = 7.0
# Near-pure Werner datasets stop at this p: above about 0.9995 (and on the
# exact singlet) ml_reconstruct raises ConvergenceError on a sizeable share
# of datasets at 40k flux, a program defect that the timed corpus leaves out
# (tests/test_harness.py keeps it in view).
NEARPURE_P_MAX = 0.995
# Bell runs per bell_run item, a short figure-12 series: with single 5 ms runs
# the tail was set by millisecond scheduling hiccups of the shared machine.
SERIES_RUNS = 4


def interleave(groups: list[list]) -> list:
    """Merge lists so each one is spread evenly over the result."""
    keyed = [
        ((k + 0.5) / len(group), g, item)
        for g, group in enumerate(groups)
        for k, item in enumerate(group)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda x: (x[0], x[1]))]


def _shuffled(rng, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _jittered_grid(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal cells of [lo, hi]."""
    width = (hi - lo) / n
    return [float(lo + (k + rng.uniform()) * width) for k in range(n)]


# ---------------------------------------------------------------------------
# The benchmark's own physics, for the independent gate legs
# ---------------------------------------------------------------------------

_PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "L": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "R": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}


def own_chsh_max(rho: np.ndarray) -> float:
    """Horodecki bound 2 sqrt(s1^2 + s2^2) from the SVD of T_ij = Tr(rho s_i x s_j)."""
    pairs = np.einsum("iab,jcd->ijacbd", _PAULI, _PAULI).reshape(3, 3, 4, 4)
    t = np.einsum("ijkl,lk->ij", pairs, rho).real
    s = np.linalg.svd(t, compute_uv=False)
    return float(2 * math.sqrt(s[0] ** 2 + s[1] ** 2))


def own_profile_nll(rho: np.ndarray, labels: list[tuple[str, str]], counts: np.ndarray) -> float:
    """Poisson NLL of counts under rho, with the flux set to its optimum.

    mu_k = N Tr(rho P_k); minimizing over N gives N = sum n / sum p, and the
    NLL (dropping the log n! constant) is sum n - sum n log(N p_k).
    """
    kets = [np.kron(_KETS[a], _KETS[b]) for a, b in labels]
    p = np.array([np.real(k.conj() @ rho @ k) for k in kets])
    n = np.asarray(counts, dtype=float)
    flux = n.sum() / p.sum()
    pos = n > 0
    if np.any(p[pos] <= 0):
        return math.inf
    return float(n.sum() - np.sum(n[pos] * np.log(flux * p[pos])))


def own_clip(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues of a Hermitian matrix and renormalize."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    return (v * (w / w.sum())) @ v.conj().T


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateItem:
    kind: str  # random | werner | mems | tuned | nonmax | bell | werner_patchwork | mems_patchwork
    params: tuple
    rho: np.ndarray | None = None  # only for kind == "random"

    @property
    def family(self) -> str | None:
        if self.kind.startswith(WERNER):
            return WERNER
        if self.kind.startswith(MEMS):
            return MEMS
        return None


_BUILDERS = {
    "werner": states.werner,
    "mems": states.mems,
    "tuned": states.tune_entanglement,
    "nonmax": lambda theta_p: states.projector(states.nonmax_state(theta_p)),
    "bell": lambda kind, phase: states.projector(states.bell_state(kind, phase)),
    "singlet": lambda: states.projector(states.singlet()),
    "product": lambda: states.projector(np.array([1, 0, 0, 0], dtype=complex)),
}
_PARTITIONS = {"werner_patchwork": source.werner_partition, "mems_patchwork": source.mems_partition}


def build_state(kind: str, params: tuple, tr) -> np.ndarray:
    """Make a state through the ering builder that ``kind`` names."""
    if kind in _PARTITIONS:
        partition = tr.call("source.partition", _PARTITIONS[kind], *params)
        return tr.call("source.synthesize", source.synthesize, partition, math.pi)
    return tr.call("states.build", _BUILDERS[kind], *params, tag=kind)


class Characterize:
    name = "characterize"
    clock = staticmethod(time.process_time)
    reference = staticmethod(calibrate.kernel)
    reference_s = calibrate.REF_KERNEL_S

    def build(self, seed: int, work_dir: Path) -> list[StateItem]:
        rng = np.random.default_rng([seed, 1])
        groups = [
            [StateItem("random", (), sampling.random_density_matrix(rng)) for _ in range(144)],
            [StateItem("werner", (p,)) for p in _jittered_grid(rng, 0.0, 1.0, 24)],
            [StateItem("mems", (p,)) for p in _jittered_grid(rng, 0.0, 1.0, 24)],
            [
                StateItem("tuned", (f, 0.5 + rng.uniform() * 0.5))
                for f in _jittered_grid(rng, 0.25, 1.0, 16)
            ],
            [StateItem("nonmax", (t,)) for t in _jittered_grid(rng, 0.0, math.pi / 4, 12)],
            [
                StateItem("bell", (kind, phase))
                for kind in ("phi", "psi")
                for phase in _jittered_grid(rng, 0.0, 2 * math.pi, 4)
            ],
            [StateItem("werner_patchwork", (p,)) for p in _jittered_grid(rng, 0.0, 1.0, 12)],
            [StateItem("mems_patchwork", (p,)) for p in _jittered_grid(rng, 0.0, 1.0, 12)],
        ]
        self.singlet = states.projector(states.singlet())
        return interleave([_shuffled(rng, group) for group in groups])

    def kind(self, item: StateItem) -> str:
        return item.kind

    def fidelity(self, item: StateItem) -> float | None:
        """Singlet fidelity of the item's state alone, as ``run_item`` reports it."""
        if item.kind == "random":
            return None
        rho = build_state(item.kind, item.params, Tracer(False))
        return tomography.fidelity(states.check_density_matrix(rho), self.singlet)

    def run_item(self, item: StateItem, tr) -> dict:
        rho = item.rho if item.kind == "random" else build_state(item.kind, item.params, tr)
        rho = tr.call("states.check_density_matrix", states.check_density_matrix, rho)
        t = tr.call("entanglement.tangle", entanglement.tangle, rho)
        tr.call("entanglement.linear_entropy", entanglement.linear_entropy, rho)
        separable, _ = tr.call("entanglement.is_separable_ppt", entanglement.is_separable_ppt, rho)
        f = tr.call("tomography.fidelity", tomography.fidelity, rho, self.singlet)
        if item.family is not None:
            tr.call("entanglement.classify", entanglement.classify, item.family, item.params[0])
        s_opt, settings = tr.call("bell.chsh_optimize", bell.chsh_optimize, rho)
        tr.call("bell.correlation_matrix", bell.correlation_matrix, rho)
        s_oracle = tr.call(
            "bell.chsh_max_from_correlation_matrix", bell.chsh_max_from_correlation_matrix, rho
        )
        s_settings = tr.call("bell.chsh", bell.chsh, rho, settings)

        s_own = own_chsh_max(rho)
        gate(abs(s_oracle - s_own) <= SVD_TOL, f"oracle {s_oracle} != own SVD bound {s_own}")
        gate(abs(s_opt - s_oracle) <= CHSH_TOL, f"chsh_optimize {s_opt} != oracle {s_oracle}")
        gate(
            abs(abs(s_settings) - s_opt) <= CHSH_TOL,
            f"settings reach |S|={abs(s_settings)}, optimizer claims {s_opt}",
        )
        gate(
            (t > 0) if not separable else (t <= TANGLE_TOL),
            f"tangle {t} disagrees with PPT separable={separable}",
        )
        # the fidelity of a random state is a property of the draw: only the
        # stratified family grids enter fidelity_mean, which keeps it steady
        return {} if item.kind == "random" else {"fidelity": f}


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TomoItem:
    kind: str  # werner | mems | product
    params: tuple
    regime: str  # mixed | nearpure
    seed: int

    @property
    def family(self) -> str | None:
        return self.kind if self.kind in (WERNER, MEMS) else None


class Tomography:
    name = "tomography"
    clock = staticmethod(time.process_time)
    reference = staticmethod(calibrate.kernel)
    reference_s = calibrate.REF_KERNEL_S

    def build(self, seed: int, work_dir: Path) -> list[TomoItem]:
        rng = np.random.default_rng([seed, 2])
        self.csv_path = work_dir / "tomo.csv"

        def seeds(n):
            return [int(s) for s in rng.integers(0, 2**31, n)]

        mixed = [
            TomoItem(family, (p,), "mixed", s)
            for family in (WERNER, MEMS)
            for p, s in zip(_jittered_grid(rng, 0.05, 0.85, 96), seeds(96))
        ]
        nearpure = (
            # a fixed grid: the tail is set by the states nearest p = 1, so
            # only the counts, not the states, change with the seed
            [TomoItem(WERNER, (float(p),), "nearpure", s)
             for p, s in zip(np.linspace(0.9, NEARPURE_P_MAX, 48), seeds(48))]
            + [TomoItem("product", (), "nearpure", s) for s in seeds(16)]
        )
        return interleave([_shuffled(rng, mixed), _shuffled(rng, nearpure)])

    def kind(self, item: TomoItem) -> str:
        return item.regime

    def run_item(self, item: TomoItem, tr) -> dict:
        target = build_state(item.kind, item.params, tr)
        data = tr.call(
            "tomography.simulate_tomography", tomography.simulate_tomography,
            target, TOMO_FLUX, item.seed,
        )
        tr.call("tomography.tomo_data_to_csv", tomography.tomo_data_to_csv, data, self.csv_path)
        back = tr.call("tomography.tomo_data_from_csv", tomography.tomo_data_from_csv, self.csv_path)
        labels = [(s.proj1, s.proj2) for s in data.settings]
        gate(
            labels == [(s.proj1, s.proj2) for s in back.settings]
            and np.array_equal(back.counts, data.counts)
            and back.total_flux_estimate == data.total_flux_estimate,
            "tomography CSV did not read back as written",
        )
        linear = tr.call("tomography.linear_reconstruct", tomography.linear_reconstruct, back)
        rho = tr.call(
            "tomography.ml_reconstruct", tomography.ml_reconstruct, back, seed=item.seed,
            tag=item.regime,
        )
        rho = tr.call("states.check_density_matrix", states.check_density_matrix, rho)
        t = tr.call("entanglement.tangle", entanglement.tangle, rho)
        s_l = tr.call("entanglement.linear_entropy", entanglement.linear_entropy, rho)
        f = tr.call("tomography.fidelity", tomography.fidelity, rho, target)
        if item.family is not None:
            curve = tr.call(
                "entanglement.tangle_curve", entanglement.tangle_curve, item.family, min(1.0, s_l)
            )
            gate(0.0 <= curve <= 1.0 and 0.0 <= t <= 1.0, f"tangle {t} / curve {curve} out of [0, 1]")

        nll_ml = own_profile_nll(rho, labels, data.counts)
        nll_start = own_profile_nll(own_clip(linear), labels, data.counts)
        gate(
            nll_ml <= nll_start + NLL_REL_TOL * max(1.0, abs(nll_start)),
            f"ML NLL {nll_ml} worse than its linear start {nll_start}",
        )
        return {"fidelity": f}


# ---------------------------------------------------------------------------
# bell_run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BellItem:
    kind: str  # werner | mems | singlet | werner_patchwork | mems_patchwork | sweep
    params: tuple  # series: one p per run (empty for singlet); sweep: (displacements, phase)
    seeds: tuple


class BellRun:
    name = "bell_run"
    clock = staticmethod(time.process_time)
    reference = staticmethod(calibrate.kernel)
    reference_s = calibrate.REF_KERNEL_S

    def build(self, seed: int, work_dir: Path) -> list[BellItem]:
        rng = np.random.default_rng([seed, 3])
        self.csv_path = work_dir / "counts.csv"
        self.config = source.SourceConfig(visibility=BELL_VISIBILITY)

        def seeds(n):
            return tuple(int(s) for s in rng.integers(0, 2**31, n))

        series = [
            BellItem(kind, tuple(_jittered_grid(rng, 0.6, 1.0, SERIES_RUNS)), seeds(SERIES_RUNS))
            for kind in ("werner", "mems", "werner_patchwork", "mems_patchwork")
            for _ in range(8)
        ] + [BellItem("singlet", (), seeds(SERIES_RUNS)) for _ in range(8)]
        sweeps = [
            BellItem(
                "sweep",
                (
                    tuple(_jittered_grid(rng, -100e-6, 100e-6, 8)),  # mirror displacements, m
                    float(rng.uniform(0, math.pi)),  # Ou-Mandel pair phase
                ),
                seeds(1),
            )
            for _ in range(10)
        ]
        return interleave([_shuffled(rng, series), sweeps])

    def kind(self, item: BellItem) -> str:
        return "sweep" if item.kind == "sweep" else "series"

    def run_item(self, item: BellItem, tr) -> dict:
        if item.kind == "sweep":
            return self._sweep(item, tr)
        fidelities = []
        for params, seed in zip([(p,) for p in item.params] or [()] * SERIES_RUNS, item.seeds):
            fidelities.append(self._run(build_state(item.kind, params, tr), seed, tr))
        return {"fidelity": statistics.fmean(fidelities)}

    def _run(self, rho: np.ndarray, seed: int, tr) -> float:
        table, plan = tr.call(
            "source.simulate_bell_test", source.simulate_bell_test,
            rho, BELL_DURATION_S, self.config, seed,
        )
        tr.call("bell.counts_to_csv", bell.counts_to_csv, table, self.csv_path)
        back = tr.call("bell.counts_from_csv", bell.counts_from_csv, self.csv_path)
        gate(
            back.entries == table.entries and back.duration == table.duration,
            "counts CSV did not read back as the table written",
        )
        s, sigma = tr.call("bell.chsh_from_counts", bell.chsh_from_counts, back, plan)
        rho_v = tr.call(
            "source.apply_effective_visibility", source.apply_effective_visibility,
            rho, self.config.visibility,
        )
        s_trace = tr.call("bell.chsh", bell.chsh, rho_v, plan.bloch_settings())
        gate(
            abs(abs(s) - abs(s_trace)) <= S_SIGMA_TOL * sigma,
            f"|S| {abs(s):.5f} from counts vs {abs(s_trace):.5f} by trace, sigma {sigma:.5f}",
        )
        return tr.call("tomography.fidelity", tomography.fidelity, rho_v, rho)

    def _sweep(self, item: BellItem, tr) -> dict:
        displacements, phi = item.params
        for d in displacements:
            geom = tr.call(
                "source.phase_from_displacement", source.phase_from_displacement, d, self.config
            )
            mirrored = tr.call(
                "source.phase_from_displacement", source.phase_from_displacement, -d, self.config
            )
            v = tr.call(
                "source.displacement_visibility", source.displacement_visibility, d, self.config
            )
            # odd to first order: the second-order part is 0.5 % of phi at 100 um
            gate(geom.phi * d < 0 and abs(geom.phi + mirrored.phi) <= 0.01 * abs(geom.phi),
                  f"phase at +/-{d} m is not odd to first order: {geom.phi}, {mirrored.phi}")
            gate(0.0 < v <= 1.0, f"visibility {v} at {d} m outside (0, 1]")
        xs = np.linspace(-100e-6, 100e-6, 101)
        curve = tr.call("source.ou_mandel_scan", source.ou_mandel_scan, phi, xs, self.config)
        gate(abs(curve[0][1] - 1.0) < 1e-6 and abs(curve[-1][1] - 1.0) < 1e-6,
              "Ou-Mandel rate far from x = 0 is not 1")
        # figure 2: analyzer 2 at 45 deg, analyzer 1 swept over 45..135 deg
        grid = [(math.radians(t1), math.radians(45.0)) for t1 in np.arange(45.0, 135.0 + 1e-9, 2.5)]
        rho = build_state("bell", ("phi", math.pi), tr)
        table = tr.call(
            "source.simulate_coincidences", source.simulate_coincidences,
            rho, grid, 1.0, self.config, item.seeds[0],
        )
        counts = [table.get(*g) for g in grid]
        # the phi = pi pair coincides as cos^2(theta1 + theta2): peak at 135, zero at 45
        gate(counts[-1] > 10 * max(1, counts[0]), f"figure-2 fringe missing: {counts[0]}..{counts[-1]}")
        return {}


WORKLOADS = {w.name: w for w in (Characterize, Tomography, BellRun)}
