"""The three benchmark workloads: set-up, the timed operation, output checks.

Every workload draws its inputs from ``preset_separated5`` with the run's
seed, so the program receives only generated inputs.  ``run_op`` is the
timed part; ``check`` runs after the clock stops and returns the failed
checks (an empty list when the operation's outputs are right).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through the modules so that a traced run sees them.
from tractsparse import atlas, cli, distances, io, kernel, solvers, synth
from tractsparse.metrics import adjusted_rand_index
from tractsparse.model import Labeling, SolverConfig

# Streamline counts per size.  "tiny" is for smoke tests of the benchmark
# itself and carries no ARI floors.
SIZES = {
    "full": dict(cli_n=2000, sweep_n=1000, atlas_subject=1000, atlas_sample=500,
                 atlas_new=1000),
    "tiny": dict(cli_n=120, sweep_n=120, atlas_subject=120, atlas_sample=80,
                 atlas_new=100),
}

# Lowest ARI against the synth ground truth each fit may reach at full size.
# Each sits below the lowest value seen on seeds 0-19 at the commit that
# introduced the benchmark (see perfbench/README.md), so only a real loss of
# quality trips it.
ARI_FLOORS = {
    "cli-cluster": {"ksc": 0.9},
    "solver-sweep": {"kkm": 0.2, "ksc": 0.9, "gksc": 0.15, "gksc_laplacian": 0.9},
    "atlas-segment": {"segment": 0.9},
}

# Fixed budgets: kkm stops after at most t_outer sweeps, and in the ADMM fits
# an eps_primal no residual reaches makes each inner loop take all t_inner
# steps and each fit all t_outer sweeps.  At the default tolerances the group
# fit takes 11 to 30 sweeps (0.9 to 5.9 s) depending on the seed's data, which
# would swamp any change in per-sweep cost.
_NEVER = 1e-300
SWEEP_CONFIGS = {
    "kkm": SolverConfig(m=5, t_outer=8),
    "ksc": SolverConfig(m=5),
    "gksc": SolverConfig(m=10, t_outer=12, t_inner=80, eps_primal=_NEVER),
    "gksc_laplacian": SolverConfig(m=5, lambda2=0.0, lambda_l=solvers.DEFAULT_LAMBDA_L,
                                   t_outer=30, t_inner=2, eps_primal=_NEVER),
}


def labels_digest(labels) -> str:
    """SHA-256 of the label array as little-endian int64."""
    arr = np.asarray(getattr(labels, "labels", labels), dtype="<i8")
    return hashlib.sha256(arr.tobytes()).hexdigest()


@dataclass
class FitCheck:
    ari: float
    digest: str


@dataclass
class OpOutcome:
    failures: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)


def artifact_hashes(root: Path) -> dict:
    """SHA-256 of every file under root except manifests, which hold timings."""
    return {
        str(p.relative_to(root)): io.sha256_file(p)
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def manifest_failures(root: Path) -> list:
    """Manifest output hashes that disagree with the files on disk."""
    failures = []
    manifests = sorted(root.rglob("*manifest.json"))
    if not manifests:
        failures.append(f"no manifest under {root.name}")
    for manifest in manifests:
        recorded = json.loads(manifest.read_text())["outputs"]
        for name, digest in recorded.items():
            path = manifest.parent / name
            if not path.is_file() or io.sha256_file(path) != digest:
                failures.append(f"{manifest.name}: output {name} does not match its hash")
    return failures


class Workload:
    """One workload: ``setup`` builds fixtures, ``run_op`` is timed."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = SIZES[size]
        self.floors = ARI_FLOORS[self.name] if size == "full" else {}
        self.workdir = workdir
        self._first_digests: dict = {}
        self._first_artifacts: dict | None = None

    @property
    def streamlines_per_op(self) -> int:
        raise NotImplementedError

    def truth_by_n(self) -> dict:
        """Ground truth keyed by streamline count, for scoring traced fits."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, raw) -> OpOutcome:
        raise NotImplementedError

    def _check_fit(self, out: OpOutcome, fit: str, labels, truth) -> None:
        ari = adjusted_rand_index(truth, labels)
        digest = labels_digest(labels)
        out.fits[fit] = FitCheck(ari, digest)
        floor = self.floors.get(fit)
        if floor is not None and not ari >= floor:
            out.failures.append(f"{fit}: ARI {ari:.4f} below floor {floor}")
        first = self._first_digests.setdefault(fit, digest)
        if digest != first:
            out.failures.append(f"{fit}: labels differ from the first operation")

    def _check_cli_dir(self, out: OpOutcome, codes: dict, op_dir: Path) -> None:
        for command, code in codes.items():
            if code != 0:
                out.failures.append(f"cli {command} exited {code}")
        if any(codes.values()):
            return
        out.failures.extend(manifest_failures(op_dir))
        artifacts = artifact_hashes(op_dir)
        if self._first_artifacts is None:
            self._first_artifacts = artifacts
        elif artifacts != self._first_artifacts:
            changed = sorted(
                k for k in set(artifacts) | set(self._first_artifacts)
                if artifacts.get(k) != self._first_artifacts.get(k))
            out.failures.append(f"artifacts differ from the first operation: {changed}")

    def _op_dir(self, i: int) -> Path:
        d = self.workdir / f"op{i}"
        d.mkdir()
        return d

    def cleanup(self, i: int) -> None:
        shutil.rmtree(self.workdir / f"op{i}", ignore_errors=True)


class CliCluster(Workload):
    """The user's batch path: distances, cluster and metrics through the CLI."""

    name = "cli-cluster"

    @property
    def streamlines_per_op(self):
        return self.size["cli_n"]

    def truth_by_n(self):
        return {self.size["cli_n"]: self.truth}

    def setup(self):
        tract, self.truth = synth.preset_separated5(seed=self.seed, total_count=self.size["cli_n"])
        self.slb = self.workdir / "tract.slb"
        self.truth_path = self.workdir / "truth.txt"
        io.write_slb(tract, self.slb)
        io.write_labels(self.truth, self.truth_path)

    def run_op(self, i):
        d = self._op_dir(i)
        steps = {
            "distances": ["distances", "--in", str(self.slb), "--out", str(d / "d.dm")],
            "cluster": ["cluster", "--in", str(self.slb), "--dist", str(d / "d.dm"),
                        "--method", "ksc", "--m", "5", "--out", str(d / "fit")],
            "metrics": ["metrics", "--pred", str(d / "fit" / "labels.txt"),
                        "--truth", str(self.truth_path), "--dist", str(d / "d.dm"),
                        "--out", str(d / "metrics.json")],
        }
        codes = {}
        for command, argv in steps.items():
            codes[command] = cli.main(argv)
            if codes[command] != 0:
                break
        return codes

    def check(self, i, codes):
        out = OpOutcome()
        d = self.workdir / f"op{i}"
        self._check_cli_dir(out, codes, d)
        if out.failures:
            return out
        labels = io.read_labels(d / "fit" / "labels.txt").labels
        self._check_fit(out, "ksc", labels, self.truth)
        reported = json.loads((d / "metrics.json").read_text())["ari"]
        if reported != out.fits["ksc"].ari:
            out.failures.append(
                f"metrics command reports ARI {reported}, labels give {out.fits['ksc'].ari}")
        return out


class SolverSweep(Workload):
    """Four solver paths over one reused kernel, as in a parameter sweep."""

    name = "solver-sweep"

    @property
    def streamlines_per_op(self):
        return self.size["sweep_n"] * len(SWEEP_CONFIGS)

    def truth_by_n(self):
        return {self.size["sweep_n"]: self.truth}

    def setup(self):
        self.k = None  # let the previous repeat's kernel go before building anew
        tract, self.truth = synth.preset_separated5(seed=self.seed,
                                                    total_count=self.size["sweep_n"])
        self.k = kernel.kernel_from_distances(distances.pairwise_distances(tract, "mcp"))
        self.init5 = solvers.spectral_init(self.k, m=5, seed=0)
        self.init10 = solvers.spectral_init(self.k, m=10, seed=0)
        self.laplacian = distances.graph_laplacian(distances.build_endpoint_graph(tract))
        selection = solvers.random_selection_init(self.k, m=5, seed=0)
        self.random_labels = Labeling(solvers.kkm_assign(self.k, selection), m=5)

    def run_op(self, i):
        c = SWEEP_CONFIGS
        return {
            "kkm": solvers.kkm_fit(self.k, c["kkm"], self.random_labels),
            "ksc": solvers.ksc_fit(self.k, c["ksc"], self.init5),
            "gksc": solvers.gksc_fit(self.k, c["gksc"], self.init10),
            "gksc_laplacian": solvers.gksc_fit(self.k, c["gksc_laplacian"], self.init5,
                                       laplacian=self.laplacian),
        }

    def check(self, i, fits):
        out = OpOutcome()
        for fit, result in fits.items():
            self._check_fit(out, fit, result.labels, self.truth)
        return out


class AtlasSegment(Workload):
    """A stored atlas applied to a new subject through the CLI."""

    name = "atlas-segment"

    @property
    def streamlines_per_op(self):
        return self.size["atlas_new"]

    def truth_by_n(self):
        return {}

    def setup(self):
        subject, _ = synth.preset_separated5(seed=self.seed,
                                             total_count=self.size["atlas_subject"])
        built, _ = atlas.build_atlas([subject], SolverConfig(m=5), measure="mcp",
                                     sample_per_subject=self.size["atlas_sample"],
                                     seed=self.seed)
        self.atlas_dir = self.workdir / "atlas"
        atlas.save_atlas(built, self.atlas_dir)
        # the next seed gives a disjoint resample of the same population
        new, self.truth = synth.preset_separated5(seed=self.seed + 1,
                                            total_count=self.size["atlas_new"])
        self.slb = self.workdir / "new.slb"
        io.write_slb(new, self.slb)

    def run_op(self, i):
        d = self._op_dir(i)
        argv = ["segment", "--atlas", str(self.atlas_dir), "--in", str(self.slb),
                "--out", str(d / "seg")]
        return {"segment": cli.main(argv)}

    def check(self, i, codes):
        out = OpOutcome()
        d = self.workdir / f"op{i}"
        self._check_cli_dir(out, codes, d)
        if not out.failures:
            labels = io.read_labels(d / "seg" / "labels.txt").labels
            self._check_fit(out, "segment", labels, self.truth)
        return out


WORKLOADS = {w.name: w for w in (CliCluster, SolverSweep, AtlasSegment)}
