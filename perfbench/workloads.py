"""The benchmark's workloads and the inputs it generates for them.

Each workload is one ``dcfw.bench.run_suite`` call.  Its instances come from
the ``--seed`` argument only: generated suites get instance seeds drawn from
it, and the QAP workload gets synthetic instances written as QAPLIB-format
files, so the library sees nothing but the generated inputs.
"""

from dataclasses import dataclass

import numpy as np

from dcfw import QapInstance, serialize_qaplib


@dataclass(frozen=True)
class Workload:
    suite: str
    sizes: tuple
    instances: int  # instance seeds per size (QAP: instances per size)
    variants: tuple
    tol: float = 1e-6
    outer_cap: int | None = None
    inner_cap: int | None = None

    @property
    def runs(self):
        return len(self.sizes) * self.instances * len(self.variants)


# Why each workload exists, and the layers it should move, is recorded next
# to its name in BENCHMARK.json.
WORKLOADS = {
    "fw-capped": Workload(
        suite="quadratics",
        sizes=(100, 300),
        instances=1,
        variants=("DCA-FW", "DCA-FW-ES"),
        outer_cap=20,
        inner_cap=1000,
    ),
    "ws-suite": Workload(
        suite="quadratics",
        sizes=(30, 100, 300),
        instances=10,
        variants=("DCA-BPCG-WS-ES", "DCA-BPCG-WS-ES-BT"),
    ),
    "qap-birkhoff": Workload(
        suite="qap",
        sizes=(8, 10, 12),
        instances=2,
        variants=("DCA-BPCG-ES", "DCA-BPCG-WS-ES"),
        # QAP objectives are of order 1e3 to 1e5; an absolute tolerance of
        # 1e-6 makes single cold-started runs take 1e5 LMO calls
        tol=1e-3,
    ),
    "hard-ksparse": Workload(
        suite="hard",
        sizes=(50,),
        instances=6,
        variants=("DCA-BPCG-ES", "DCA-BPCG-WS-ES"),
    ),
}


def synthetic_qap(rng, n, name):
    """Symmetric integer flow matrix against Manhattan distances of random
    grid points, both with zero diagonal, in the style of QAPLIB's nug set."""
    points = rng.integers(0, n, size=(n, 2))
    distances = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    flows = rng.integers(1, 10, size=(n, n)) * (rng.random((n, n)) < 0.6)
    flows = np.triu(flows, 1)
    return QapInstance(name=name, n=n, A=flows + flows.T, B=distances)


def prepare(workload, seed, input_dir):
    """Generate the workload's inputs from seed; returns run_suite kwargs.

    The QAP instance files are written under input_dir.
    """
    rng = np.random.default_rng(seed)
    kwargs = dict(
        suite=workload.suite,
        variants=list(workload.variants),
        dca_gap_tol=workload.tol,
        outer_cap=workload.outer_cap,
        inner_cap=workload.inner_cap,
    )
    if workload.suite != "qap":
        seeds = rng.integers(0, 2**31, size=workload.instances)
        return dict(kwargs, sizes=list(workload.sizes), seeds=[int(s) for s in seeds])
    qap_dir = input_dir / "qaplib"
    qap_dir.mkdir(parents=True)
    for n in workload.sizes:
        for i in range(workload.instances):
            name = f"syn{n:03d}{'abcdefgh'[i]}"
            text = serialize_qaplib(synthetic_qap(rng, n, name))
            (qap_dir / f"{name}.dat").write_text(text)
    return dict(kwargs, sizes=[max(workload.sizes)], seeds=[0], qaplib_dir=str(qap_dir))
