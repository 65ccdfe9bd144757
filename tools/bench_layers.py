"""Time layer calls of two revisions in one process, alternating per call, and write them under `layers`.

    python3 tools/bench_layers.py --parent REV --change REV --rounds 20 --out BENCH_43.json

Each revision's committed files are extracted (`git archive`, as
tools/bench_pairs.py does), and each tree's `src/nccorr` is imported by path
under its own package name: `sys.path` is not read, and the relative imports
resolve inside the tree.  The parent is loaded twice, so an A/A pair of two
copies of the same code runs beside the parent/change pair.  The copies share
nothing but numpy.

A layer is one fixed list of calls: `herm_eig` in both modes on the
`spectral-multipartite` benchmark's kinds of state (each dims at full rank
and rank 2), on rho, on its marginal stacks and on K's stack (rho and its
partial transposes), and on a copy of each turned by a random unitary, which
is Hermitian only up to rounding; numpy's own `eigvalsh` on rho, the floor
`herm_eig` adds its checks and sort to; and `measure_G`, `measure_DG`,
`measure_K` and `negativity`, each on states made fresh for the call, so no
spectrum kept on a state is reused.  Those G calls gather from walk tables
kept by the untimed call, so one more G layer times the walk itself:
`measure_G` on the same states with `measures._WALKS` cleared before each
state, so every table is built again.  A last G layer runs on two fresh
full-rank (3,4) states, whose d = 4 walk (184,800 rows) is the largest the
default cap admits.  The D search has six kinds of layer:
`sweep.evaluate_point` with all five measures on fresh points of one family
(one layer per family), with a config filled by the family's first point
before the timed call, as a `sweep-families` op reuses its config;
`min_diag_entropy` on fresh family points (`sweep.FAMILIES`) with one
config filled before the timed call; `min_diag_entropy` on two fresh full-rank
seven-qubit states with a config filled the same way, where the plan's gather
table is largest; `min_diag_entropy` and `measure_D` on fresh
`measure-cold` states (each dims at full rank) with a new config per state,
as `nccorr measure` makes its samples anew; `_haar_batch` on 512
samples' normals per dims; and `search._plan`, the descent plan a fresh
config makes, built anew per call for each `STATE_DIMS` and for seven
qubits, its output the plan as a plain tuple, since the two packages'
plan classes differ.  Every layer calls only functions and signatures
that both revisions have.  Every side runs every layer once untimed first.
In each round, every layer is timed as a parent/change pair and then as a
parent/parent pair, each pair in an order that alternates with
the round, so a steady drift favours neither side.  Per layer the report
gives each side's median time, the median and quartiles of the round ratios
change/parent, the rounds the change won (a strictly lower time), the same
three for the A/A pair, and whether the two sides' outputs of the untimed
call are equal: arrays byte for byte, reports field by field.  A layer gain
is shown if there are at least `bench_pairs.MIN_PAIRS` rounds, the change
won at least nine tenths of them, and its median ratio lies below the A/A
lower quartile.

The result is stored under the key `layers` of the output file, which keeps
its other keys (`tools/bench_pairs.py` writes the same file), with the
machine, the Python, numpy and BLAS versions and each side's source line
count.  BLAS runs on one thread, as in perfbench.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

# the same extraction, quartiles and CPU count as the end-to-end pairs
_spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).resolve().with_name("bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("parent", "change", "aa")
# the kinds of state of perfbench's spectral-multipartite workload: each dims at full rank and rank 2
STATE_DIMS = ((2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2))
STATE_SEEDS = (1, 2)
FAMILY_POINTS = 5  # per family, evenly over its parameter range


def load(name: str, src: Path):
    """The package in `src/nccorr`, imported by path as `name`."""
    init = Path(src) / "nccorr" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def states(nc) -> list:
    """The benchmark states, made by `nc` itself, in a fixed order."""
    return [nc.random_density_matrix(dims, rank, seed) for dims in STATE_DIMS
            for rank in (math.prod(dims), 2) for seed in STATE_SEEDS]


def _rotated(H):
    """U H U^dag for a fixed Haar-like unitary U per matrix size: Hermitian up to rounding only."""
    import numpy as np

    n = H.shape[-1]
    rng = np.random.default_rng(n)
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return U @ H @ U.conj().T


def herm_inputs(nc) -> Dict[str, list]:
    """{input kind: matrices and stacks}: rho, its marginal stacks, K's stack and a rotated copy of each."""
    import numpy as np

    rhos = states(nc)
    out = {
        "rho": [rho.mat for rho in rhos],
        "marginals": [S for rho in rhos for S in nc.qmat.marginal_stacks(rho).values()],
        "K-stack": [np.stack([rho.mat] + [nc.qmat.partial_transpose(rho, b)
                                          for _, b in nc.measures._bipartite_splittings(rho.n_subsystems)])
                    for rho in rhos],
    }
    for kind in list(out):
        out[f"{kind}-rotated"] = [_rotated(H) for H in out[kind]]
    return out


Layer = Tuple[str, Callable[[object], Callable[[], object]]]


def layers() -> List[Layer]:
    """(name, setup): setup(nc) prepares one side's inputs untimed and returns the call to time."""
    import numpy as np

    def herm(kind, vectors):
        def setup(nc):
            inputs = herm_inputs(nc)[kind]
            return lambda: [nc.qmat.herm_eig(H, vectors) for H in inputs]
        return setup

    def measure(name):
        def setup(nc):
            fresh = [nc.DensityMatrix(rho.dims, rho.mat) for rho in states(nc)]
            fn = getattr(nc.measures, name)
            return lambda: [fn(rho) for rho in fresh]
        return setup

    def fresh_walks(nc):
        fresh = [nc.DensityMatrix(rho.dims, rho.mat) for rho in states(nc)]

        def call():
            reports = []
            for rho in fresh:
                nc.measures._WALKS.clear()
                reports.append(nc.measures.measure_G(rho))
            return reports
        return call

    def three_by_four(nc):
        fresh = [nc.random_density_matrix((3, 4), 12, seed) for seed in STATE_SEEDS]
        return lambda: [nc.measures.measure_G(rho) for rho in fresh]

    def eigvalsh(nc):
        inputs = herm_inputs(nc)["rho"]
        return lambda: [np.linalg.eigvalsh(H) for H in inputs]

    def family_point(family):
        def setup(nc):
            cfg, (ctor, lo, hi) = nc.SearchConfig(seed=7), nc.sweep.FAMILIES[family]
            point = lambda rho: nc.sweep.evaluate_point(rho, nc.sweep.MEASURE_ORDER, cfg,
                                                        nc.measures.DEFAULT_PARTITION_CAP)
            point(ctor(lo))  # fills cfg, as a sweep's first point does
            fresh = [ctor(float(p)) for p in np.linspace(lo, hi, FAMILY_POINTS)]
            return lambda: [point(rho) for rho in fresh]
        return setup

    def family_search(nc):
        cfg = nc.SearchConfig(seed=7)
        for dims in {ctor(lo).dims for ctor, lo, _ in nc.sweep.FAMILIES.values()}:  # fills cfg's sample sets
            nc.min_diag_entropy(nc.random_density_matrix(dims, math.prod(dims), 3), cfg)
        fresh = [ctor(float(p)) for ctor, lo, hi in nc.sweep.FAMILIES.values()
                 for p in np.linspace(lo, hi, FAMILY_POINTS)]
        return lambda: [nc.min_diag_entropy(rho, cfg) for rho in fresh]

    def seven_qubits(nc):
        cfg, dims = nc.SearchConfig(n_samples=16, refine_steps=2, seed=7), (2,) * 7
        nc.min_diag_entropy(nc.random_density_matrix(dims, 2 ** 7, 3), cfg)  # fills cfg
        fresh = [nc.random_density_matrix(dims, 2 ** 7, seed) for seed in STATE_SEEDS]
        return lambda: [nc.min_diag_entropy(rho, cfg) for rho in fresh]

    def cold_search(fn):
        def setup(nc):
            fresh = [nc.random_density_matrix(dims, math.prod(dims), seed) for dims in STATE_DIMS for seed in STATE_SEEDS]
            call = getattr(nc, fn)
            return lambda: [call(rho, nc.SearchConfig(seed=seed)) for seed, rho in enumerate(fresh)]
        return setup

    def haar(dims):
        def setup(nc):
            N = nc.search._ginibre(np.random.default_rng(5), dims, 512)
            return lambda: nc.search._haar_batch(dims, N)
        return setup

    kinds = ("rho", "marginals", "K-stack")
    out = [(f"herm_eig[{kind}{rot}, vectors={vectors}]", herm(kind + rot, vectors))
           for kind in kinds for rot in ("", "-rotated") for vectors in (False, True)]
    out.append(("numpy.linalg.eigvalsh[rho]", eigvalsh))
    out += [(name, measure(name)) for name in ("measure_G", "measure_DG", "measure_K", "negativity")]
    out += [("measure_G[fresh walk tables]", fresh_walks), ("measure_G[(3,4)]", three_by_four)]
    out += [(f"sweep.evaluate_point[{family}, reused config]", family_point(family))
            for family in ("ps", "sigma", "horodecki")]
    out.append(("min_diag_entropy[families, reused config]", family_search))
    out.append(("min_diag_entropy[seven qubits, reused config]", seven_qubits))
    out += [(f"{fn}[measure-cold states, fresh config]", cold_search(fn)) for fn in ("min_diag_entropy", "measure_D")]
    out += [(f"_haar_batch[{dims}, 512 samples]", haar(dims)) for dims in STATE_DIMS]
    out += [(f"search._plan[{dims}]", lambda nc, dims=dims: lambda: tuple(nc.search._plan(dims)))
            for dims in (*STATE_DIMS, (2,) * 7)]
    return out


def same(x, y) -> bool:
    """x == y, arrays byte for byte, dataclasses (of either package) field by field."""
    import numpy as np

    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return (isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and x.dtype == y.dtype
                and x.shape == y.shape and x.tobytes() == y.tobytes())
    if dataclasses.is_dataclass(x) and dataclasses.is_dataclass(y):
        return type(x).__name__ == type(y).__name__ and all(
            same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)) and isinstance(y, (list, tuple)):
        return type(x) is type(y) and len(x) == len(y) and all(map(same, x, y))
    if isinstance(x, dict) and isinstance(y, dict):
        return list(x) == list(y) and all(same(x[k], y[k]) for k in x)
    return type(x) is type(y) and (x == y or (x != x and y != y))


# pair -> its two sides, the first the one its ratios divide by
PAIRS = {"change": ("parent", "change"), "aa": ("parent", "aa")}


def time_layers(pkgs: Dict[str, object], todo: Sequence[Layer], rounds: int,
                timer: Callable[[], float] = time.perf_counter) -> dict:
    """{layer: {pair: {side: one time per round}, "outputs_equal": {pair: bool}}} for pkgs keyed by SIDES."""
    out = {}
    for name, setup in todo:
        first = {side: setup(pkgs[side])() for side in SIDES}
        times = {pair: {side: [] for side in sides} for pair, sides in PAIRS.items()}
        for r in range(rounds):
            for pair, sides in PAIRS.items():
                for side in sides if r % 2 == 0 else sides[::-1]:
                    call = setup(pkgs[side])
                    t0 = timer()
                    call()
                    times[pair][side].append(timer() - t0)
        out[name] = {**times, "outputs_equal": {pair: same(first[a], first[b]) for pair, (a, b) in PAIRS.items()}}
    return out


def summarize(timed: dict) -> dict:
    """Per layer: each side's median time, the ratio statistics of both pairs and `gain_shown`."""
    out = {}
    for name, t in timed.items():
        ratios = {pair: [b / a for a, b in zip(t[pair][sides[0]], t[pair][sides[1]])] for pair, sides in PAIRS.items()}
        q, aa_q = bench_pairs.quartiles(ratios["change"]), bench_pairs.quartiles(ratios["aa"])
        wins = sum(r < 1.0 for r in ratios["change"])
        out[name] = {
            "rounds": len(ratios["change"]),
            "parent_median_s": statistics.median(t["change"]["parent"]),
            "change_median_s": statistics.median(t["change"]["change"]),
            "ratio_median": q[1],
            "ratio_quartiles": q,
            "change_wins": wins,
            "aa_ratio_median": aa_q[1],
            "aa_ratio_quartiles": aa_q,
            "aa_wins": sum(r < 1.0 for r in ratios["aa"]),
            "outputs_equal": t["outputs_equal"]["change"],
            "aa_outputs_equal": t["outputs_equal"]["aa"],
            "gain_shown": (len(ratios["change"]) >= bench_pairs.MIN_PAIRS and 10 * wins >= 9 * len(ratios["change"])
                           and q[1] < aa_q[0]),
        }
    return out


def verdict_lines(summary: dict) -> List[str]:
    return [f"{name}: parent {s['parent_median_s'] * 1e6:.1f} us, change {s['change_median_s'] * 1e6:.1f} us, "
            f"ratio {s['ratio_median']:.3f} [{s['ratio_quartiles'][0]:.3f}, {s['ratio_quartiles'][2]:.3f}], "
            f"won {s['change_wins']}/{s['rounds']}, A/A {s['aa_ratio_median']:.3f} "
            f"[{s['aa_ratio_quartiles'][0]:.3f}, {s['aa_ratio_quartiles'][2]:.3f}], "
            f"outputs_equal {s['outputs_equal']}, gain_shown {s['gain_shown']}"
            for name, s in summary.items()]


def src_lines(src: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted((Path(src) / "nccorr").glob("*.py")))


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(), "cpu_count": os.cpu_count(), "cpus_usable": bench_pairs.usable_cpus(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision to compare against")
    p.add_argument("--change", required=True, help="revision under test")
    p.add_argument("--rounds", type=int, default=20, help="timed rounds per layer (default 20)")
    p.add_argument("--out", type=Path, required=True, help="JSON file whose `layers` key is written")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")

    commits = {"parent": bench_pairs.resolve(args.parent), "change": bench_pairs.resolve(args.change)}
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in trees.items():
            bench_pairs.extract(commits[side], tree)
        pkgs = {side: load(f"nccorr_{side}", trees["parent" if side == "aa" else side] / "src") for side in SIDES}
        lines = {side: src_lines(tree / "src") for side, tree in trees.items()}
        summary = summarize(time_layers(pkgs, layers(), args.rounds))
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["layers"] = {
        "description": (f"in-process layer timing, {args.rounds} rounds, parent/change and parent/parent "
                        "pairs alternating per round; written by tools/bench_layers.py"),
        "parent_commit": commits["parent"], "change_commit": commits["change"],
        **machine(), "src_lines": lines, "per_layer": summary,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(verdict_lines(summary)), flush=True)
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.exit(main())
