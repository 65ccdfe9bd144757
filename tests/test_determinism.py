"""Results do not depend on the number of BLAS threads.

The same small computation runs in two fresh interpreters, one with BLAS
pinned to one thread and one with two, and must print the same bytes.
"""
import os
import subprocess
import sys
from pathlib import Path

import nccorr as nc

SRC = Path(nc.__file__).resolve().parents[1]

SCRIPT = """
import hashlib
import numpy as np
import nccorr as nc

for seed, dims in enumerate([(2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)]):
    d = int(np.prod(dims))
    for rank in (2, d):
        rho = nc.random_density_matrix(dims, rank, 100 + seed)
        for rep in (nc.measure_G(rho), nc.measure_DG(rho), nc.measure_K(rho), nc.negativity(rho)):
            w = rep.witness
            if isinstance(w, nc.ProductBasis):
                w = hashlib.sha256(b"".join(f.tobytes() for f in w.factors)).hexdigest()
            print(dims, rank, rep.measure, float(rep.value).hex(), w)

cfg = nc.SearchConfig(n_samples=2000, seed=1, refine_steps=50)
print(nc.run_sweep(nc.SweepSpec("horodecki", 0.0, 1.0, 11, search=cfg)), end="")
"""


D_SCRIPT = """
import hashlib
import nccorr as nc

cfg = nc.SearchConfig(n_samples=2000, seed=1, refine_steps=50)
for seed, dims in enumerate([(2, 2, 2), (2, 2, 2, 2)]):
    rho = nc.random_density_matrix(dims, 2 ** len(dims), 200 + seed)
    rep = nc.measure_D(rho, cfg)
    w = hashlib.sha256(b"".join(f.tobytes() for f in rep.witness.factors)).hexdigest()
    print(dims, float(rep.value).hex(), w, rep.diagnostics["best_source"])
"""

HAAR_SCRIPT = """
import hashlib
import numpy as np
from nccorr import search

for dims in [(2, 4), (2, 2, 2, 2)]:
    N = search._ginibre(np.random.default_rng(5), dims, 5000)
    for F in search._haar_batch(dims, N):
        print(dims, F.shape, hashlib.sha256(F.tobytes()).hexdigest())
"""

def run_with_threads(n, script=SCRIPT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(n)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_blas_thread_count_does_not_change_results():
    one = run_with_threads(1)
    two = run_with_threads(2)
    assert one.count(b"\n") == 8 * 4 + 1 + 11
    assert one == two


def test_blas_thread_count_does_not_change_multipartite_d():
    one = run_with_threads(1, D_SCRIPT)
    two = run_with_threads(2, D_SCRIPT)
    assert one.count(b"\n") == 2
    assert one == two


def test_blas_thread_count_does_not_change_haar_samples():
    one = run_with_threads(1, HAAR_SCRIPT)
    two = run_with_threads(2, HAAR_SCRIPT)
    assert one.count(b"\n") == 2 + 4
    assert one == two
