"""Run the benchmark on two revisions as alternating pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --change REV \\
        --workload sweep-families --workload measure-cold --seeds 911-915 \\
        --out BENCH_8.json

Each revision's committed files are extracted (`git archive`) into a fresh
temporary directory, so the runs see exactly what was committed and nothing
is registered in the repository.  For every workload and seed, both
checkouts run `perfbench/run.py --workload W --seed S --trace 0` one after
the other, at the benchmark's own run length: the parent first on odd seeds, the change first on
even ones, so a steady drift in machine speed favours neither side.  Every
run's `meta` line and final JSON result are stored.  The summary gives, per
workload and end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the pairs the change won (strictly better in the metric's
direction), the relative change of the medians, the number of seeds whose
two values differ and the largest difference among them.  `gain_shown` says
whether the change may claim a gain on the metric: there are at least
`MIN_PAIRS` pairs, the change won at least nine tenths of them, and its
median is better than the parent's by more than the parent's interquartile
range.  For every seed, each checkout also runs
`nccorr verify` once, in the same order, and its per-criterion seconds are
stored with their medians per side.  The report also gives each side's
source line count (perfbench's `meta.nccorr_src_lines`).  After each
workload's pairs, both checkouts run it again with `--trace 1` on every seed
of the range, in that seed's pair order; each side's per-layer metrics per
run and their medians are stored under `traced`, kept apart from the pairs,
since one traced run per side is too noisy to say where time went.  Once
the report is written, one verdict line per workload and end-to-end metric
is printed: the parent's median and quartiles, the change's median, the
pairs won and `gain_shown`.  Before them, one line says whether the two
checkouts' `outputs_sha256` match: each checkout runs a fixed set of `nccorr`
commands once, and the report stores the hash of their outputs per side.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10  # the fewest pairs (or rounds) a gain can be shown from: nine tenths of them must be won
# the states and family sweeps `outputs_sha256` runs `nccorr` on
OUTPUT_DIMS = ("2,4", "3,3", "2,2,2", "2,2,2,2", "2,3,2")
OUTPUT_SWEEPS = (("ps", "1"), ("sigma", "0.5"), ("horodecki", "1"))


def parse_seeds(text: str) -> List[int]:
    """'911-915' -> [911, ..., 915]; '7' -> [7]."""
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return list(range(lo, hi + 1))


def pair_order(seed: int) -> Sequence[str]:
    """Parent first on odd seeds, change first on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def quartiles(xs: Sequence[float]) -> List[float]:
    if len(xs) < 2:
        return [xs[0]] * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: Sequence[dict], better: Dict[str, str]) -> dict:
    """Per workload: pairs, failed ops and, per metric, the comparison of the two sides.

    `runs` are records with keys side, workload, seed and result (perfbench's
    final JSON); `better` maps each metric name to "higher" or "lower".  A
    pair is a seed that both sides ran.
    """
    out = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {side: {r["seed"]: r["result"] for r in runs
                          if r["workload"] == wl and r["side"] == side} for side in SIDES}
        seeds = sorted(by_seed["parent"].keys() & by_seed["change"].keys())
        metrics = {}
        for name, direction in better.items():
            sign = 1.0 if direction == "higher" else -1.0
            pairs = [(by_seed["parent"][s]["metrics"][name]["value"],
                      by_seed["change"][s]["metrics"][name]["value"]) for s in seeds]
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            diffs = [abs(c - p) for p, c in pairs if c != p]
            wins = sum(sign * (c - p) > 0 for p, c in pairs)
            p_q = quartiles(parent)
            metrics[name] = {
                "better": direction,
                "parent_median": p_med,
                "parent_quartiles": p_q,
                "change_median": c_med,
                "change_quartiles": quartiles(change),
                "change_wins": wins,
                "gain_shown": (len(pairs) >= MIN_PAIRS and 10 * wins >= 9 * len(pairs)
                               and sign * (c_med - p_med) > p_q[2] - p_q[0]),
                "median_change": (c_med - p_med) / p_med if p_med else None,
                "seeds_differing": len(diffs),
                "max_abs_diff": max(diffs, default=0.0),
            }
        out[wl] = {
            "pairs": len(seeds),
            "failed_ops": {side: sum(by_seed[side][s]["failed"] for s in seeds) for side in SIDES},
            "metrics": metrics,
        }
    return out


def parse_output(stdout: str) -> dict:
    """perfbench's meta line and final JSON result from one run's standard output."""
    lines = stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return {"meta": meta, "result": json.loads(lines[-1])}


def parse_verify(stdout: str) -> dict:
    """The `criterion-N: X.XXX s` lines and the last line of one `nccorr verify` run's output."""
    matches = (re.fullmatch(r"(criterion-\d+): (\d+\.\d+) s", line) for line in stdout.splitlines())
    return {"seconds": {m[1]: float(m[2]) for m in matches if m},
            "summary": stdout.strip().splitlines()[-1]}


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_report(seeds: Sequence[int], commits: Dict[str, str], runs: Sequence[dict],
                 better: Dict[str, str], verify_runs: Sequence[dict] = (), traced: Sequence[dict] = (),
                 outputs: Optional[Dict[str, str]] = None) -> dict:
    """The BENCH_<n>.json document.  The CPUs this process may use are
    recorded beside the machine's count (perfbench's meta.nproc is the
    latter), since either revision may run on more than one."""
    seconds = sorted({r["meta"]["seconds"] for r in runs})
    src_lines = {r["side"]: r["meta"].get("nccorr_src_lines") for r in runs}
    verify_median = {}
    for side in SIDES:
        mine = [r["seconds"] for r in verify_runs if r["side"] == side]
        if mine:
            verify_median[side] = {name: statistics.median(s[name] for s in mine) for name in mine[0]}
    return {
        "description": (f"perfbench/run.py --trace 0, {'/'.join(map(str, seconds))} s per run, "
                        "as alternating pairs "
                        f"(seeds {seeds[0]}-{seeds[-1]}, the parent first on odd seeds); "
                        "written by tools/bench_pairs.py"),
        "cpus_usable": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "src_lines": {side: src_lines.get(side) for side in SIDES},
        "outputs_sha256": outputs or {},
        "summary": summarize(runs, better),
        "verify_median_s": verify_median,
        "traced": traced_metrics(traced),
        "runs": list(runs),
        "verify_runs": list(verify_runs),
    }


def traced_metrics(traced: Sequence[dict]) -> dict:
    """Per workload and side: each traced run's seed, op counts and per-layer
    metric values, and the median of each metric over those runs."""
    out: Dict[str, dict] = {}
    for r in traced:
        res = r["result"]
        out.setdefault(r["workload"], {}).setdefault(r["side"], {"runs": []})["runs"].append({
            "seed": r["seed"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: m["value"] for name, m in res["metrics"].items()}})
    for sides in out.values():
        for side in sides.values():
            side["median"] = {name: statistics.median(run["metrics"][name] for run in side["runs"])
                              for name in side["runs"][0]["metrics"]}
    return out


def verdict_lines(summary: dict) -> List[str]:
    """One line per workload and metric of a `summarize` result."""
    return [f"{wl} {name}: parent {m['parent_median']:.6g} [{m['parent_quartiles'][0]:.6g}, "
            f"{m['parent_quartiles'][2]:.6g}], change {m['change_median']:.6g}, "
            f"won {m['change_wins']}/{s['pairs']}, gain_shown {m['gain_shown']}"
            for wl, s in summary.items() for name, m in s["metrics"].items()]


def resolve(rev: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def extract(commit: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on; git
        # archive of a commit holds only plain files and links in any case
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return parse_output(done.stdout)


def run_verify(checkout: Path) -> dict:
    cmd = [sys.executable, "-c", "import sys; from nccorr.cli import main; sys.exit(main(['verify']))"]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"nccorr verify in {checkout} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return parse_verify(done.stdout)


def outputs_sha256(checkout: Path) -> str:
    """sha256 of the exit code, standard output and standard error of a fixed
    set of `nccorr` runs, taken in sorted order of their arguments.

    The set: `gen-state --dims D [--rank R] --seed S` for D in OUTPUT_DIMS, R
    in 1, 2 and full, S in 1 and 2; `measure FILE --measures D,G,DG,K,N` on
    each file; and `sweep --family F --from 0 --to HI --steps 101 --seed 1`
    for each (F, HI) of OUTPUT_SWEEPS.  The state files are not hashed, only
    what the commands print, so two revisions that store the same matrices
    as different text still match.  Each command runs in a fresh interpreter
    in one temporary directory, with `PYTHONPATH` set as in `run_verify`.
    """
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = {}
    with tempfile.TemporaryDirectory(prefix="outputs-") as tmp:
        def run(*args: str) -> None:
            done[args] = subprocess.run([sys.executable, "-m", "nccorr.cli", *args], cwd=tmp, env=env,
                                        capture_output=True)

        files = []
        for dims in OUTPUT_DIMS:
            for rank in ("1", "2", None):
                for seed in ("1", "2"):
                    files.append(f"{dims}-rank{rank or 'full'}-seed{seed}.json")
                    run("gen-state", "--dims", dims, *(("--rank", rank) if rank else ()), "--seed", seed,
                        "--out", files[-1])
        for name in files:
            run("measure", name, "--measures", "D,G,DG,K,N")
        for family, hi in OUTPUT_SWEEPS:
            run("sweep", "--family", family, "--from", "0", "--to", hi, "--steps", "101", "--seed", "1")
    digest = hashlib.sha256()
    for args in sorted(done):
        proc = done[args]
        digest.update(f"{' '.join(args)}\n{proc.returncode}\n".encode() + proc.stdout + b"\0" + proc.stderr + b"\0")
    return digest.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision to compare against")
    p.add_argument("--change", required=True, help="revision under test")
    p.add_argument("--workload", action="append", required=True,
                   help="perfbench workload; repeat for several")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="seed range, e.g. 911-915")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs, traced = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            extract(commits[side], checkouts[side])
        for wl in args.workload:
            for seed in args.seeds:
                for side in pair_order(seed):
                    rec = run_once(checkouts[side], wl, seed)
                    runs.append({"side": side, "workload": wl, "seed": seed, "trace": 0, **rec})
                    res = rec["result"]
                    print(f"{wl} seed {seed} {side}: failed {res['failed']}/{res['attempted']}, "
                          + ", ".join(f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()),
                          flush=True)
            for seed in args.seeds:
                for side in pair_order(seed):
                    traced.append({"side": side, "workload": wl, "seed": seed, "trace": 1,
                                   **run_once(checkouts[side], wl, seed, trace=1)})
                    res = traced[-1]["result"]
                    print(f"{wl} seed {seed} {side} traced: failed {res['failed']}/{res['attempted']}", flush=True)
        verify_runs = []
        for seed in args.seeds:
            for side in pair_order(seed):
                verify_runs.append({"side": side, "seed": seed, **run_verify(checkouts[side])})
                print(f"verify seed {seed} {side}: {verify_runs[-1]['summary']}", flush=True)
        outputs = {side: outputs_sha256(checkouts[side]) for side in SIDES}
    report = build_report(args.seeds, commits, runs, better, verify_runs, traced, outputs)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    same = "match" if outputs["parent"] == outputs["change"] else "DIFFER"
    print(f"outputs_sha256: parent {outputs['parent']}, change {outputs['change']}: {same}", flush=True)
    print("\n".join(verdict_lines(report["summary"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
