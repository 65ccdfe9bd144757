"""The summary step of tools/bench_pairs.py, on fixed inputs."""
import argparse
import importlib.util
import json
import os
import subprocess
import tarfile
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def run(side, seed, ops, p50, workload="w", failed=0):
    metrics = {"ops_per_s": {"value": ops, "unit": "op/s"}, "op_p50_ms": {"value": p50, "unit": "ms"}}
    return {"side": side, "workload": workload, "seed": seed,
            "result": {"correct": failed == 0, "attempted": 24, "failed": failed, "metrics": metrics}}


def test_medians_quartiles_and_wins():
    parent = [(10.0, 50.0), (12.0, 40.0), (11.0, 45.0), (13.0, 42.0), (9.0, 60.0)]
    change = [(11.0, 50.0), (11.0, 39.0), (12.0, 40.0), (14.0, 43.0), (10.0, 30.0)]
    runs = [run("parent", s, *v) for s, v in enumerate(parent)]
    runs += [run("change", s, *v) for s, v in enumerate(change)]
    out = bench_pairs.summarize(runs, BETTER)["w"]
    assert out["pairs"] == 5
    assert out["failed_ops"] == {"parent": 0, "change": 0}
    ops = out["metrics"]["ops_per_s"]
    assert ops["parent_median"] == 11.0
    assert ops["parent_quartiles"] == [10.0, 11.0, 12.0]
    assert ops["change_median"] == 11.0
    assert ops["change_wins"] == 4  # higher is better; seed 1 lost
    assert ops["median_change"] == 0.0
    p50 = out["metrics"]["op_p50_ms"]
    assert p50["parent_median"] == 45.0
    assert p50["parent_quartiles"] == [42.0, 45.0, 50.0]
    assert p50["change_median"] == 40.0
    assert p50["change_wins"] == 3  # lower is better; a tie is no win
    assert p50["median_change"] == pytest.approx(-5.0 / 45.0)


@pytest.mark.parametrize("shift, losses, shown", [
    (-5.0, 0, True),     # 10/10 won, medians 5 apart, parent quartiles 4.5 apart
    (-10.0, 1, True),    # 9/10 won is enough
    (-10.0, 2, False),   # 8/10 won, though the medians moved 8
    (-1.0, 0, False),    # 10/10 won, but the medians moved less than the parent's spread
    (5.0, 0, False),     # worse in the metric's direction
], ids=["shown", "nine-wins", "eight-wins", "inside-spread", "worse"])
def test_gain_shown_needs_nine_tenths_won_and_a_median_past_the_parent_spread(shift, losses, shown):
    parent = [10.0 + i for i in range(10)]  # op_p50_ms: lower is better
    change = [p + 1.0 if i < losses else p + shift for i, p in enumerate(parent)]
    runs = [run("parent", i, 1.0, p) for i, p in enumerate(parent)]
    runs += [run("change", i, 1.0, c) for i, c in enumerate(change)]
    p50 = bench_pairs.summarize(runs, BETTER)["w"]["metrics"]["op_p50_ms"]
    assert p50["parent_quartiles"] == [12.25, 14.5, 16.75]
    assert p50["change_quartiles"] == bench_pairs.quartiles(change)
    assert p50["change_wins"] == (10 - losses if shift < 0 else 0)
    assert p50["gain_shown"] is shown


def test_nine_won_pairs_of_nine_show_no_gain():
    parent = [10.0 + i for i in range(9)]
    runs = [run("parent", i, 1.0, p) for i, p in enumerate(parent)]
    runs += [run("change", i, 1.0, p - 20.0) for i, p in enumerate(parent)]
    p50 = bench_pairs.summarize(runs, BETTER)["w"]["metrics"]["op_p50_ms"]
    assert p50["change_wins"] == 9 and p50["change_median"] == p50["parent_median"] - 20.0
    assert p50["gain_shown"] is False


def test_unpaired_runs_are_left_out_and_workloads_kept_apart():
    runs = [run("parent", 1, 10.0, 5.0), run("change", 1, 20.0, 4.0, failed=2),
            run("parent", 2, 99.0, 1.0),
            run("parent", 1, 1.0, 1.0, workload="v"), run("change", 1, 2.0, 2.0, workload="v")]
    out = bench_pairs.summarize(runs, BETTER)
    assert list(out) == ["w", "v"]
    assert out["w"]["pairs"] == 1
    assert out["w"]["failed_ops"] == {"parent": 0, "change": 2}
    assert out["w"]["metrics"]["ops_per_s"]["parent_quartiles"] == [10.0, 10.0, 10.0]
    assert out["w"]["metrics"]["ops_per_s"]["change_wins"] == 1
    assert out["v"]["metrics"]["op_p50_ms"]["change_wins"] == 0


def test_report_records_the_cpus_first():
    runs = [dict(run(side, 911, 10.0, 5.0), meta={"seconds": 30}) for side in ("parent", "change")]
    report = bench_pairs.build_report([911], {"parent": "a" * 40, "change": "b" * 40}, runs, BETTER)
    assert list(report)[:3] == ["description", "cpus_usable", "cpu_count"]
    assert report["cpus_usable"] == bench_pairs.usable_cpus()
    assert report["cpu_count"] == os.cpu_count()
    assert 1 <= report["cpus_usable"] <= report["cpu_count"]
    assert "30 s per run" in report["description"] and "seeds 911-911" in report["description"]
    assert report["summary"]["w"]["pairs"] == 1 and report["runs"] == runs
    json.dumps(report)


def test_report_gives_the_source_line_count_per_side():
    runs = [dict(run(side, seed, 10.0, 5.0), meta={"seconds": 30, "nccorr_src_lines": lines})
            for side, lines in [("parent", 1915), ("change", 1894)] for seed in (911, 912)]
    report = bench_pairs.build_report([911, 912], {"parent": "a" * 40, "change": "b" * 40}, runs, BETTER)
    assert report["src_lines"] == {"parent": 1915, "change": 1894}
    for r in runs[:2]:  # a perfbench that records no line count
        del r["meta"]["nccorr_src_lines"]
    report = bench_pairs.build_report([911, 912], {"parent": "a" * 40, "change": "b" * 40}, runs, BETTER)
    assert report["src_lines"] == {"parent": None, "change": 1894}


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert bench_pairs.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert bench_pairs.usable_cpus() == (os.cpu_count() or 1)


def test_parse_output_takes_meta_line_and_last_line():
    result = {"correct": True, "attempted": 24, "failed": 0, "metrics": {}}
    stdout = "\n".join(["ops_per_s 1 op/s", "meta " + json.dumps({"seed": 3}), json.dumps(result)])
    assert bench_pairs.parse_output(stdout) == {"meta": {"seed": 3}, "result": result}


def test_parse_verify_takes_criterion_seconds_and_last_line():
    stdout = "\n".join([
        "[PASS] criterion-1 ps D matches D_G closed form: max dev 1.1e-16 over 101 points",
        "[PASS] criterion-8 sweep invariant under internal batching: byte-identical",
        "criterion-1: 5.52 s",
        "criterion-10: 0.06 s",
        "25/25 checks passed",
    ])
    assert bench_pairs.parse_verify(stdout) == {
        "seconds": {"criterion-1": 5.52, "criterion-10": 0.06}, "summary": "25/25 checks passed"}


def test_report_holds_verify_medians_per_side():
    runs = [dict(run(side, 911, 10.0, 5.0), meta={"seconds": 30}) for side in ("parent", "change")]
    verify_runs = [{"side": side, "seed": seed, "seconds": {"criterion-1": t}, "summary": "25/25 checks passed"}
                   for side, seed, t in [("parent", 911, 3.0), ("change", 911, 1.0),
                                         ("parent", 912, 5.0), ("change", 912, 2.0)]]
    report = bench_pairs.build_report([911, 912], {"parent": "a" * 40, "change": "b" * 40}, runs, BETTER,
                                      verify_runs)
    assert report["verify_median_s"] == {"parent": {"criterion-1": 4.0}, "change": {"criterion-1": 1.5}}
    assert report["verify_runs"] == verify_runs


def test_seeds_and_alternation():
    assert bench_pairs.parse_seeds("911-915") == [911, 912, 913, 914, 915]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_seeds("5-3")
    assert bench_pairs.pair_order(911) == ("parent", "change")
    assert bench_pairs.pair_order(912) == ("change", "parent")


@pytest.mark.parametrize("data_filter", [True, False], ids=["data-filter", "no-data-filter"])
def test_extract_writes_the_committed_files(tmp_path, monkeypatch, data_filter):
    try:
        head = bench_pairs.resolve("HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    if not data_filter:  # tarfile before Python 3.10.12 / 3.11.4
        monkeypatch.delattr(tarfile, "data_filter", raising=False)
    bench_pairs.extract(head, tmp_path)
    committed = subprocess.run(["git", "-C", str(bench_pairs.ROOT), "show", f"{head}:tools/bench_pairs.py"],
                               capture_output=True, check=True).stdout
    assert (tmp_path / "tools" / "bench_pairs.py").read_bytes() == committed
    assert (tmp_path / "perfbench" / "run.py").is_file()


def test_seeds_differing_counts_the_pairs_that_are_not_equal():
    parent = [(10.0, 50.0), (12.0, 40.0), (11.0, 45.0)]
    change = [(10.0, 50.0), (12.5, 40.0), (9.0, 45.0)]
    runs = [run("parent", s, *v) for s, v in enumerate(parent)]
    runs += [run("change", s, *v) for s, v in enumerate(change)]
    metrics = bench_pairs.summarize(runs, BETTER)["w"]["metrics"]
    assert metrics["ops_per_s"]["seeds_differing"] == 2  # seed 0 ties
    assert metrics["ops_per_s"]["max_abs_diff"] == 2.0
    assert metrics["op_p50_ms"]["seeds_differing"] == 0
    assert metrics["op_p50_ms"]["max_abs_diff"] == 0.0


def test_main_runs_a_traced_pair_per_seed_after_the_pairs(tmp_path, monkeypatch, capsys):
    calls = []
    end_to_end = [m["name"] for m in json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run_once(checkout, workload, seed, trace=0):
        calls.append((checkout.name, workload, seed, trace))
        value = {"parent": 10.0, "change": 6.0}[checkout.name] + seed - 911
        names = ["qmat.herm_eig.calls"] if trace else end_to_end
        metrics = {name: {"value": value, "unit": ""} for name in names}
        return {"meta": {"seconds": 30}, "result": {"correct": True, "attempted": 24, "failed": 0, "metrics": metrics}}

    monkeypatch.setattr(bench_pairs, "resolve", lambda rev: rev * 40)
    monkeypatch.setattr(bench_pairs, "extract", lambda commit, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "run_verify", lambda checkout: {"seconds": {}, "summary": "26/26 checks passed"})
    monkeypatch.setattr(bench_pairs, "outputs_sha256", lambda checkout: {"parent": "1" * 64, "change": "2" * 64}[checkout.name])
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "a", "--change", "b", "--workload", "w",
                             "--seeds", "911-912", "--out", str(out)]) == 0
    assert calls == [("parent", "w", 911, 0), ("change", "w", 911, 0),
                     ("change", "w", 912, 0), ("parent", "w", 912, 0),
                     ("parent", "w", 911, 1), ("change", "w", 911, 1),
                     ("change", "w", 912, 1), ("parent", "w", 912, 1)]
    report = json.loads(out.read_text())
    assert report["traced"] == {"w": {
        side: {"runs": [{"seed": seed, "attempted": 24, "failed": 0,
                         "metrics": {"qmat.herm_eig.calls": value + seed - 911}} for seed in (911, 912)],
               "median": {"qmat.herm_eig.calls": value + 0.5}}
        for side, value in [("parent", 10.0), ("change", 6.0)]}}
    assert [r["seed"] for r in report["runs"]] == [911, 911, 912, 912]
    assert report["summary"]["w"]["pairs"] == 2
    assert report["outputs_sha256"] == {"parent": "1" * 64, "change": "2" * 64}
    # the verdict closes the output: whether the outputs match, then per metric
    # parent median [quartiles], change median, wins, gain_shown
    lines = capsys.readouterr().out.splitlines()
    assert lines[-len(end_to_end) - 1] == f"outputs_sha256: parent {'1' * 64}, change {'2' * 64}: DIFFER"
    verdict = lines[-len(end_to_end):]
    for name, line in zip(end_to_end, verdict):
        won = 2 if report["summary"]["w"]["metrics"][name]["better"] == "lower" else 0
        # two pairs won are too few to show a gain
        assert line == f"w {name}: parent 10.5 [10.25, 10.75], change 6.5, won {won}/2, gain_shown False"


def test_outputs_sha256_hashes_what_each_command_prints_in_sorted_order(tmp_path, monkeypatch):
    calls, changed = [], {}

    def fake_run(cmd, cwd, env, capture_output):
        args = tuple(cmd[3:])
        calls.append(args)
        assert cmd[1:3] == ["-m", "nccorr.cli"] and env["PYTHONPATH"] == str(tmp_path / "src")
        # the state files are not hashed: gen-state writes different text on each call
        if args[0] == "gen-state":
            (Path(cwd) / args[-1]).write_text(str(len(calls)))
        code, out, err = changed.get(args, (0, " ".join(args).encode(), b""))
        return subprocess.CompletedProcess(cmd, code, stdout=out, stderr=err)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    first = bench_pairs.outputs_sha256(tmp_path)
    kinds = [args[0] for args in calls]
    assert kinds == ["gen-state"] * 30 + ["measure"] * 30 + ["sweep"] * 3
    assert all(args[2:] == ("--measures", "D,G,DG,K,N") for args in calls if args[0] == "measure")
    assert {args[1:] for args in calls if args[0] == "measure"} == {
        (args[-1], "--measures", "D,G,DG,K,N") for args in calls if args[0] == "gen-state"}
    assert sum("--rank" in args for args in calls) == 20
    assert calls[-1] == ("sweep", "--family", "horodecki", "--from", "0", "--to", "1", "--steps", "101", "--seed", "1")
    # the same outputs in another run order give the same hash
    monkeypatch.setattr(bench_pairs, "OUTPUT_DIMS", bench_pairs.OUTPUT_DIMS[::-1])
    assert bench_pairs.outputs_sha256(tmp_path) == first
    # a changed exit code, standard output or standard error of one command changes it
    measure = next(args for args in calls if args[0] == "measure")
    printed = " ".join(measure).encode()
    for result in [(2, printed, b""), (0, b"{}", b""), (0, printed, b"warning")]:
        changed[measure] = result
        assert bench_pairs.outputs_sha256(tmp_path) != first
