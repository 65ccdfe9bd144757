"""tools/bench_layers.py: the by-path loader, the alternating timer and the summary, with a stubbed clock."""
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import nccorr

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
spec = importlib.util.spec_from_file_location("bench_layers", PATH)
bench_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_layers)

# the package under test, wherever it was imported from (the checkout or an installed copy)
SRC = Path(nccorr.__file__).resolve().parent.parent


@pytest.fixture
def pkgs():
    loaded = {side: bench_layers.load(f"nc_layers_test_{side}", SRC) for side in bench_layers.SIDES}
    yield loaded
    for name in [n for n in sys.modules if n.startswith("nc_layers_test_")]:
        del sys.modules[name]


def test_two_loaded_copies_share_no_module(pkgs):
    nc_a, nc_b = pkgs["parent"], pkgs["change"]
    assert nc_a.measures is not nc_b.measures
    assert nc_a.qmat is not nc_b.qmat and nc_a.DensityMatrix is not nc_b.DensityMatrix
    assert nc_a.measures.qmat is nc_a.qmat  # relative imports resolve inside the copy
    assert nc_a.measures._WALKS is not nc_b.measures._WALKS


def stub_layers(pkgs, costs, outputs):
    """One layer whose call moves a stub clock by its side's cost and returns its side's output."""
    clock = [0.0]

    def setup(nc):
        side = next(s for s, pkg in pkgs.items() if pkg is nc)

        def call():
            clock[0] += costs[side]
            return outputs[side]
        return call

    return [("stub", setup)], lambda: clock[0]


def test_alternating_pairs_with_a_stubbed_timer(pkgs):
    todo, timer = stub_layers(pkgs, {"parent": 2.0, "change": 1.5, "aa": 2.0},
                              {side: np.array([1.0, -0.0]) for side in bench_layers.SIDES})
    timed = bench_layers.time_layers(pkgs, todo, rounds=10, timer=timer)
    assert timed["stub"]["change"] == {"parent": [2.0] * 10, "change": [1.5] * 10}
    assert timed["stub"]["aa"] == {"parent": [2.0] * 10, "aa": [2.0] * 10}
    s = bench_layers.summarize(timed)["stub"]
    assert s["rounds"] == 10 and s["change_wins"] == 10 and s["aa_wins"] == 0
    assert s["ratio_median"] == 0.75 and s["ratio_quartiles"] == [0.75] * 3
    assert s["aa_ratio_quartiles"] == [1.0] * 3
    assert s["parent_median_s"] == 2.0 and s["change_median_s"] == 1.5
    assert s["outputs_equal"] and s["aa_outputs_equal"] and s["gain_shown"]
    assert bench_layers.verdict_lines({"stub": s})[0].startswith("stub: parent 2000000.0 us, change 1500000.0 us")


def test_nine_won_rounds_of_nine_show_no_gain(pkgs):
    # every round won by a wide margin, but fewer rounds than a gain needs
    todo, timer = stub_layers(pkgs, {"parent": 2.0, "change": 1.0, "aa": 2.0},
                              {side: 1.0 for side in bench_layers.SIDES})
    s = bench_layers.summarize(bench_layers.time_layers(pkgs, todo, rounds=9, timer=timer))["stub"]
    assert s["rounds"] == 9 and s["change_wins"] == 9 and s["ratio_median"] == 0.5
    assert not s["gain_shown"]


def test_a_slower_or_different_change_shows_no_gain(pkgs):
    outputs = {side: np.array([1.0, 0.0]) for side in bench_layers.SIDES}
    outputs["change"] = np.array([1.0, -0.0])  # equal under ==, but not byte for byte
    todo, timer = stub_layers(pkgs, {"parent": 2.0, "change": 2.5, "aa": 2.0}, outputs)
    s = bench_layers.summarize(bench_layers.time_layers(pkgs, todo, rounds=3, timer=timer))["stub"]
    assert s["change_wins"] == 0 and s["ratio_median"] == 1.25 and not s["gain_shown"]
    assert not s["outputs_equal"] and s["aa_outputs_equal"]


def test_each_side_runs_on_its_own_package_in_alternating_order(pkgs):
    seen = []

    def setup(nc):
        return lambda: seen.append(next(s for s, pkg in pkgs.items() if pkg is nc))

    bench_layers.time_layers(pkgs, [("order", setup)], rounds=2)
    untimed, timed = seen[:3], seen[3:]
    assert untimed == ["parent", "change", "aa"]
    assert timed == ["parent", "change", "parent", "aa", "change", "parent", "aa", "parent"]


def test_reports_of_two_copies_compare_field_by_field(pkgs):
    nc_a, nc_b = pkgs["parent"], pkgs["change"]
    reps = [nc.measures.measure_DG(nc.random_density_matrix((2, 2), 2, 3)) for nc in (nc_a, nc_b)]
    assert type(reps[0]) is not type(reps[1])
    assert bench_layers.same(reps[0], reps[1])
    other = nc_b.measures.measure_DG(nc_b.random_density_matrix((2, 2), 2, 4))
    assert not bench_layers.same(reps[0], other)
    assert bench_layers.same([float("nan"), {"a": (1, 2)}], [float("nan"), {"a": (1, 2)}])
    assert not bench_layers.same({"a": 1, "b": 2}, {"b": 2, "a": 1})


def test_main_writes_layers_beside_the_keys_already_there(tmp_path, monkeypatch, capsys, pkgs):
    todo, timer = stub_layers(pkgs, {"parent": 2.0, "change": 1.0, "aa": 2.0},
                              {side: 1.0 for side in bench_layers.SIDES})
    time_layers = bench_layers.time_layers
    monkeypatch.setattr(bench_layers.bench_pairs, "resolve", lambda rev: rev * 40)
    monkeypatch.setattr(bench_layers.bench_pairs, "extract", lambda commit, dest: None)
    monkeypatch.setattr(bench_layers, "load", lambda name, src: pkgs[name.rpartition("_")[2]])
    monkeypatch.setattr(bench_layers, "layers", lambda: todo)
    monkeypatch.setattr(bench_layers, "time_layers", lambda pkgs, todo, rounds: time_layers(pkgs, todo, rounds, timer))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"summary": {"w": 1}}))
    assert bench_layers.main(["--parent", "a", "--change", "b", "--rounds", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["summary"] == {"w": 1}
    layers = report["layers"]
    assert layers["parent_commit"] == "a" * 40 and layers["change_commit"] == "b" * 40
    assert {"machine", "python", "numpy", "blas", "src_lines"} <= set(layers)
    assert layers["per_layer"]["stub"]["ratio_median"] == 0.5
    assert capsys.readouterr().out.startswith("stub: parent")


def test_the_layer_list_covers_both_modes_and_the_measures():
    names = [name for name, _ in bench_layers.layers()]
    for kind in ("rho", "marginals", "K-stack"):
        for rot in ("", "-rotated"):
            for vectors in (False, True):
                assert f"herm_eig[{kind}{rot}, vectors={vectors}]" in names
    measures = ["measure_G", "measure_DG", "measure_K", "negativity",
                "measure_G[fresh walk tables]", "measure_G[(3,4)]"]
    assert names[names.index("measure_G") : names.index("measure_G") + 6] == measures
    assert names[-16:] == [*(f"sweep.evaluate_point[{family}, reused config]" for family in ("ps", "sigma", "horodecki")),
                           "min_diag_entropy[families, reused config]",
                           "min_diag_entropy[seven qubits, reused config]",
                          "min_diag_entropy[measure-cold states, fresh config]",
                          "measure_D[measure-cold states, fresh config]",
                          *(f"_haar_batch[{dims}, 512 samples]" for dims in bench_layers.STATE_DIMS),
                          *(f"search._plan[{dims}]" for dims in (*bench_layers.STATE_DIMS, (2,) * 7))]


def test_rotated_inputs_are_inexact_and_the_others_exact(pkgs):
    for kind, inputs in bench_layers.herm_inputs(pkgs["parent"]).items():
        exact = [np.array_equal(H, np.conj(np.swapaxes(H, -1, -2))) for H in inputs]
        assert inputs and (not any(exact) if kind.endswith("-rotated") else all(exact)), kind


def test_the_d_search_layers_run_on_both_copies_and_agree(pkgs):
    # each D-search layer's call works on a loaded copy and gives the other
    # copy's outputs; the reused config is filled before the call
    for name, setup in bench_layers.layers()[-16:]:
        a, b = (setup(pkgs[side])() for side in ("parent", "change"))
        assert a and bench_layers.same(a, b), name


def test_the_walk_layers_build_their_tables_and_agree(pkgs):
    # the fresh-walk layer clears the kept tables before each state, so its
    # call ends with only the last state's walks kept; the (3,4) layer keeps
    # both of its walks, the d = 4 one the largest the default cap admits
    layer = dict(bench_layers.layers())
    for side in ("parent", "change"):
        pkgs[side].measures._WALKS[("stale",)] = None
    a, b = (layer["measure_G[fresh walk tables]"](pkgs[side])() for side in ("parent", "change"))
    assert len(a) == 16 and bench_layers.same(a, b)
    assert set(pkgs["parent"].measures._WALKS) == {(16, 2)}
    a, b = (layer["measure_G[(3,4)]"](pkgs[side])() for side in ("parent", "change"))
    assert len(a) == 2 and bench_layers.same(a, b)
    assert set(pkgs["parent"].measures._WALKS) == {(16, 2), (12, 3), (12, 4)}
