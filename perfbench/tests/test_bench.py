"""Tests of the benchmark itself: the correctness check, the tracer and the
contract between BENCHMARK.json and the code.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import flavourasym  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

for _layer in tracer.LAYERS:
    __import__(f"flavourasym.{_layer}")


def small(cls, seed=3):
    """A workload instance scaled down so a pass takes about a second."""
    wl = cls(flavourasym, seed, run.WORKDIR)
    if cls is workloads.Ensemble:
        wl.n_replicas, wl.n_smear_replicas = 3, 1
        wl.n_response_mc = 200_000
    if cls is workloads.CliChain:
        wl.n_signal = 5000
    wl.prepare()
    return wl


def one_pass(wl, tr=None):
    raw = tr.run_pass(wl.run_pass) if tr else wl.run_pass()
    return wl.outputs(raw)


@pytest.fixture(scope="module")
def passes():
    return {cls.name: (small(cls), one_pass(small(cls)))
            for cls in workloads.WORKLOADS.values()}


def test_compare_accepts_identical_outputs(passes):
    for wl, out in passes.values():
        ok = wl.compare(out, copy.deepcopy(out))
        assert len(ok) == wl.ops_per_pass and all(ok)


def test_compare_fails_a_perturbed_reproduce_value(passes):
    wl, ref = passes["reproduce"]
    got = copy.deepcopy(ref)
    got["values"]["PS|chi2"] += 1e-6    # the size of an exact-band rewrite
    assert wl.compare(got, ref) == [True]
    got["values"]["PS|chi2"] += 1e-2
    assert wl.compare(got, ref) == [False]


def test_compare_fails_only_the_perturbed_replica(passes):
    wl, ref = passes["ensemble"]
    got = copy.deepcopy(ref)
    got["unfolded"]["SD"][1][4] += 1e-7
    ok = wl.compare(got, ref)
    bad = wl.n_replicas + 1             # SD replicas follow the QM ones
    assert ok.count(False) == 1 and not ok[bad]


def test_compare_fails_every_op_on_a_shared_output(passes):
    wl, ref = passes["ensemble"]
    got = copy.deepcopy(ref)
    got["correction"][0] += 1e-3
    assert not any(wl.compare(got, ref))
    got = copy.deepcopy(ref)
    got["smear_systematic"][0] *= 1 + 1e-6
    ok = wl.compare(got, ref)
    assert ok.count(False) == 4 * wl.n_smear_replicas


def test_compare_fails_a_changed_cli_output(passes):
    wl, ref = passes["cli_chain"]
    got = copy.deepcopy(ref)
    got["sha256"]["events.csv"] = "0" * 64
    assert wl.compare(got, ref) == [False]
    got = copy.deepcopy(ref)
    r = got["fit_numbers"][0]
    decimals = len(r.split(".")[1])
    got["fit_numbers"][0] = f"{float(r) + 2 * 10 ** -decimals:.{decimals}f}"
    assert wl.compare(got, ref) == [False]
    got["fit_numbers"][0] = f"{float(r) + 10 ** -decimals:.{decimals}f}"
    assert wl.compare(got, ref) == [True]


@pytest.fixture(scope="module")
def traced():
    """Two traced passes of each small workload, one tracer per workload."""
    out = {}
    for cls in workloads.WORKLOADS.values():
        wl, tr = small(cls), tracer.Tracer(flavourasym)
        tr.install()
        try:
            for _ in range(2):
                one_pass(wl, tr)
        finally:
            tr.uninstall()
        out[cls.name] = (wl, tr)
    return out


def test_every_span_has_an_enclosing_parent(traced):
    for _, tr in traced.values():
        tr.check_spans()
        for i, p in enumerate(tr.parent):
            assert (p == -1 and tr.name[i] == tracer.ROOT_SPAN) or 0 <= p < i


def test_layer_self_times_sum_to_the_traced_wall(traced):
    for wl, tr in traced.values():
        for wall, spans, counters in tr.pass_summaries():
            layers = sum(run.layer_metric(f"{layer}.self_s", spans, counters)
                         for layer in tracer.LAYERS)
            gap = spans[tracer.ROOT_SPAN][2]
            assert layers + gap == pytest.approx(wall, abs=1e-9)
            assert gap < 0.02 * wall, (wl.name, gap, wall)


def test_each_workload_reaches_its_layers(traced):
    for wl, tr in traced.values():
        for _, spans, _ in tr.pass_summaries():
            assert wl.layers <= {n.split(".")[0] for n in spans}


def test_exact_counts_repeat_between_passes_and_runs(traced):
    def counts(tr):
        return [[run.layer_metric(n, spans, c) for n in run.EXACT]
                for _, spans, c in tr.pass_summaries()]

    for cls in (workloads.Ensemble, workloads.CliChain):
        wl, first = traced[cls.name]
        again = tracer.Tracer(flavourasym)
        again.install()
        try:
            one_pass(small(cls), again)
        finally:
            again.uninstall()
        c1, c2 = counts(first), counts(again)
        assert c1[0] == c1[1] == c2[0]
        assert all(v > 0 for v in c1[0])


def test_names_bound_in_other_modules_are_wrapped_and_restored():
    fa = flavourasym
    bindings = [(fa.pipeline, "make_signal_events"),
                (fa.pipeline, "dsvd_unfold"), (fa.cli, "write_events"),
                (fa.cli, "read_events"), (fa, "fit_model")]
    before = [getattr(m, a) for m, a in bindings]
    tr = tracer.Tracer(fa)
    tr.install()
    try:
        for (m, a), orig in zip(bindings, before):
            assert getattr(m, a) is not orig
            assert getattr(m, a).__wrapped__ is orig
    finally:
        tr.uninstall()
    assert [getattr(m, a) for m, a in bindings] == before


def test_control_gives_the_reference_and_exits(passes):
    """The control child runs the frozen package on the same seed; its
    outputs agree with the program's, and closing it ends it."""
    wl, out = passes["reproduce"]
    with run.Control("reproduce", 2) as control:   # master seed 3, as small()
        first = control.run_pass(outputs=True)
        again = control.run_pass()
    assert control.proc.returncode == 0
    assert all(wl.compare(out, first["outputs"]))
    assert "outputs" not in again
    assert first["wall"] > 0 and first["op_s"] == [first["wall"]]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, run.layer_unit(n)) for n in run.PER_LAYER]


def test_exits_nonzero_without_the_package():
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "reproduce",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert p.returncode != 0 and p.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
