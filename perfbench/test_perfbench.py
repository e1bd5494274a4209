"""Tests of the benchmark itself: metric names and units, seeded inputs, the
oracle, the tracer, result comparison and the refusal to run without the
package source.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from blockperm import hopf, monoid, ncsym, schurweyl, verify  # noqa: E402
from blockperm.hopf import Element  # noqa: E402
from blockperm.ncsym import NCSymElement  # noqa: E402
from blockperm.partitions import set_partitions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_metrics_the_runner_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert bench.REQUEST_KINDS == workloads.KINDS
    assert bench.SUITES == tuple(suite for suite in verify.SUITES if suite != "all")


@pytest.mark.parametrize(
    "workload, trace",
    [("closure6", 0), ("verify", 0), ("requests", 0), ("requests", 1)],
)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


def test_same_seed_gives_byte_identical_requests_and_another_seed_does_not():
    first = json.dumps(workloads.make_requests(11, 300))
    assert json.dumps(workloads.make_requests(11, 300)) == first
    assert json.dumps(workloads.make_requests(12, 300)) != first
    kinds = {kind for kind, _ in workloads.make_requests(11, 300)}
    assert kinds == set(workloads.KINDS)


def _ubps(max_n):
    return [f for n in range(max_n + 1) for f in monoid.enumerate_ubp(n)]


def test_oracle_agrees_with_the_package_on_small_degrees():
    for f in _ubps(3):
        d = oracle.parse_diagram(str(f))
        x = Element.basis(f)
        assert oracle.diagram_text(d) == str(f)
        assert oracle.tensor_text(oracle.coproduct({d: 1})) == str(hopf.coproduct(x))
        assert oracle.element_text(oracle.antipode({d: 1})) == str(hopf.antipode(x))
        assert oracle.element_text(oracle.from_lower_basis({d: 2})) == str(
            hopf.from_lower_basis(2 * x)
        )
        if f.n:
            rows = oracle.action_rows(d, 2)
            mat = schurweyl.ubp_action_matrix(f, 2)
            assert [(i, j) for i, j, _ in mat.entries()] == rows
        for g in monoid.enumerate_ubp(f.n):
            e = oracle.parse_diagram(str(g))
            assert oracle.diagram_text(oracle.compose(e, d)) == str(monoid.compose(g, f))
            assert oracle.pairing({d: 1}, {e: 3}) == hopf.pairing(x, 3 * Element.basis(g))
    for f in _ubps(2):
        for g in _ubps(2):
            prod = hopf.product(Element.basis(f), Element.basis(g))
            d, e = oracle.parse_diagram(str(f)), oracle.parse_diagram(str(g))
            assert oracle.element_text(oracle.product({d: 1}, {e: 1})) == str(prod)
    for n in range(4):
        for a in set_partitions(n):
            expected = str(ncsym.to_element(NCSymElement.basis(a)))
            assert oracle.element_text(oracle.to_element({a.blocks: 1})) == expected
            assert oracle.p_element_text({a.blocks: -2}) == str(-2 * NCSymElement.basis(a))


def test_oracle_accepts_correct_outputs_and_rejects_altered_ones():
    stream = workloads.make_requests(3, 120)
    for kind, operands in stream:
        out = workloads.HANDLERS[kind](*operands)
        assert workloads.oracle_accepts(kind, operands, out), (kind, operands)
        assert not workloads.oracle_accepts(kind, operands, out + "0"), (kind, operands)


def test_tracer_wraps_every_binding_and_restores_them():
    original = monoid.compose
    assert hopf.compose is original and verify.compose is original
    with tracing.Tracer() as tracer:
        assert monoid.compose is not original
        assert hopf.compose is monoid.compose and verify.compose is monoid.compose
        monoid.closure_from_generators(3)
    assert monoid.compose is original and hopf.compose is original
    assert verify.compose is original
    stats = tracer.stats
    assert stats["monoid.compose"].calls == stats["glue_py.glue_labels"].calls > 0
    closure = stats["monoid.closure"]
    assert closure.units == 16 and closure.inner_calls == stats["monoid.compose"].calls


def test_recursive_spans_are_not_double_counted_and_self_time_fits_the_wall():
    toy = types.ModuleType("toybench")

    def rec(depth):
        end = time.perf_counter() + 0.002
        while time.perf_counter() < end:
            pass
        return 0 if depth == 0 else 1 + toy.rec(depth - 1)

    toy.rec = rec
    sys.modules["toybench"] = toy
    try:
        target = tracing.Target("toy.rec", "toybench", "rec")
        with tracing.Tracer([target], packages=("toybench",)) as tracer:
            start = time.perf_counter()
            assert toy.rec(5) == 5
            wall = time.perf_counter() - start
    finally:
        del sys.modules["toybench"]
    st = tracer.stats["toy.rec"]
    assert st.calls == 6
    assert st.incl_s <= wall and st.self_s <= wall
    assert st.self_s == pytest.approx(st.incl_s, rel=1e-6)
    assert tracer.self_total() <= wall


def test_compare_refuses_results_from_another_backend(tmp_path, capsys):
    def write(name, backend):
        path = tmp_path / name
        prov = {"kernel_backend": backend, "python": "3.11.7"}
        result = {"metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
        path.write_text(json.dumps({"provenance": prov, "result": result}))
        return str(path)

    a, b, c = write("a.json", "python"), write("b.json", "python"), write("c.json", "cython")
    assert bench.compare(a, b) == 0
    assert "wall_s" in capsys.readouterr().out
    assert bench.compare(a, c) == 2


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "requests", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
