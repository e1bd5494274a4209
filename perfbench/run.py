#!/usr/bin/env python3
"""blockperm's benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {closure6,verify,requests} --seed N \
        --seconds S --trace {0,1} [--smoke] [--out result.json]
    python3 perfbench/run.py --compare before.json after.json

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` repeats the workload's timed job until the next one would end
after ``--seconds`` (at least one job), with tracing off, and reports the
end-to-end metrics.  Every job starts with the package's functools caches
cleared, as in a fresh process, and every job's output is checked outside
the timed section.

``--trace 1`` makes the traced run.  It times the selected workload's job
once untraced, then runs the jobs of all three workloads with
:class:`tracing.Tracer` installed, so every layer is measured in every
traced result, and reports the per-layer metrics.  ``trace.overhead_ratio``
is the selected job's traced over untraced wall time.

``--smoke`` shrinks every workload to a size that runs in seconds.  The last
line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = {False: 5, True: 1}
GLUE_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

SUITES = ("monoid", "hopf", "duality", "bases", "ncsym", "schurweyl")
REQUEST_KINDS = (
    "compose", "product", "coproduct", "antipode", "pair",
    "lower", "p_to_element", "p_from_element", "action",
)


def _per_layer_units() -> dict[str, str]:
    units = {
        "glue_py.glue_labels.calls": "count",
        "glue_py.glue_labels.self_s": "s",
        "glue_py.glue_labels.us_per_call": "us",
        "glue_py.canonical_labels.calls": "count",
        "monoid.compose.calls": "count",
        "monoid.compose.self_s": "s",
        "monoid.to_labels.self_s": "s",
        "monoid.from_labels.self_s": "s",
        "monoid.ubp_validate.calls": "count",
        "monoid.ubp_validate.self_s": "s",
        "monoid.ubp_hash.calls": "count",
        "monoid.closure.useful_ratio": "ratio",
        "monoid.breaking_points.calls": "count",
        "monoid.breaking_points.self_s": "s",
        "monoid.split_at_breaking_point.calls": "count",
        "monoid.split_at_breaking_point.self_s": "s",
        "partitions.restrict_standardize.calls": "count",
        "partitions.restrict_standardize.self_s": "s",
        "partitions.from_blocks.calls": "count",
        "partitions.from_blocks.self_s": "s",
        "hopf.coproduct.calls": "count",
        "hopf.coproduct.self_s": "s",
        "hopf.coproduct.terms_per_call": "terms",
        "hopf.product.calls": "count",
        "hopf.product.self_s": "s",
        "hopf.product.terms_per_call": "terms",
        "hopf.tensor_product.calls": "count",
        "hopf.tensor_product.self_s": "s",
        "perms.shuffles.calls": "count",
        "perms.shuffles.self_s": "s",
        "monoid.left_compose_perm.calls": "count",
        "monoid.left_compose_perm.self_s": "s",
        "monoid.concat.calls": "count",
        "partitions.cross.calls": "count",
        "hopf.antipode.calls": "count",
        "hopf.antipode.self_s": "s",
        "hopf.antipode.cache_hit_ratio": "ratio",
        "hopf.antipode.cache_size": "entries",
        "perms.inversion_mask.cache_hit_ratio": "ratio",
        "perms.inversion_mask.cache_size": "entries",
        "hopf.basis_change.calls": "count",
        "hopf.basis_change.self_s": "s",
        "monoid.elements_with_domain.calls": "count",
        "monoid.elements_with_domain.self_s": "s",
        "monoid.weak_leq.calls": "count",
        "partitions.set_partitions.calls": "count",
        "partitions.set_partitions.self_s": "s",
        "linear.add.calls": "count",
        "linear.add.self_s": "s",
        "linear.init.calls": "count",
        "ncsym.to_element.calls": "count",
        "ncsym.to_element.self_s": "s",
        "ncsym.from_element.calls": "count",
        "ncsym.from_element.self_s": "s",
        "ncsym.p_coproduct.self_s": "s",
        "schurweyl.matmul.calls": "count",
        "schurweyl.matmul.self_s": "s",
        "schurweyl.cyclotomic_mul.calls": "count",
        "schurweyl.ubp_action_matrix.calls": "count",
        "schurweyl.ubp_action_matrix.self_s": "s",
        "schurweyl.exact_sparse_rank.self_s": "s",
        "schurweyl.convolution_action.self_s": "s",
        "monoid.parse_ubp.self_s": "s",
        "hopf.parse_element.self_s": "s",
        "linear.str.self_s": "s",
    }
    units.update({f"verify.{suite}.wall_s": "s" for suite in SUITES})
    units.update({f"requests.{kind}.p50_ms": "ms" for kind in REQUEST_KINDS})
    units["requests.repeat_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import blockperm and the benchmark modules from this checkout only."""
    if not (SRC / "blockperm" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import blockperm

    if Path(blockperm.__file__).resolve().parent != SRC / "blockperm":
        fail(f"imported blockperm from {blockperm.__file__}, not from {SRC}")
    import workloads

    return blockperm, workloads


# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- provenance ---------------------------------------------------------------


def provenance(blockperm, args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "blockperm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": blockperm.kernel_backend(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# -- set-up -------------------------------------------------------------------


def setup_sample(args) -> float:
    """Seconds from launching a fresh interpreter to the point where it would
    start timing: import, inputs from the seed."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        fail(f"set-up child exited with {code} before it was ready")
    return elapsed


# -- end-to-end run -----------------------------------------------------------


def end_to_end(workloads, args) -> tuple[dict, int, int, dict]:
    """Timed jobs for ``args.seconds``.  The set-up samples are spread over
    the same window, between jobs, so that they see the machine as the jobs
    do rather than only its state at start-up."""
    wl = workloads.prepare(args.workload, args.seed, args.smoke)
    repeats = SETUP_REPEATS[args.smoke]
    setups = [setup_sample(args)]
    walls: list[float] = []
    ops: list[float] = []
    attempted = failed = 0
    rss = None
    begin = time.perf_counter()
    deadline = begin + args.seconds
    while True:
        workloads.clear_caches()
        gc.collect()
        start = time.perf_counter()
        result, op_times = wl.run()
        walls.append(time.perf_counter() - start)
        if rss is None:
            rss = peak_rss_mb()  # before any correctness check allocates
        a, f = wl.check(result)
        del result
        attempted += a
        failed += f
        ops.extend(op_times)
        while len(setups) < repeats and time.perf_counter() - begin >= len(setups) * args.seconds / repeats:
            setups.append(setup_sample(args))
        if args.smoke or time.perf_counter() + statistics.median(walls) > deadline:
            break
    while len(setups) < repeats:
        setups.append(setup_sample(args))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p99_ms": percentile(ops, 99) * 1e3,
        "peak_rss_mb": rss,
    }
    detail = {"jobs": len(walls), "walls_s": walls, "ops": len(ops), "setup_s": setups}
    return values, attempted, failed, detail


# -- traced run ---------------------------------------------------------------


def glue_us_per_call() -> float:
    """The active kernel on all 17,161 ordered pairs of degree-4 diagrams,
    untraced; median over repeats, in microseconds per call."""
    from blockperm import _kernels
    from blockperm.monoid import enumerate_ubp, to_labels

    rows = [to_labels(f) for f in enumerate_ubp(4)]
    work = [(ft, fb, gt, gb) for ft, fb in rows for gt, gb in rows]
    glue = _kernels.glue_labels
    per_call = []
    for _ in range(GLUE_REPEATS):
        start = time.perf_counter()
        for ft, fb, gt, gb in work:
            glue(ft, fb, gt, gb)
        per_call.append((time.perf_counter() - start) / len(work) * 1e6)
    return statistics.median(per_call)


def traced(workloads, args) -> tuple[dict, int, int, dict]:
    from blockperm import hopf, perms
    from tracing import Stats, Tracer

    attempted = failed = 0

    def gate(wl, result):
        nonlocal attempted, failed
        a, f = wl.check(result)
        attempted += a
        failed += f

    selected = workloads.prepare(args.workload, args.seed, args.smoke)
    workloads.clear_caches()
    gc.collect()
    start = time.perf_counter()
    result, _ = selected.run()
    untraced_wall = time.perf_counter() - start
    gate(selected, result)
    del result

    totals: dict[str, Stats] = {}
    caches = {"hopf.antipode": hopf._antipode_basis, "perms.inversion_mask": perms._inversion_mask}
    cache_totals = {prefix: [0, 0, 0] for prefix in caches}  # hits, misses, size
    by_name = {}
    traced_walls = {}
    for name in workloads.WORKLOADS:
        wl = selected if name == args.workload else workloads.prepare(name, args.seed, args.smoke)
        by_name[name] = wl
        workloads.clear_caches()
        gc.collect()
        with Tracer() as tracer:
            start = time.perf_counter()
            result, _ = wl.run()
            wall = time.perf_counter() - start
        traced_walls[name] = wall
        if tracer.self_total() > wall:
            failed += 1  # self times must fit inside the traced wall time
            print(f"trace check failed: self times {tracer.self_total()} > wall {wall}")
        for prefix, cached in caches.items():
            info = cached.cache_info()
            cache_totals[prefix][0] += info.hits
            cache_totals[prefix][1] += info.misses
            cache_totals[prefix][2] += info.currsize
        gate(wl, result)
        del result
        for key, st in tracer.stats.items():
            tot = totals.setdefault(key, Stats())
            tot.calls += st.calls
            tot.self_s += st.self_s
            tot.units += st.units
            tot.inner_calls += st.inner_calls

    def stat(key):
        return totals.get(key, Stats())

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        st = stat(layer)
        if field == "calls":
            values[metric] = st.calls
        elif field == "self_s":
            values[metric] = st.self_s
        elif field == "terms_per_call":
            values[metric] = ratio(st.units, st.calls)
    values["hopf.antipode.self_s"] += stat("hopf._antipode_basis").self_s
    closure = stat("monoid.closure")
    values["monoid.closure.useful_ratio"] = ratio(closure.units - closure.calls, closure.inner_calls)
    values["glue_py.glue_labels.us_per_call"] = glue_us_per_call()
    for prefix, (hits, misses, size) in cache_totals.items():
        values[f"{prefix}.cache_hit_ratio"] = ratio(hits, hits + misses)
        values[f"{prefix}.cache_size"] = size
    for suite in SUITES:
        values[f"verify.{suite}.wall_s"] = by_name["verify"].suite_wall[suite]
    lat = by_name["requests"].kind_latencies
    for kind in REQUEST_KINDS:
        values[f"requests.{kind}.p50_ms"] = statistics.median(lat[kind]) * 1e3
    values["requests.repeat_share"] = workloads.repeat_share(by_name["requests"].stream)
    values["trace.overhead_ratio"] = traced_walls[args.workload] / untraced_wall
    detail = {"untraced_wall_s": untraced_wall, "traced_walls_s": traced_walls}
    return values, attempted, failed, detail


# -- comparison ---------------------------------------------------------------


def compare(before_path: str, after_path: str) -> int:
    """Print each metric of two saved results; refuse mismatched builds."""
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    for key in ("kernel_backend", "python"):
        a, b = before["provenance"][key], after["provenance"][key]
        if a != b:
            print(f"perfbench: refusing to compare: {key} differs ({a} vs {b})", file=sys.stderr)
            return 2
    for name, entry in before["result"]["metrics"].items():
        other = after["result"]["metrics"].get(name)
        if other is None:
            continue
        a, b = entry["value"], other["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{name:45s} {a:>14.6g} {b:>14.6g} {entry['unit']:8s} {change}")
    return 0


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("closure6", "verify", "requests"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one job")
    parser.add_argument("--out", help="also write provenance and result as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.setup_only:
        _, workloads = import_package()
        workloads.prepare(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    if not (SRC / "blockperm").is_dir():
        fail(f"no package source under {SRC}; run from a full checkout")
    for directory in (SRC / "blockperm", HERE):
        if not compileall.compile_dir(str(directory), quiet=1, maxlevels=0):
            fail(f"could not compile {directory}")
    blockperm, workloads = import_package()

    if args.trace:
        values, attempted, failed, detail = traced(workloads, args)
        units = PER_LAYER
    else:
        values, attempted, failed, detail = end_to_end(workloads, args)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    prov = provenance(blockperm, args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, entry in metrics.items():
        value = entry["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:45s} {shown} {entry['unit']}")
    print(f"{'fail_ratio':45s} {failed / attempted:>16.6f} ({failed}/{attempted})")
    if args.out:
        Path(args.out).write_text(json.dumps({"provenance": prov, "result": result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
