#!/usr/bin/env python3
"""Benchmark of the flavourasym package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce|ensemble|cli_chain \
        --seed N --seconds S --trace 0|1

The package is imported from `src/` of the checkout; nothing is installed.
One run sets up, then repeats whole workload passes until S seconds have
passed, checks every pass's outputs against a reference, and prints a run
record followed, as the last line, by one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

The control is a frozen copy of the package as it was when this benchmark
was defined (`perfbench/oracle/`), in a child process on the same seed and
the same CPU. Its first pass gives the reference outputs.

--trace 0 reports the end-to-end metrics, measured with nothing wrapped.
Program and control passes alternate, and the times are reported as the
program's over the control's: on a shared host a CPU's speed moves by a
quarter or more within seconds, which spreads absolute times across runs by
as much, while both sides of a pair see much the same drift. Absolute times are in the run record.
--trace 1 alternates untraced passes with passes in which the tracer wraps
every public function of the package (see tracer.py), and reports the
per-layer metrics, as the mean over the traced passes.

The program's master seed is --seed + 1, because `init-config` treats
seed 0 as unset.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = HERE / "oracle"
WORKDIR = ROOT / ".bench_build"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 3
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import flavourasym; "
               "print(time.perf_counter() - t)")

END_TO_END = {"wall_ratio": "x", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PAIRS = 2
# Per-layer metrics of one traced pass. `<span>.calls`, `<span>.self_s` and
# `<span>.s` (inclusive) read the span of that name; `<layer>.self_s` sums a
# layer's self time; `bench.pass.self_s` is the benchmark's own time inside
# a pass, so the layer sums plus it give trace.wall_s.
PER_LAYER = [
    "models.MarginalGrid.calls", "models.MarginalGrid.self_s",
    "fitkit.fit_model.self_s", "fitkit.fit_zeta.self_s",
    "fitkit.BinPredictor.band.self_s", "fitkit.BinPredictor.band.s",
    "fitkit.chi2.calls",
    "toygen.make_signal_events.self_s", "toygen.apply_detector.self_s",
    "toygen.inject_backgrounds.self_s", "toygen.event_bytes",
    "toygen.write_events.self_s", "toygen.write_events.bytes",
    "toygen.read_events.self_s",
    "analysis.bin_events.self_s", "analysis.subtract_background.self_s",
    "analysis.asymmetry.self_s", "analysis.read_spectrum.self_s",
    "analysis.write_spectrum.self_s",
    "unfold.build_response.self_s", "unfold.truncated_solver.calls",
    "unfold.truncated_solver.self_s", "unfold.dsvd_unfold.self_s",
    "unfold.unfolded_asymmetry.self_s", "unfold.bias_correct.self_s",
    "pipeline.build_training_responses.self_s", "pipeline.run_replica.self_s",
    "pipeline.corrected_counts.self_s", "pipeline.truth_asymmetry.self_s",
    "pipeline.smear_systematic.self_s",
    "config.load_config.self_s",
    "cli.generate.s", "cli.analyze.s", "cli.unfold.s", "cli.fit.s",
    "models.self_s", "toygen.self_s", "analysis.self_s", "unfold.self_s",
    "fitkit.self_s", "pipeline.self_s", "config.self_s", "cli.self_s",
    "bench.pass.self_s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
]
COUNTERS = ("toygen.event_bytes", "toygen.write_events.bytes")
# counts that must repeat exactly between passes and runs of one seed
EXACT = ("fitkit.chi2.calls", "models.MarginalGrid.calls",
         "unfold.truncated_solver.calls", "toygen.event_bytes")
CLI_SPANS = {f"cli.{c}": f"cli.cmd_{c}"
             for c in ("generate", "analyze", "unfold", "fit")}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "B" if name.endswith("bytes") else "s"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("reproduce", "ensemble", "cli_chain"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--control", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_threads() -> int:
    """One BLAS thread, and this process and its children on one CPU, the
    lowest this process may use. On a few shared cores each CPU's speed
    drifts on its own, so the program and its control run on the same CPU
    to see the same drift. With two BLAS threads on two shared cores, a
    reproduce pass took a fifth longer and kept both cores busy. Returns
    the number of usable CPUs."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus)


def import_package(root: Path):
    sys.path.insert(0, str(root))
    fa = importlib.import_module("flavourasym")
    for layer in tracer.LAYERS:
        importlib.import_module(f"flavourasym.{layer}")
    if Path(fa.__file__).resolve().parent != (root / "flavourasym").resolve():
        raise ImportError(f"flavourasym imported from {fa.__file__}, "
                          f"not from {root}")
    return fa


def time_imports() -> list:
    """`import flavourasym` in fresh interpreters, in seconds."""
    out = []
    for _ in range(IMPORT_SAMPLES):
        p = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)],
                           capture_output=True, text=True, timeout=120,
                           check=True)
        out.append(float(p.stdout))
    return out


class Control:
    """The frozen package under perfbench/oracle/ in a child process, running
    the same workload on the same seed. Each `run_pass` runs one pass there
    while this process waits, and returns its wall time and op times; with
    outputs=True also its outputs, which are the correctness reference.
    The child shares this process's CPU, so it is ready, set up and idle,
    before the first pass is timed."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--control", "--workload",
             workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"control process ended with code "
                               f"{self.proc.wait(timeout=60)}")
        return json.loads(line)

    def run_pass(self, outputs: bool = False) -> dict:
        self.proc.stdin.write("outputs\n" if outputs else "pass\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve_control(wl) -> int:
    """The child side of `Control`: one pass per line read from stdin, one
    JSON line per pass on the original stdout. Anything the package prints
    goes to stderr."""
    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    wl.prepare()
    reply.write(json.dumps({"ready": True}) + "\n")
    reply.flush()
    for line in sys.stdin:
        gc.collect()
        t0 = time.perf_counter()
        raw = wl.run_pass()
        wall = time.perf_counter() - t0
        msg = {"wall": wall, "op_s": wl.op_seconds(raw, wall)}
        if line.strip() == "outputs":
            msg["outputs"] = wl.outputs(raw)
        del raw
        reply.write(json.dumps(msg) + "\n")
        reply.flush()
    return 0


def layer_metric(name, spans, counters):
    if name in COUNTERS:
        return counters[name]
    base, _, kind = name.rpartition(".")
    if kind == "self_s" and base in tracer.LAYERS:
        return sum(s[2] for n, s in spans.items() if n.split(".")[0] == base)
    calls, incl, self_s = spans.get(CLI_SPANS.get(base, base), (0, 0.0, 0.0))
    return {"calls": calls, "s": incl, "self_s": self_s}[kind]


def per_layer(tr, wl, untraced_walls):
    """Per-layer metrics, the mean over the traced passes. Means keep sums
    additive, so the layer self times still add up to trace.wall_s."""
    tr.check_spans()
    passes = tr.pass_summaries()
    for k, (_, spans, _) in enumerate(passes):
        missing = wl.layers - {n.split(".")[0] for n in spans}
        if missing:
            raise AssertionError(
                f"traced pass {k} recorded no span in {sorted(missing)}")
    values = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        per_pass = [layer_metric(name, spans, c) for _, spans, c in passes]
        if name in EXACT and len(set(per_pass)) != 1:
            raise AssertionError(f"{name} differs between passes: {per_pass}")
        values[name] = (statistics.fmean(per_pass) if layer_unit(name) == "s"
                        else per_pass[0])
    traced = statistics.fmean(w for w, _, _ in passes)
    untraced = statistics.fmean(untraced_walls)
    values.update({"trace.wall_s": traced, "trace.untraced_wall_s": untraced,
                   "trace.overhead_s": traced - untraced})
    table = {}
    for _, spans, _ in passes:
        for n, (calls, incl, self_s) in spans.items():
            t = table.setdefault(n, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += calls / len(passes)
            t["s"] += incl / len(passes)
            t["self_s"] += self_s / len(passes)
    return {n: (v, layer_unit(n)) for n, v in values.items()}, table


def run_record(args, nproc, wl, extra):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": wl.name, "why": wl.why, "op": wl.op, "seed": args.seed,
        "master_seed": args.seed + 1, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": h.hexdigest(),
        "cpu": cpu, "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, **extra,
    }


def program_pass(wl, tr=None):
    """One pass of the program: (wall seconds, op seconds, outputs), with
    None for outputs if the pass raised or its outputs could not be read."""
    gc.collect()
    if tr is not None:
        tr.install()
    try:
        t0 = time.perf_counter()
        raw = tr.run_pass(wl.run_pass) if tr is not None else wl.run_pass()
        wall = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        return None, [], None
    finally:
        if tr is not None:
            tr.uninstall()
    op_s = wl.op_seconds(raw, wall)
    try:
        out = wl.outputs(raw)
    except OSError:
        traceback.print_exc()
        out = None
    return wall, op_s, out


def measure_paired(wl, seconds, control):
    """Program passes, each paired with a control pass, in the order PC, CP,
    PC, ... so that a drift in the host's speed weighs on both sides alike.
    A pair starts only if it should end within `seconds`, and there are at
    least MIN_PAIRS. The first control pass also gives the reference.
    Returns the (program, control) wall times of the pairs whose program
    pass completed, the op times of each side, the outputs of every program
    pass and the reference."""
    pairs, prog_op_s, ctrl_op_s, outputs, ref = [], [], [], [], None
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    while len(outputs) < MIN_PAIRS or time.perf_counter() + pair_s <= deadline:
        t0 = time.perf_counter()
        control_first = len(outputs) % 2 == 1
        if control_first:
            c = control.run_pass(outputs=ref is None)
        wall, op_s, out = program_pass(wl)
        if not control_first:
            c = control.run_pass(outputs=ref is None)
        ref = c.pop("outputs", ref)
        ctrl_op_s.extend(c["op_s"])
        if wall is not None:
            pairs.append((wall, c["wall"]))
            prog_op_s.extend(op_s)
        outputs.append(out)
        pair_s = time.perf_counter() - t0
    return pairs, prog_op_s, ctrl_op_s, outputs, ref


def measure_traced(wl, seconds, tr):
    """Untraced and traced program passes in turn; a pass starts only if it
    should end within `seconds`, and there are at least two of each."""
    walls, outputs = [], []
    deadline = time.perf_counter() + seconds
    pass_s = 0.0
    while len(outputs) < 4 or time.perf_counter() + pass_s <= deadline:
        t0 = time.perf_counter()
        traced = len(outputs) % 2 == 1
        wall, _, out = program_pass(wl, tr if traced else None)
        if wall is not None and not traced:
            walls.append(wall)
        outputs.append(out)
        pass_s = time.perf_counter() - t0
    return walls, outputs


def check(wl, outputs, ref):
    """(attempted, failed) ops; a pass that raised fails all of its ops."""
    attempted = failed = 0
    for out in outputs:
        try:
            ok = wl.compare(out, ref) if out is not None else []
        except (KeyError, IndexError, TypeError, ValueError):
            traceback.print_exc()
            ok = []
        ok = ok or [False] * wl.ops_per_pass
        attempted += len(ok)
        failed += ok.count(False)
    return attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    root = ORACLE if args.control else SRC
    if not (root / "flavourasym" / "__init__.py").is_file():
        print(f"error: no flavourasym package under {root}", file=sys.stderr)
        return 2
    fa = import_package(root)
    import numpy        # only after the BLAS threads are pinned
    import workloads

    wl = workloads.WORKLOADS[args.workload](fa, args.seed + 1, WORKDIR)
    if args.control:
        return serve_control(wl)

    import_s = time_imports()
    t0 = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - t0
    extra = {"import_s": import_s, "prepare_s": prepare_s}
    with Control(args.workload, args.seed) as control:
        if args.trace:
            ref = control.run_pass(outputs=True)["outputs"]
            tr = tracer.Tracer(fa)
            walls, outputs = measure_traced(wl, args.seconds, tr)
        else:
            pairs, op_s, ctrl_op_s, outputs, ref = measure_paired(
                wl, args.seconds, control)
            walls = [p for p, _ in pairs]
    if not walls:
        print("error: no pass completed", file=sys.stderr)
        return 1
    attempted, failed = check(wl, outputs, ref)
    last = [o for o in outputs if o is not None][-1]
    wall_s = statistics.median(walls)
    extra.update({"attempted": attempted, "failed": failed,
                  "ops_failed_frac": failed / attempted,
                  "passes": len(outputs), "pass_walls_s": walls,
                  "wall_s": wall_s})
    if "n_events" in last:
        extra["events_per_s"] = last["n_events"] / wall_s
    if args.trace:
        metrics, extra["spans"] = per_layer(tr, wl, walls)
        extra["samples"] = {"traced_passes": len(tr.counters),
                            "untraced_passes": len(walls)}
    else:
        extra.update({
            "control_pass_walls_s": [c for _, c in pairs],
            "op_s.p50": statistics.median(op_s),
            # a 90th percentile has ten samples beyond it only on `ensemble`
            "op_s.p90": float(numpy.percentile(op_s, 90)),
            "ops_per_s": len(op_s) / len(walls) / wall_s,
            "control_op_s.p50": statistics.median(ctrl_op_s),
            "samples": {"wall_ratio": len(pairs), "setup_s": len(import_s),
                        "peak_rss_mb": 1, "op_s": len(op_s),
                        "control_op_s": len(ctrl_op_s)},
        })
        metrics = {
            # total over total: steadier across runs than the median of the
            # pair ratios, with two to a dozen pairs a run
            "wall_ratio": sum(p for p, _ in pairs) / sum(c for _, c in pairs),
            "setup_s": statistics.median(import_s) + prepare_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {n: (v, END_TO_END[n]) for n, v in metrics.items()}
    if hasattr(wl, "verdicts"):
        print("\n".join(wl.verdicts(last)))
    print(json.dumps({"record": run_record(args, nproc, wl, extra)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
