"""Outside-in benchmark of the cavsinglet command-line interface.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 28 --trace 0

One process drives ``cavsinglet.cli.main`` in-process as a closed loop with
one client: each operation (one CLI invocation) starts when the previous one
has returned.  Passes over the workload repeat until the next one would end
after ``--seconds``.  Every output is checked against physics tolerances.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones.  The last line of standard output is one JSON object; the
full result, with the environment and (traced) all spans, is written to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import os
import sys

# Pin the thread environment before numpy is imported.  The sweep pool may
# use both cores; BLAS stays single-threaded, since its threads do not help
# on 144 x 144 problems.
NPROC = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "LE_THREADS": str(min(2, NPROC))}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # the tail percentile needs at least this many samples above it

COLD_IMPORT = ("import time; t = time.perf_counter(); import cavsinglet.cli; "
               "print(time.perf_counter() - t)")

# Layers reported by the traced run, as ``module.function`` span names.
LAYERS = (
    "model.build_master_equation",
    "liouville.vectorize", "liouville.spectral_gap", "liouville.steady_state",
    "liouville.propagate", "liouville.evolve_spectral",
    "liouville.time_to_convergence",
    "schemes.numeric_fidelity", "schemes.scheme_numeric_fidelity",
    "schemes.drive_for_dynamic_error",
    "effective.partition", "effective.reduce", "effective.reduce_dressed",
    "ratemodel.build_rates", "ratemodel.evolve",
    "cli.write_csv", "cli.write_record",
) + tuple(f"lapack.{name}" for name in spans.LAPACK_NAMES)
DECOMPOSITIONS = ("lapack.eig", "lapack.eigvals", "lapack.svd")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cavsinglet" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cavsinglet
    import cavsinglet.cli

    if Path(cavsinglet.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: cavsinglet imported from {cavsinglet.__file__}")
    return cavsinglet


def cold_import_seconds() -> list[float]:
    """Import time of ``cavsinglet.cli`` in fresh interpreters, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(package, args) -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        deps = mod.show_config(mode="dicts")["Build Dependencies"]
        return "; ".join(f"{k}: {deps[k].get('name')} {deps[k].get('version')}"
                         for k in ("blas", "lapack") if k in deps)

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy), "cavsinglet": package.__version__,
        **{k: os.environ.get(k) for k in THREAD_ENV},
    }


class Result:
    """Outcome of one operation."""

    __slots__ = ("op", "seconds", "cpu_s", "error", "problems")

    def __init__(self, op, seconds, cpu_s, error):
        self.op, self.seconds, self.cpu_s, self.error = op, seconds, cpu_s, error
        self.problems: list[str] = []

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def run_op(cli_main, op) -> Result:
    sink = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli_main(op.argv)
        error = None if rc == 0 else f"exit code {rc}"
    except Exception as exc:  # noqa: BLE001 - a failing operation is counted
        error = f"{type(exc).__name__}: {exc}"
    return Result(op, time.perf_counter() - t0, time.process_time() - c0, error)


def run_pass(cli_main, workload, recorder=None) -> list[Result]:
    results = []
    for op in workload.ops:
        op.out.unlink(missing_ok=True)  # a stale output must not pass the checks
        if recorder is None:
            results.append(run_op(cli_main, op))
        else:
            with recorder.operation(f"op:{workload.name}"):
                results.append(run_op(cli_main, op))
    for r in results:
        if r.error is None:
            try:
                r.problems = workload.check_op(r.op)
            except (OSError, KeyError, ValueError) as exc:
                r.problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if workload.check_pass is not None:
        good = [r for r in results if not r.failed]
        found = workload.check_pass([r.op for r in good])
        for r in good:
            r.problems += found.get(r.op.label, [])
    return results


def tail(passes) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    With fewer than 10 * TAIL_BEYOND samples that percentile falls below
    p90, among the ordinary operations of a mixed pass, and which operation
    it lands on depends on how many passes fitted.  The slowest operation of
    each pass is taken instead, and the median of those is reported: one
    slow moment of the machine moves it no more than it moves ``wall_s``.
    """
    xs = sorted(r.seconds for results in passes for r in results)
    rank = len(xs) - TAIL_BEYOND
    if rank < 0.9 * len(xs):
        slowest = [max(r.seconds for r in results) for results in passes]
        return (statistics.median(slowest),
                f"median over {len(passes)} passes of the slowest op of a pass")
    return xs[rank - 1], f"p{100.0 * rank / len(xs):.1f} of {len(xs)} ops"


def run_probes(cli_main, workload) -> list[tuple[Op, str, list[str]]]:
    """Run each known-defect probe once: (op, outcome, problems)."""
    found = []
    for op in workload.probes:
        r = run_op(cli_main, op)
        if r.error is None:
            try:
                problems = workload.check_op(op)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            found.append((op, "succeeds: known defect fixed", problems))
        elif r.error.startswith(f"{op.known_error}:"):
            found.append((op, f"known defect still present: {r.error}", []))
        else:
            found.append((op, "unexpected error", [r.error]))
    return found


def measure(cli_main, workload, seconds: float, instr=None):
    """Passes until the next would end past ``seconds``.

    With ``instr`` (a traced run) untraced and traced passes alternate,
    starting untraced, and at least one of each runs.  Returns the untraced
    and the traced passes, each a list of per-pass results.
    """
    passes = {False: [], True: []}
    durations = {False: [], True: []}
    start = time.perf_counter()
    traced = False
    while True:
        t0 = time.perf_counter()
        if traced:
            instr.install()
            try:
                results = run_pass(cli_main, workload, instr.recorder)
            finally:
                instr.remove()
        else:
            results = run_pass(cli_main, workload)
        durations[traced].append(time.perf_counter() - t0)
        passes[traced].append(results)
        if instr is not None:
            traced = not traced
        elapsed = time.perf_counter() - start
        upcoming = durations[traced] or durations[not traced]
        done = instr is None or all(passes.values())
        if done and elapsed + statistics.median(upcoming) > seconds:
            return passes[False], passes[True]


def pass_wall(results) -> float:
    return sum(r.seconds for r in results)


def end_to_end(passes, setup) -> tuple[dict, dict]:
    latencies = [r.seconds for results in passes for r in results]
    tail_value, tail_note = tail(passes)
    ops = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(pass_wall(p) for p in passes), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_value, "ms"),
        "cpu_s": (statistics.median(sum(r.cpu_s for r in p) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} cold imports of cavsinglet.cli",
        "wall_s": f"median of {len(passes)} passes",
        "op_p50_ms": f"median of {ops} ops",
        "op_tail_ms": tail_note,
        "cpu_s": "user+sys of all threads, median per pass",
        "peak_rss_mb": "peak resident set of this process",
    }
    return metrics, notes


def per_layer(untraced, traced, recorder) -> tuple[dict, dict]:
    n = len(traced)
    summary = spans.summarize(recorder.spans)
    metrics = {}
    for name in LAYERS:
        row = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"] / n, "count")
        metrics[f"{name}.total_s"] = (row["total_s"] / n, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / n, "s")

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def per_call(name, ancestor):
        return spans.count_under(recorder.spans, name, ancestor) / calls(ancestor) \
            if calls(ancestor) else 0.0

    steps = sum(s.note["rk4_steps"] for s in recorder.spans
                if s.name == "liouville.propagate" and s.note)
    builds = calls("model.build_master_equation")
    own = spans.self_times(recorder.spans)
    op_self = sum(own[s.id] for s in recorder.spans if s.parent is None)
    wall_traced = statistics.median(pass_wall(p) for p in traced)
    wall_untraced = statistics.median(pass_wall(p) for p in untraced)
    metrics.update({
        "liouville.propagate.rk4_steps": (steps / n, "count"),
        "liouville.time_to_convergence.evolve_per_call": (
            per_call("liouville.evolve_spectral", "liouville.time_to_convergence"),
            "count"),
        "schemes.drive_for_dynamic_error.fidelity_evals_per_call": (
            per_call("schemes.numeric_fidelity",
                     "schemes.drive_for_dynamic_error"), "count"),
        "lapack.decomps_per_model": (
            sum(calls(d) for d in DECOMPOSITIONS) / builds if builds else 0.0, "ratio"),
        "untraced_s": (op_self / n, "s"),
        "trace_overhead": (wall_traced / wall_untraced, "ratio"),
    })
    notes = {"untraced_s": "per pass: op wall time outside the top-level spans",
             "trace_overhead": f"traced wall_s {wall_traced:.4f} s over {n} passes / "
                               f"untraced {wall_untraced:.4f} s over {len(untraced)}"}
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    package = import_program()
    cli_main = package.cli.main
    env = environment(package, args)
    setup = cold_import_seconds() if args.trace == 0 else []

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    instr = spans.Instrumentation(spans.Recorder(), package) if args.trace else None
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        for argv_ in workload.warmup:
            run_op(cli_main, Op("warmup", argv_, work / "warmup"))
        probes = run_probes(cli_main, workload)
        untraced, traced = measure(cli_main, workload, args.seconds, instr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = traced if args.trace else untraced
    everything = [r for results in untraced + traced for r in results]
    if args.trace:
        metrics, notes = per_layer(untraced, traced, instr.recorder)
    else:
        metrics, notes = end_to_end(untraced, setup)

    failed = [r for r in everything if r.failed]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(measured)}  ops per pass {len(workload.ops)}  "
          f"(closed loop, one client)")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'failed_share':58s} {len(failed) / len(everything):14.6g} {'share':6s} "
          f"{len(failed)} of {len(everything)} ops")
    failures: dict[str, int] = {}
    for r in failed:
        what = f"{r.op.label}: {r.error or '; '.join(r.problems)}"
        failures[what] = failures.get(what, 0) + 1
    for what, hits in failures.items():
        print(f"  failed x{hits}  {what}")
    for op, outcome, problems in probes:
        print(f"  probe  {op.label}: {outcome}" + "".join(f"; {p}" for p in problems))

    correct = not any(r.problems for r in everything) and \
        not any(problems for _, _, problems in probes)
    line = {
        "correct": correct,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": env, "result": line, "notes": notes, "failures": failures,
              "probes": [{"label": op.label, "outcome": outcome, "problems": problems}
                         for op, outcome, problems in probes],
              "ops": [{"label": r.op.label, "traced": flag, "seconds": r.seconds,
                       "cpu_s": r.cpu_s, "error": r.error, "problems": r.problems}
                      for flag, group in ((False, untraced), (True, traced))
                      for results in group for r in results]}
    if instr is not None:
        record["spans"] = [s.as_dict() for s in instr.recorder.spans]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
