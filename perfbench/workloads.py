"""Benchmark workloads: the CLI invocations of one pass and their checks.

Each workload is a list of operations; an operation is one CLI invocation
(``argv`` for ``cavsinglet.cli.main``).  The checks use physics tolerances
from the acceptance criteria, never the bytes of an earlier run, so a later
fix to a known wrong value does not read as a failure.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SCHEMES = ("S1", "S0", "T1", "T0", "T0S0_mix", "WS")
METHODS = ("full", "effective", "dressed_effective", "rate")

# Criterion 1: weak-driving fidelities at the reference cavity, +-1.5 pp.
TABLE1_FIDELITY = {"S1": 0.925, "S0": 0.842, "T1": 0.811, "T0": 0.772,
                   "T0S0_mix": 0.797, "WS": 0.773}
TABLE1_TOL = 0.015

# Criterion 7: P_S of the effective and rate models within 0.02 of the full
# model; the dressed effective model is held to the criterion's 0.03.
TRAJECTORY_TOL = {"effective": 0.02, "rate": 0.02, "dressed_effective": 0.03}

# Criterion 2: error = prefactor / C within 15% for C >= 100.  The mixture's
# prefactor is the mean of the T0 and S0 ones.  WS has no prefactor check in
# the criterion; its log-log slope must be -1/2 within 0.1.
SWEEP_PREFACTOR = {"S1": 1.5, "S0": 3.5, "T1": 4.5, "T0": 5.5, "T0S0_mix": 4.5}
SWEEP_TOL = 0.15
WS_SLOPE, WS_SLOPE_TOL = -0.5, 0.1
SWEEP_C_MIN = 100.0

PROB_SLACK = 1e-6  # populations and fidelities may overshoot [0, 1] by rounding


@dataclass
class Op:
    label: str
    argv: list[str]
    out: Path
    known_error: str | None = None  # exception class of a known program defect


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[list[str]]
    check_op: object          # (op) -> list of problems
    check_pass: object = None  # (ops that succeeded) -> {label: [problems]}
    # Run once before timing, outside the measured operations: requests that
    # hit a known program defect.  A probe either still raises its
    # ``known_error`` or must pass ``check_op``.
    probes: list[Op] = field(default_factory=list)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _is_probability(x: float) -> bool:
    return -PROB_SLACK <= x <= 1.0 + PROB_SLACK


# -- table1 -------------------------------------------------------------------


def _check_table1(op: Op) -> list[str]:
    rows = _rows(op.out)
    scheme = op.label
    if len(rows) != 1 or rows[0]["scheme"] != scheme:
        return [f"expected one row for {scheme}"]
    row = rows[0]
    problems = []
    fid = _number(row["max_fidelity"])
    if abs(fid - TABLE1_FIDELITY[scheme]) > TABLE1_TOL:
        problems.append(f"fidelity {fid:.4f} vs {TABLE1_FIDELITY[scheme]}")
    if not 0.0 < _number(row["static_error"]) < 1.0:
        problems.append("static error outside (0, 1)")
    if _number(row["gap_at_2pct"]) <= 0.0:
        problems.append("gap not positive")
    if _number(row["convergence_time_at_2pct"]) <= 0.0:
        problems.append("convergence time not positive")
    return problems


def table1(work: Path, seed: int) -> Workload:
    ops = [Op(s, ["table1", "--schemes", s, "--out", str(work / f"table1_{s}.csv")],
              work / f"table1_{s}.csv") for s in SCHEMES]
    return Workload(
        "table1", ops, warmup=[ops[0].argv], check_op=_check_table1)


# -- trajectory -----------------------------------------------------------------


def _trajectory_ps(op: Op) -> tuple[list[float], list[float]]:
    times, ps = [], []
    for row in _rows(op.out):
        if row["method"] != op.label:
            raise ValueError(f"row for method {row['method']!r}")
        pops = [_number(row[k]) for k in ("P_00", "P_T", "P_11", "P_S", "fidelity")]
        if not all(_is_probability(p) for p in pops):
            raise ValueError(f"population outside [0, 1] at t = {row['t']}")
        times.append(_number(row["t"]))
        ps.append(pops[3])
    return times, ps


def _check_trajectory_op(op: Op) -> list[str]:
    times, _ = _trajectory_ps(op)
    if len(times) < 2 or times[0] != 0.0 or abs(times[-1] - 4000.0) > 1e-6:
        return [f"time grid {times[:1]}..{times[-1:]} does not span [0, 4000]"]
    return []


def _interp(t: float, times: list[float], values: list[float]) -> float:
    hi = min(max(bisect.bisect_right(times, t), 1), len(times) - 1)
    t0, t1 = times[hi - 1], times[hi]
    return values[hi - 1] + (t - t0) / (t1 - t0) * (values[hi] - values[hi - 1])


def _check_trajectory_pass(done: list[Op]) -> dict[str, list[str]]:
    by_method = {op.label: op for op in done}
    if "full" not in by_method:
        return {}
    t_full, p_full = _trajectory_ps(by_method["full"])
    problems = {}
    for method, tol in TRAJECTORY_TOL.items():
        if method not in by_method:
            continue
        times, ps = _trajectory_ps(by_method[method])
        dev = max(abs(_interp(t, times, ps) - p) for t, p in zip(t_full, p_full))
        if dev > tol:
            problems[method] = [f"P_S deviates from full by {dev:.4f} > {tol}"]
    return problems


def trajectory(work: Path, seed: int) -> Workload:
    base = ["trajectory", "--scheme", "S1", "--omega", "0.1gamma"]
    ops = [Op(m, base + ["--t-final", "4000", "--methods", m,
                         "--out", str(work / f"trajectory_{m}.csv")],
              work / f"trajectory_{m}.csv") for m in METHODS]
    warm = base + ["--t-final", "20", "--methods", ",".join(METHODS),
                   "--out", str(work / "trajectory_warmup.csv")]
    return Workload(
        "trajectory", ops, warmup=[warm], check_op=_check_trajectory_op,
        check_pass=_check_trajectory_pass)


# -- sweep ----------------------------------------------------------------------


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def _check_sweep(op: Op) -> list[str]:
    rows = [r for r in _rows(op.out) if r["method"] == "full"]
    if len(rows) != 9:
        return [f"{len(rows)} full-model rows, expected 9"]
    problems, cs, errs = [], [], []
    for row in rows:
        if row["status"] != "ok" or row["scheme"] != op.label:
            problems.append(f"row status {row['status']!r} for {row['scheme']}")
            continue
        c, fid, err = (_number(row[k]) for k in ("value", "fidelity", "error"))
        if not _is_probability(fid) or err <= 0.0:
            problems.append(f"C = {c:.4g}: fidelity {fid} error {err}")
            continue
        cs.append(c)
        errs.append(err)
        if op.label in SWEEP_PREFACTOR and c >= SWEEP_C_MIN:
            want = SWEEP_PREFACTOR[op.label] / c
            if abs(err / want - 1.0) > SWEEP_TOL:
                problems.append(f"C = {c:.4g}: error {err:.4g} vs {want:.4g}")
    if op.label == "WS" and not problems:
        slope = _slope(cs, errs)
        if abs(slope - WS_SLOPE) > WS_SLOPE_TOL:
            problems.append(f"error slope {slope:.3f} vs {WS_SLOPE}")
    return problems


def sweep(work: Path, seed: int) -> Workload:
    base = ["sweep", "--axis", "cooperativity", "--start", "10", "--stop", "1000",
            "--points", "9", "--log"]
    ops = [Op(s, base + ["--schemes", s, "--out", str(work / f"sweep_{s}.csv")],
              work / f"sweep_{s}.csv") for s in SCHEMES]
    return Workload(
        "sweep", ops, warmup=[ops[0].argv], check_op=_check_sweep)


# -- steady_grid ----------------------------------------------------------------


def _check_steady(op: Op) -> list[str]:
    outputs = json.loads(op.out.read_text())["outputs"]
    values = {(o["name"], o["method"]): o["value"] for o in outputs}
    problems = [f"{k} is not finite" for k, v in values.items()
                if not math.isfinite(v)]
    if problems:
        return problems
    if not _is_probability(values["fidelity", "full"]):
        problems.append(f"fidelity {values['fidelity', 'full']} outside [0, 1]")
    if values["gap", "full"] <= 0.0:
        problems.append(f"gap {values['gap', 'full']} not positive")
    return problems


# ``steady`` omits WS_DEGENERACY_TOL (ROADMAP item 3), so WS requests at high
# C and weak drive raise DegenerateSteadyStateError: at C = 300 from
# Omega = 0.05 gamma, at C = 1000 up to Omega = 0.2 gamma.  The timed grid
# draws WS at Omega >= 0.3 gamma, where it succeeds, and the WS corner at
# C = 1000 runs as a probe, so the defect is reported on every run without
# counting as a failed operation.
WS_OMEGA_MIN = 0.3
KNOWN_DEFECT = ("WS", 1000.0, 0.1, "DegenerateSteadyStateError")


def steady_points(seed: int) -> list[tuple[str, float, float]]:
    """(scheme, C, Omega/gamma): the domain corners but the known-defect one,
    then two seeded draws per scheme."""
    points = [(s, c, 0.1) for s in SCHEMES for c in (10.0, 1000.0)
              if (s, c, 0.1) != KNOWN_DEFECT[:3]]
    rng = random.Random(seed)
    for s in SCHEMES:
        low = WS_OMEGA_MIN if s == "WS" else 0.05
        for _ in range(2):
            points.append((s, 10.0 ** rng.uniform(1.0, 3.0), rng.uniform(low, 0.5)))
    return points


def _steady_op(work: Path, name: str, s: str, c: float, frac: float,
               known_error: str | None = None) -> Op:
    out = work / f"{name}.json"
    return Op(f"{s}@C={c:.4g},Omega={frac:.3f}gamma",
              ["steady", "--scheme", s, "--C", repr(c),
               "--omega", f"{frac!r}gamma", "--record", str(out)], out, known_error)


def steady_grid(work: Path, seed: int) -> Workload:
    ops = [_steady_op(work, f"steady_{i:02d}", s, c, frac)
           for i, (s, c, frac) in enumerate(steady_points(seed))]
    probe = _steady_op(work, "steady_probe", *KNOWN_DEFECT)
    return Workload(
        "steady_grid", ops, warmup=[ops[0].argv], check_op=_check_steady,
        probes=[probe])


WORKLOADS = {w.__name__: w for w in (table1, trajectory, sweep, steady_grid)}
