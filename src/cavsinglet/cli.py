"""Command-line driver: scheme runs, parameter sweeps, benchmark-table and
trajectory reproduction, effective-model dumps.

Subcommands: steady, sweep, table1, trajectory, reduce.  Rates are given in
units of g unless suffixed with a rate name (``0.1gamma``, ``0.2kappa``).
Sweeps solve their points in order, on one thread; outputs are CSV (12
significant digits) and JSON run records.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import stat
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, effective, liouville, ratemodel, schemes
from .errors import DegenerateSteadyStateError, NumericalInstabilityError
from .schemes import SchemeId, parse_scheme

DEFAULT_G_MHZ = 16.0  # g / 2 pi, reference cavity


def parse_rate(text: str, gamma: float, kappa: float, g: float = 1.0) -> float:
    """Parse ``0.25``, ``0.1gamma``, ``0.5kappa`` or ``0.02g`` into g units."""
    text = text.strip()
    for suffix, scale in (("gamma", gamma), ("kappa", kappa), ("g", g)):
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * scale
    return float(text)


def _cavity_args(args) -> tuple[float, float, float]:
    g = args.g
    if args.C is not None:
        gamma, kappa = schemes.cavity_rates_for_cooperativity(args.C, g=g)
    else:
        gamma = args.gamma if args.gamma is not None else schemes.DEFAULT_GAMMA_OVER_G * g
        kappa = args.kappa if args.kappa is not None else schemes.DEFAULT_KAPPA_OVER_G * g
    return g, gamma, kappa


def build_components(args) -> list[schemes.Component]:
    """The scheme's weighted models at the command-line parameters."""
    g, gamma, kappa = _cavity_args(args)
    omega = parse_rate(args.omega, gamma, kappa, g) if args.omega else None
    omega_mw = parse_rate(args.omega_mw, gamma, kappa, g) if args.omega_mw else None
    overrides = {key: getattr(args, key) for key in
                 ("Delta", "delta", "beta", "phi", "alpha", "b", "n_max")
                 if getattr(args, key, None) is not None}
    return schemes.components(args.scheme, overrides, g=g, gamma=gamma,
                              kappa=kappa, Omega=omega, Omega_MW=omega_mw)


# Where a run writes is not part of what it computes.
_OUTPUT_KEYS = ("out", "record")


def config_hash(config: dict) -> str:
    clean = {k: v for k, v in config.items()
             if not callable(v) and k not in _OUTPUT_KEYS}
    canon = json.dumps(clean, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def run_record(scheme: str, comps: list[schemes.Component], outputs: list[dict],
               config: dict) -> dict:
    return {
        "scheme": str(scheme),
        "components": [{"weight": c.weight, "scheme": str(c.scheme),
                        "params": c.params.to_dict()} for c in comps],
        "outputs": outputs,
        "provenance": {
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config_hash": config_hash(config),
        },
    }


def _is_stdout(st: os.stat_result) -> bool:
    """Whether ``st`` is the file that ``sys.stdout`` writes to."""
    try:
        out = os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):  # a stream with no file descriptor
        return False
    return (out.st_dev, out.st_ino) == (st.st_dev, st.st_ino)


@contextlib.contextmanager
def _rewritten(path: Path):
    """A text file at ``path`` to write over in place: opened without
    truncating, and cut at the end of what was written if it is a regular
    file (a pipe or a device such as /dev/null has no tail, and refuses
    the cut).  On ext4 a truncation to zero followed by close forces a
    flush (``auto_da_alloc``), and so does a rename over the old file.

    stdout's own file (``--out /dev/stdout``) is written through
    ``sys.stdout``: a second descriptor would start at offset 0 of a
    regular file, over the lines ``print`` has written or still buffers."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    if _is_stdout(os.fstat(fd)):
        os.close(fd)
        yield sys.stdout
        return
    with open(fd, "w", newline="") as fh:
        yield fh
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def write_record(record: dict, path: Path) -> None:
    with _rewritten(path) as fh:
        fh.write(json.dumps(record, indent=1) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Floats as %.11e, other cells as ``csv.writer`` writes them.  A run of
    rows of floats and strings, one type signature, is one %-format of its
    row format repeated; csv writes any other run, and any it would quote."""
    with _rewritten(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for kinds, run in itertools.groupby(rows, lambda row: tuple(map(type, row))):
            run = list(run)
            n, text = len(run), ""
            if all(issubclass(k, (float, str)) for k in kinds):
                text = (",".join("%.11e" if issubclass(k, float) else "%s" for k in kinds)
                        + "\r\n") * n % tuple(itertools.chain.from_iterable(run))
            # no quote, comma or line break in a cell, and no empty line
            if text.count(",") == n * (len(kinds) - 1) and '"' not in text \
                    and text.count("\r") == n == text.count("\n") \
                    and "\n\r\n" not in "\n" + text:
                fh.write(text)
            else:
                writer.writerows([f"{x:.11e}" if isinstance(x, float) else x
                                  for x in row] for row in run)


def microseconds(t_over_g: float, g_mhz: float) -> float:
    """Convert a time in 1/g units to microseconds using g/2pi in MHz."""
    return t_over_g / (2.0 * math.pi * g_mhz)


# -- steady ------------------------------------------------------------------


def cmd_steady(args) -> int:
    scheme = parse_scheme(args.scheme)
    comps = build_components(args)
    model = schemes.full_model(comps)
    fid, spectrum = schemes.mixture_fidelity(model), model.spectrum()
    gap_eff = schemes.effective_gap(comps)
    params = comps[0].params  # the cavity and drive, shared by the components
    C = params.cooperativity()
    fid_analytic = 1.0 - schemes.static_error(scheme, C)
    gap_analytic = schemes.gap_analytic(scheme, params)
    outputs = [
        {"name": "fidelity", "value": fid, "method": "full"},
        {"name": "fidelity", "value": fid_analytic, "method": "analytic"},
        {"name": "gap", "value": spectrum.gap, "method": "full"},
        {"name": "gap", "value": gap_eff, "method": "effective"},
        {"name": "gap", "value": gap_analytic, "method": "analytic"},
    ] + [{"name": "gap", "value": value, "method": f"full/{sector}"}
         for sector, value in zip(("even", "odd"), spectrum.sectors)]
    print(f"scheme {scheme}  C = {C:.4g}  Omega = {params.Omega:.4g} g")
    print(f"  fidelity  full {fid:.5f}   analytic {fid_analytic:.5f}   "
          f"deviation {fid - fid_analytic:+.4f}")
    print(f"  gap       full {spectrum.gap:.4e} g   effective {gap_eff:.4e} g   "
          f"analytic {gap_analytic:.4e} g   "
          f"effective deviation {(gap_eff - gap_analytic) / gap_analytic:+.2%}")
    if spectrum.sectors:
        print("  sectors   full even {:.4e} g   odd {:.4e} g".format(*spectrum.sectors))
    record = run_record(scheme, comps, outputs, vars(args) | {"cmd": "steady"})
    out = Path(args.record) if args.record else Path(f"steady_{scheme}.json")
    write_record(record, out)
    print(f"record written to {out}")
    return 0


# -- sweep -------------------------------------------------------------------


def _sweep_point(axis: str, value: float, scheme: SchemeId, args) -> list[list]:
    """Rows of one grid point: the command-line parameters with the swept one
    replaced, built as ``steady`` builds them."""
    point = argparse.Namespace(**vars(args) | {"scheme": scheme})
    try:
        if axis == "time":
            opt = schemes.optimal_drive(scheme, value, build_components(point)[0].params)
            return [[axis, value, str(scheme), "analytic", 1.0 - opt["error"],
                     opt["error"], opt["Omega_opt"], "ok"]]
        if axis == "cooperativity":
            point.C = value
        elif axis == "drive":
            point.omega = repr(value)
        else:
            point.alpha = value
        comps = build_components(point)
        model = schemes.full_model(comps)
        fid, gap = schemes.mixture_fidelity(model), float("nan")
        if axis == "drive":
            gap = model.gap()
            analytic = [float("nan"), float("nan"),
                        schemes.gap_analytic(scheme, comps[0].params)]
        elif axis == "cooperativity":
            err = schemes.static_error(scheme, value)
            analytic = [1.0 - err, err, float("nan")]
        else:
            analytic = [float("nan"), schemes.analytic_asymmetry_error(scheme, value),
                        float("nan")]
        return [[axis, value, str(scheme), "full", fid, 1.0 - fid, gap, "ok"],
                [axis, value, str(scheme), "analytic", *analytic, "ok"]]
    except Exception as exc:  # noqa: BLE001 - per-point failures become rows
        return [[axis, value, str(scheme), "none", float("nan"),
                 float("nan"), float("nan"), f"error: {exc}"]]


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    if args.log and not args.start * args.stop > 0.0:
        raise ValueError(f"a --log grid needs a nonzero --start and --stop of one "
                         f"sign, got {args.start} and {args.stop}")
    axis = args.axis
    values = np.geomspace(args.start, args.stop, args.points) if args.log \
        else np.linspace(args.start, args.stop, args.points)
    scheme_ids = [parse_scheme(s) for s in args.schemes.split(",")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = [row for v in values for s in scheme_ids
                for row in _sweep_point(axis, float(v), s, args)]
    header = ["axis", "value", "scheme", "method", "fidelity", "error", "gap", "status"]
    failed = any(str(row[-1]).startswith("error") for row in rows)
    out = Path(args.out)
    write_csv(out, header, rows)
    print(f"{len(rows)} rows written to {out}")
    return 1 if failed else 0


# -- table1 ------------------------------------------------------------------


def cmd_table1(args) -> int:
    for name, value in (("--g", args.g), ("--g-mhz", args.g_mhz)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    scheme_ids = [parse_scheme(s) for s in args.schemes.split(",")]
    g, gamma, kappa = args.g, schemes.DEFAULT_GAMMA_OVER_G * args.g, \
        schemes.DEFAULT_KAPPA_OVER_G * args.g
    C = g * g / (gamma * kappa)
    header = ["scheme", "static_error", "max_fidelity", "gap_at_2pct",
              "convergence_time_at_2pct", "needs_confinement"]
    rows = []
    failed = False
    for scheme in scheme_ids:
        try:
            static = schemes.static_error(scheme, C)
            _, fid, model = schemes.drive_for_dynamic_error(scheme, g=g, gamma=gamma,
                                                            kappa=kappa)
            t_conv = liouville.time_to_convergence(
                model, liouville.mixed_ground_state(model.space), model.steady_state())
            # after time_to_convergence, so the gap reuses its eig values
            gap = model.gap()
            t_us = microseconds(t_conv, args.g_mhz)
            confined = "yes" if schemes.needs_confinement(scheme) else "no"
            rows.append([str(scheme), static, fid, gap, t_us, confined])
            print(f"{scheme!s:9s} static {static:.4f}  fidelity {fid:.4f}  "
                  f"gap@2% {gap:.2e} g  t@2% {t_us:.1f} us "
                  f"(1/gap = {microseconds(1.0 / gap, args.g_mhz):.1f} us)  "
                  f"confinement {confined}")
        except Exception as exc:  # noqa: BLE001 - report per scheme
            failed = True
            rows.append([str(scheme), float("nan"), float("nan"), float("nan"),
                         float("nan"), f"error: {exc}"])
            print(f"{scheme}: failed: {exc}")
    write_csv(Path(args.out), header, rows)
    print(f"table written to {args.out}")
    return 1 if failed else 0


# -- trajectory ----------------------------------------------------------------


def _initial_state(spec: str, space) -> np.ndarray:
    """The mixed ground state or one of the named ground states of ``space``."""
    if spec == "mixed":
        return liouville.mixed_ground_state(space)
    vectors = liouville.ground_state_vectors(space)
    if spec not in vectors:
        raise ValueError(f"no initial state {spec!r}: choose mixed, "
                         f"{', '.join(vectors)}")
    return np.outer(vectors[spec], vectors[spec].conj())


# Per ``trajectory`` method but ``rate``: one phase-fixed model's generator
GENERATORS = {
    "full": liouville.full_generator,
    "effective": lambda p: liouville.vectorize(
        effective.reduce(p).as_master_equation()),
    "dressed_effective": lambda p: liouville.vectorize(
        effective.reduce_dressed(p).as_master_equation()),
}


def cmd_trajectory(args) -> int:
    comps = build_components(args)
    methods = [m.strip() for m in args.methods.split(",")]
    header = ["t", "method", "P_00", "P_T", "P_11", "P_S", "P_excited_total",
              "fidelity"]
    rows = []
    failed = False
    dt = 0.05 / args.g if args.dt is None else args.dt
    times, _ = liouville.sample_grid(args.t_final, dt)
    for method in methods:
        try:
            if method == "rate":
                params = comps[0].params
                rm = schemes.rate_model(args.scheme, params)
                db = ratemodel.build_dressed_basis(params.Omega_MW, params.beta)
                # populations in the (00, T, 11, S) order of the ground basis
                bare0 = np.diag(_initial_state(args.rho0, effective.GROUND)).real
                # dressed populations map to bare ones through the squared
                # basis-change amplitudes (diagonal-density approximation)
                weights = db.transform() ** 2
                bare = ratemodel.evolve(rm, weights @ bare0, times) @ weights
                rows.extend([t, method, *b, 0.0, b[3]]
                            for t, b in zip(times.tolist(), bare.tolist()))
                continue
            if method not in GENERATORS:
                raise ValueError(f"unknown method {method!r}")
            model = liouville.Mixture([(c.weight, GENERATORS[method](c.params))
                                       for c in comps])
            rho0 = _initial_state(args.rho0, model.space)
            traj = liouville.propagate(model, rho0, args.t_final, dt)
            _, data = liouville.trajectory_csv_rows(traj)
            rows.extend([t, method, *pops] for t, *pops in data)
        except Exception as exc:  # noqa: BLE001 - per-method failures isolated
            failed = True
            rows.append([0.0, method, float("nan"), float("nan"), float("nan"),
                         float("nan"), float("nan"), f"error: {exc}"])
            print(f"method {method}: failed: {exc}")
    write_csv(Path(args.out), header, rows)
    print(f"{len(rows)} rows written to {args.out}")
    return 1 if failed else 0


# -- reduce --------------------------------------------------------------------


def cmd_reduce(args) -> int:
    comps = build_components(args)
    if len(comps) > 1:
        raise ValueError(f"reduce needs one model, but {args.scheme} is a "
                         f"mixture of {' and '.join(str(c.scheme) for c in comps)}")
    params = comps[0].params
    model = (effective.reduce_dressed if args.dressed else effective.reduce)(params)
    rates = {
        k: ([v.real, v.imag] if isinstance(v, complex) else float(v))
        for k, v in effective.effective_rates(params).items()
    }
    with _rewritten(Path(args.out)) as fh:
        fh.write(model.to_json(rates=rates) + "\n")
    print(f"effective model written to {args.out}")
    return 0


# -- parser --------------------------------------------------------------------


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", default="S1")
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--C", type=float, default=None,
                   help="set cooperativity, keeping gamma/kappa = 12/5")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--omega", default=None,
                   help="optical drive, e.g. 0.0375 or 0.1gamma")
    p.add_argument("--omega-mw", dest="omega_mw", default=None)
    p.add_argument("--Delta", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``main`` runs the ``cmd_*`` of
    the module named by the subcommand."""
    parser = argparse.ArgumentParser(
        prog="cavsinglet",
        description="Dissipative preparation of a two-atom entangled steady "
                    "state in a lossy cavity: steady states, spectra, sweeps "
                    "and benchmark tables.",
    )
    parser.add_argument("--g-mhz", dest="g_mhz", type=float, default=DEFAULT_G_MHZ,
                        help="g / 2 pi in MHz for time conversion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="steady-state fidelity and gap")
    _add_param_flags(p)
    p.add_argument("--record", default=None, help="run-record JSON path")

    p = sub.add_parser("sweep", help="parameter sweeps to CSV")
    _add_param_flags(p)
    p.add_argument("--axis", required=True,
                   choices=["cooperativity", "drive", "time", "asymmetry"])
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    p.add_argument("--schemes", default="S1")
    p.add_argument("--out", default="sweep.csv")

    p = sub.add_parser("table1", help="benchmark table across schemes")
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--schemes", default="S1,S0,T1,T0,T0S0_mix,WS")
    p.add_argument("--out", default="table1.csv")

    p = sub.add_parser("trajectory", help="multi-method population trajectories")
    _add_param_flags(p)
    p.add_argument("--t-final", dest="t_final", type=float, required=True)
    p.add_argument("--dt", type=float, default=None,
                   help="sample grid step (default 0.05/g), thinned to about "
                        "1000 samples; the evolution itself is exact")
    p.add_argument("--methods", default="full")
    p.add_argument("--rho0", default="mixed",
                   help="mixed or a named ground state (00, T, 11, S)")
    p.add_argument("--out", default="trajectory.csv")

    p = sub.add_parser("reduce", help="dump the effective ground-state model")
    _add_param_flags(p)
    p.add_argument("--dressed", action="store_true")
    p.add_argument("--out", default="effective_model.json")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:  # bad arguments, e.g. a mixture given to reduce
        print(f"cavsinglet {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateSteadyStateError, NumericalInstabilityError) as exc:
        print(f"cavsinglet {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
