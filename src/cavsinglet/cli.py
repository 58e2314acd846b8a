"""Command-line driver: scheme runs, parameter sweeps, benchmark-table and
trajectory reproduction, effective-model dumps.

Subcommands: steady, sweep, table1, trajectory, reduce.  Rates are given in
units of g unless suffixed with a rate name (``0.1gamma``, ``0.2kappa``).
Sweeps run on a thread pool capped by the LE_THREADS environment variable;
outputs are CSV (12 significant digits) and JSON run records.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, effective, liouville, ratemodel, schemes
from .model import SystemParams, build_master_equation, make_space
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


def build_params(args) -> SystemParams:
    """Parameters of a phase-fixed scheme; a mixture raises ``ValueError``."""
    comps = build_components(args)
    if len(comps) > 1:
        raise ValueError(f"{args.command} needs one model, but {args.scheme} is "
                         f"a mixture of {' and '.join(str(c.scheme) for c in comps)}")
    return comps[0].params


def config_hash(config: dict) -> str:
    clean = {k: v for k, v in config.items() if not callable(v)}
    canon = json.dumps(clean, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def run_record(scheme: str, comps: list[schemes.Component], outputs: list[dict],
               config: dict) -> dict:
    """``params`` are the slowest component's, whose full gap is reported."""
    return {
        "scheme": str(scheme),
        "components": [[c.weight, str(c.scheme)] for c in comps],
        "params": schemes.slowest(comps).params.to_dict(),
        "outputs": outputs,
        "provenance": {
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config_hash": config_hash(config),
        },
    }


def write_record(record: dict, path: Path) -> None:
    path.write_text(json.dumps(record, indent=1) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Floats as %.11e, other cells as ``csv.writer`` writes them.  A row of
    floats and strings is one %-format, cached per cell-type signature; csv
    writes any other row, and any whose text it would quote."""
    formats: dict = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            kinds = tuple(map(type, row))
            if kinds not in formats:  # "": another cell type, so csv writes it
                formats[kinds] = ",".join(
                    "%.11e" if issubclass(k, float) else "%s" for k in kinds
                ) if all(issubclass(k, (float, str)) for k in kinds) else ""
            line = formats[kinds] and formats[kinds] % tuple(row)
            if line and line.count(",") == len(row) - 1 and '"' not in line \
                    and "\n" not in line and "\r" not in line:
                fh.write(line + "\r\n")
            else:
                writer.writerow([f"{x:.11e}" if isinstance(x, float) else x for x in row])


def _workers() -> int:
    env = os.environ.get("LE_THREADS")
    return max(1, int(env)) if env else min(4, os.cpu_count() or 1)


def microseconds(t_over_g: float, g_mhz: float) -> float:
    """Convert a time in 1/g units to microseconds using g/2pi in MHz."""
    return t_over_g / (2.0 * math.pi * g_mhz)


# -- steady ------------------------------------------------------------------


def cmd_steady(args) -> int:
    scheme = parse_scheme(args.scheme)
    comps = build_components(args)
    fid, spectrum = schemes.fidelity_and_spectrum(comps)
    gap_eff = schemes.effective_gap(comps)
    params = schemes.slowest(comps).params
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
            opt = schemes.optimal_drive(scheme, value, build_params(point))
            return [[axis, value, str(scheme), "analytic", 1.0 - opt["error"],
                     opt["error"], opt["Omega_opt"], "ok"]]
        if axis == "cooperativity":
            point.C = value
        elif axis == "drive":
            point.omega = repr(value)
        else:
            point.alpha = value
        comps = build_components(point)
        if axis == "drive":
            fid, spectrum = schemes.fidelity_and_spectrum(comps)
            gap = spectrum.gap
            analytic = [float("nan"), float("nan"),
                        schemes.gap_analytic(scheme, schemes.slowest(comps).params)]
        elif axis == "cooperativity":
            fid, gap = schemes.mixture_fidelity(comps), float("nan")
            err = schemes.static_error(scheme, value)
            analytic = [1.0 - err, err, float("nan")]
        else:
            fid, gap = schemes.mixture_fidelity(comps), float("nan")
            analytic = [float("nan"), schemes.analytic_asymmetry_error(scheme, value),
                        float("nan")]
        return [[axis, value, str(scheme), "full", fid, 1.0 - fid, gap, "ok"],
                [axis, value, str(scheme), "analytic", *analytic, "ok"]]
    except Exception as exc:  # noqa: BLE001 - per-point failures become rows
        return [[axis, value, str(scheme), "none", float("nan"),
                 float("nan"), float("nan"), f"error: {exc}"]]


def cmd_sweep(args) -> int:
    axis = args.axis
    values = np.geomspace(args.start, args.stop, args.points) if args.log \
        else np.linspace(args.start, args.stop, args.points)
    scheme_ids = [parse_scheme(s) for s in args.schemes.split(",")]
    tasks = [(i, v, s) for i, v in enumerate(values) for s in scheme_ids]
    results: dict[tuple[int, str], list[list]] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with ThreadPoolExecutor(max_workers=_workers()) as pool:
            futures = {
                pool.submit(_sweep_point, axis, float(v), s, args): (i, str(s))
                for i, v, s in tasks
            }
            for fut, key in futures.items():
                results[key] = fut.result()
    header = ["axis", "value", "scheme", "method", "fidelity", "error", "gap", "status"]
    rows = [row for i, _, s in tasks for row in results[(i, str(s))]]
    failed = any(str(row[-1]).startswith("error") for row in rows)
    out = Path(args.out)
    write_csv(out, header, rows)
    print(f"{len(rows)} rows written to {out}")
    return 1 if failed else 0


# -- table1 ------------------------------------------------------------------


def cmd_table1(args) -> int:
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
            omega2, fid = schemes.drive_for_dynamic_error(scheme, g=g, gamma=gamma,
                                                          kappa=kappa)
            # a static mixture converges at its slowest component's rate
            me = build_master_equation(schemes.slowest(schemes.components(
                scheme, g=g, gamma=gamma, kappa=kappa, Omega=omega2)).params)
            lv = liouville.vectorize(me)
            t_conv = liouville.time_to_convergence(
                lv, liouville.mixed_ground_state(me.space), liouville.steady_state(lv))
            # after time_to_convergence, so the gap reuses its eigensystem
            gap = liouville.spectral_gap(lv).gap
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


def _initial_state(spec: str, space) -> liouville.DensityMatrix:
    """The mixed ground state or one of the named ground states of ``space``."""
    if spec == "mixed":
        return liouville.mixed_ground_state(space)
    vectors = liouville.ground_state_vectors(space)
    if spec not in vectors:
        raise ValueError(f"no initial state {spec!r}: choose mixed, "
                         f"{', '.join(vectors)}")
    return liouville.DensityMatrix(space, np.outer(vectors[spec], vectors[spec].conj()))


def cmd_trajectory(args) -> int:
    params = build_params(args)
    methods = [m.strip() for m in args.methods.split(",")]
    header = ["t", "method", "P_00", "P_T", "P_11", "P_S", "P_excited_total",
              "fidelity"]
    rows = []
    failed = False
    dt = args.dt if args.dt else 0.05 / params.g
    for method in methods:
        try:
            if method == "full":
                me = build_master_equation(params)
            elif method == "effective":
                me = effective.reduce(effective.partition(params)).as_master_equation()
            elif method == "dressed_effective":
                me = effective.reduce_dressed(
                    effective.partition(params)).as_master_equation()
            elif method == "rate":
                rm = schemes.rate_model(args.scheme, params)
                db = ratemodel.build_dressed_basis(params.Omega_MW, params.beta)
                times, _ = liouville.sample_grid(args.t_final, dt)
                # populations in the (00, T, 11, S) order of the ground basis
                bare0 = np.diag(_initial_state(
                    args.rho0, effective.GroundBasis(make_space(params))).mat).real
                # dressed populations map to bare ones through the squared
                # basis-change amplitudes (diagonal-density approximation)
                weights = db.transform() ** 2
                for t, pops in zip(times, ratemodel.evolve(rm, weights @ bare0, times)):
                    bare = [float(x) for x in weights.T @ pops]
                    rows.append([float(t), method, *bare, 0.0, bare[3]])
                continue
            else:
                raise ValueError(f"unknown method {method!r}")
            rho0 = _initial_state(args.rho0, me.space)
            traj = liouville.propagate(me, rho0, args.t_final, dt)
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
    params = build_params(args)
    pm = effective.partition(params)
    model = effective.reduce_dressed(pm) if args.dressed else effective.reduce(pm)
    rates = {
        k: ([v.real, v.imag] if isinstance(v, complex) else float(v))
        for k, v in effective.effective_rates(params).items()
    }
    Path(args.out).write_text(model.to_json(rates=rates) + "\n")
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


def make_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_steady)

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
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="benchmark table across schemes")
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--schemes", default="S1,S0,T1,T0,T0S0_mix,WS")
    p.add_argument("--out", default="table1.csv")
    p.set_defaults(func=cmd_table1)

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
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("reduce", help="dump the effective ground-state model")
    _add_param_flags(p)
    p.add_argument("--dressed", action="store_true")
    p.add_argument("--out", default="effective_model.json")
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad arguments, e.g. a mixture given to reduce
        print(f"cavsinglet {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
