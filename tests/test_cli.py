import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavsinglet
from cavsinglet import schemes
from cavsinglet.cli import main, microseconds, parse_rate, write_csv


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_rate():
    assert parse_rate("0.25", 0.4, 0.2) == 0.25
    assert parse_rate("0.1gamma", 0.4, 0.2) == pytest.approx(0.04)
    assert parse_rate("0.5kappa", 0.4, 0.2) == pytest.approx(0.1)
    assert parse_rate("2g", 0.4, 0.2, g=1.5) == pytest.approx(3.0)


def test_microseconds():
    # 1000/g at g/2pi = 16 MHz is about 10 us
    assert microseconds(1000.0, 16.0) == pytest.approx(9.947, abs=0.01)


def test_steady_s1(tmp_path, capsys):
    record = tmp_path / "run.json"
    code = main([
        "steady", "--scheme", "S1", "--C", "17.07", "--omega", "0.1gamma",
        "--record", str(record),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fidelity" in out and "gap" in out
    data = json.loads(record.read_text())
    assert data["scheme"] == "S1"
    fid = [o for o in data["outputs"]
           if o["name"] == "fidelity" and o["method"] == "full"][0]["value"]
    assert fid == pytest.approx(0.92, abs=0.01)
    # S1 has the exchange symmetry, so the record holds both sector gaps
    assert {o["method"] for o in data["outputs"]} == {
        "full", "effective", "analytic", "full/even", "full/odd"}
    assert "config_hash" in data["provenance"]
    assert data["params"]["phi"] == pytest.approx(math.pi)


def test_steady_records_sector_gaps_when_the_model_splits(tmp_path):
    def gaps(*flags):
        record = tmp_path / "run.json"
        assert main(["steady", *flags, "--record", str(record)]) == 0
        outputs = json.loads(record.read_text())["outputs"]
        return {o["method"]: o["value"] for o in outputs if o["name"] == "gap"}

    # S0's full gap is an odd-sector mode; the even sector holds the
    # stationary state and is within 1% of the analytic gap
    s0 = gaps("--scheme", "S0", "--C", "1000")
    assert s0["full"] == s0["full/odd"] < s0["full/even"]
    assert s0["full/even"] == pytest.approx(s0["analytic"], rel=0.01)
    for flags in (["--scheme", "T0", "--alpha", "0.05"], ["--scheme", "WS"]):
        assert set(gaps(*flags)) == {"full", "effective", "analytic"}


def test_steady_t0_value(tmp_path):
    record = tmp_path / "t0.json"
    assert main(["steady", "--scheme", "T0", "--record", str(record)]) == 0
    data = json.loads(record.read_text())
    fid = [o for o in data["outputs"]
           if o["name"] == "fidelity" and o["method"] == "full"][0]["value"]
    assert fid == pytest.approx(0.772, abs=0.01)


def test_steady_ws_high_cooperativity(tmp_path):
    # WS gaps at C = 1000 are ~1e-11 against ||L|| ~ 1e3, a few tens of eps
    # ||L|| above the stationary eigenvalue; gamma/20 gives the smallest gap
    # over the CLI domain.
    for omega, gap in (("0.1gamma", 1.71e-11), ("0.05gamma", 4.94e-12)):
        record = tmp_path / f"ws_{omega}.json"
        assert main(["steady", "--scheme", "WS", "--C", "1000", "--omega",
                     omega, "--record", str(record)]) == 0
        outputs = json.loads(record.read_text())["outputs"]
        values = {(o["name"], o["method"]): o["value"] for o in outputs}
        assert values["fidelity", "full"] == pytest.approx(
            values["fidelity", "analytic"], abs=0.015), omega
        assert values["gap", "full"] == pytest.approx(gap, rel=0.1), omega


def steady_values(tmp_path, scheme, *args):
    record = tmp_path / f"{scheme}{'_'.join(args)}.json"
    assert main(["steady", "--scheme", scheme, *args, "--record", str(record)]) == 0
    outputs = json.loads(record.read_text())["outputs"]
    return {(o["name"], o["method"]): o["value"] for o in outputs}


def test_steady_mixture_on_the_common_path(tmp_path):
    # the full gap is the slowest component's (T0), and the effective gap,
    # from the weighted effective generators, tracks the analytic one
    mix = steady_values(tmp_path, "T0S0_mix")
    t0 = steady_values(tmp_path, "T0")
    assert mix["gap", "full"] == t0["gap", "full"]
    assert mix["fidelity", "full"] == pytest.approx(0.797, abs=0.015)
    for c in ("100", "1000"):
        mix = steady_values(tmp_path, "T0S0_mix", "--C", c)
        assert mix["gap", "effective"] == pytest.approx(
            mix["gap", "analytic"], rel=0.05), c


@pytest.mark.parametrize("axis, value, swept, flags", [
    ("cooperativity", "100", "--C", ["--omega", "0.3gamma", "--phi", "1.0"]),
    ("drive", "0.05", "--omega", ["--Delta", "2"]),
])
def test_sweep_point_is_the_steady_model(tmp_path, axis, value, swept, flags):
    # a sweep point takes every parameter flag, with the swept one replaced
    def sweep_full(*extra):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", axis, "--start", value, "--stop", value,
                     "--points", "1", "--schemes", "T0", *extra,
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        return [r for r in rows if r[3] == "full"][0]

    steady = steady_values(tmp_path, "T0", swept, value, *flags)
    row = sweep_full(*flags)
    assert float(row[4]) == pytest.approx(steady["fidelity", "full"], rel=1e-11)
    if axis == "drive":
        assert float(row[6]) == pytest.approx(steady["gap", "full"], rel=1e-11)
    assert float(sweep_full()[4]) != pytest.approx(float(row[4]), rel=1e-6)


def test_sweep_drive_mixture_gap(tmp_path):
    out = tmp_path / "drive.csv"
    assert main(["sweep", "--axis", "drive", "--start", "0.02", "--stop", "0.1",
                 "--points", "2", "--schemes", "T0,T0S0_mix", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    gaps = {(r[1], r[2]): float(r[6]) for r in rows if r[3] == "full"}
    for value in {r[1] for r in rows}:
        assert math.isfinite(gaps[value, "T0S0_mix"])
        assert gaps[value, "T0S0_mix"] == gaps[value, "T0"]


@pytest.mark.parametrize("command", [
    ["trajectory", "--t-final", "1"], ["reduce"]])
def test_single_model_commands_reject_mixture(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main(command + ["--scheme", "T0S0_mix", "--out", str(out)])
    assert code != 0
    err = capsys.readouterr().err
    assert "T0" in err and "S0" in err
    assert not out.exists()


def test_steady_asymmetry_costs_fidelity(tmp_path):
    records = {}
    for alpha in ("0.0", "0.1"):
        path = tmp_path / f"a{alpha}.json"
        assert main(["steady", "--scheme", "S1", "--alpha", alpha,
                     "--record", str(path)]) == 0
        data = json.loads(path.read_text())
        records[alpha] = [o for o in data["outputs"]
                          if o["name"] == "fidelity" and o["method"] == "full"
                          ][0]["value"]
    loss = records["0.0"] - records["0.1"]
    assert 0.015 <= loss <= 0.035


def test_sweep_asymmetry_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("LE_THREADS", "2")
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--axis", "asymmetry", "--start", "0", "--stop", "0.1",
        "--points", "3", "--schemes", "S1", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["axis", "value", "scheme", "method", "fidelity",
                      "error", "gap", "status"]
    assert len(rows) == 6  # two methods per grid point
    assert all(r[-1] == "ok" for r in rows)


def test_sweep_asymmetry_closed_form_is_s1_only(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--axis", "asymmetry", "--start", "0.1", "--stop", "0.1",
                 "--points", "1", "--schemes", "S1,T0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    rows = {(r[2], r[3]): r for r in rows}
    assert float(rows["S1", "analytic"][5]) == pytest.approx(3 * 0.1 ** 2)
    assert math.isnan(float(rows["T0", "analytic"][5]))
    assert 0.7 < float(rows["T0", "full"][4]) < 1.0


def test_sweep_time_closed_form_is_s1_only(tmp_path):
    out = tmp_path / "time.csv"
    assert main(["sweep", "--axis", "time", "--start", "1000", "--stop", "1000",
                 "--points", "1", "--schemes", "S1,S0", "--out", str(out)]) == 1
    _, rows = read_csv(out)
    rows = {r[2]: r for r in rows}
    opt = schemes.optimal_drive_for_time(1000.0, schemes.preset("S1"))
    assert rows["S1"][-1] == "ok"
    assert float(rows["S1"][5]) == pytest.approx(opt["error"], rel=1e-11)
    assert rows["S0"][-1] == "error: the optimal-drive closed form is derived for S1 only"


def test_cli_import_needs_no_scipy():
    src = Path(cavsinglet.__file__).resolve().parent.parent
    subprocess.run(
        [sys.executable, "-c",
         "import cavsinglet.cli, sys; assert 'scipy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True)


def test_sweep_deterministic_bytes(tmp_path, monkeypatch):
    # the pool size must not change the bytes: worker threads share one
    # cached space per (n_max, max_excitations)
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "4")):
        monkeypatch.setenv("LE_THREADS", threads)
        path = tmp_path / name
        assert main([
            "sweep", "--axis", "cooperativity", "--start", "20", "--stop",
            "100", "--points", "2", "--log", "--schemes", "S1,T0",
            "--out", str(path),
        ]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_reports_failures(tmp_path):
    # preparation times below the optimal-drive threshold produce error rows
    out = tmp_path / "time.csv"
    code = main([
        "sweep", "--axis", "time", "--start", "1", "--stop", "2000",
        "--points", "3", "--log", "--schemes", "S1", "--out", str(out),
    ])
    assert code == 1
    _, rows = read_csv(out)
    assert any(r[-1].startswith("error") for r in rows)
    assert any(r[-1] == "ok" for r in rows)


def test_trajectory_zero_time(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "trajectory", "--scheme", "S1", "--t-final", "0", "--methods",
        "full", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header[:2] == ["t", "method"]
    assert len(rows) == 1
    values = [float(x) for x in rows[0][2:6]]
    assert values == pytest.approx([0.25, 0.25, 0.25, 0.25])


def test_trajectory_multi_method(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "trajectory", "--scheme", "S1", "--t-final", "50", "--methods",
        "full,effective,rate", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    methods = {r[1] for r in rows}
    assert methods == {"full", "effective", "rate"}


def test_trajectory_methods_share_one_time_grid(tmp_path):
    out = tmp_path / "traj.csv"
    methods = ["full", "effective", "dressed_effective", "rate"]
    assert main(["trajectory", "--scheme", "S1", "--t-final", "20", "--methods",
                 ",".join(methods), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    times = {m: [r[0] for r in rows if r[1] == m] for m in methods}
    assert len(times["full"]) == 401
    assert all(times[m] == times["full"] for m in methods)


def test_trajectory_rate_model_names_its_schemes(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--scheme", "T0", "--t-final", "1", "--methods",
                 "rate", "--out", str(out)]) == 1
    _, rows = read_csv(out)
    assert rows[0][-1] == "error: the rate model is derived for S1 only"


def test_trajectory_named_start(tmp_path):
    out = tmp_path / "traj.csv"
    methods = ["full", "effective", "dressed_effective", "rate"]
    assert main(["trajectory", "--scheme", "S1", "--t-final", "10", "--methods",
                 ",".join(methods), "--rho0", "S", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    start = {r[1]: float(r[header.index("P_S")]) for r in rows if float(r[0]) == 0.0}
    assert start == pytest.approx(dict.fromkeys(methods, 1.0), abs=1e-12)


def test_trajectory_unknown_start_names_it(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--scheme", "S1", "--t-final", "1", "--methods",
                 "effective,rate", "--rho0", "T0", "--out", str(out)]) == 1
    _, rows = read_csv(out)
    assert len(rows) == 2 and all("'T0'" in r[-1] for r in rows)


def test_trajectory_unknown_method_fails(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "trajectory", "--scheme", "S1", "--t-final", "1", "--methods",
        "full,bogus", "--out", str(out),
    ])
    assert code == 1


def test_write_csv_matches_csv_writer(tmp_path):
    rows = [
        [0.0, "full", 0.25, -1e-300, float("nan"), float("-inf"), np.float64(2.5)],
        [0.0, "bogus", float("nan"), "error: Omega = 2, b = 3 out of range"],
        ["T0", 'say "hi"', "two\nlines", "cr\rhere", ""],
        [1, None, True, np.float32(0.5), "x"],
        [""], [], ["ok", "", 1e300],
    ]
    write_csv(tmp_path / "rows.csv", ["t", "method"], rows)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "method"])
        writer.writerows([f"{x:.11e}" if isinstance(x, float) else x for x in row]
                         for row in rows)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_table1_s1_row(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["table1", "--schemes", "S1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["scheme", "static_error", "max_fidelity", "gap_at_2pct",
                      "convergence_time_at_2pct", "needs_confinement"]
    row = rows[0]
    assert row[0] == "S1"
    assert float(row[2]) == pytest.approx(0.925, abs=0.015)
    # one-significant-figure table entries: factor-two agreement
    assert 3e-3 <= float(row[3]) <= 1.2e-2
    assert 5.0 <= float(row[4]) <= 20.0
    assert row[5] == "yes"


def test_table1_solves_each_model_once(tmp_path, monkeypatch):
    # the drive search returns the weak-drive fidelity it measures from
    solve, solved = schemes.numeric_fidelity, []
    monkeypatch.setattr(schemes, "numeric_fidelity",
                        lambda params: solved.append(params) or solve(params))
    assert main(["table1", "--schemes", "T0", "--out", str(tmp_path / "t.csv")]) == 0
    assert len(solved) == len(set(solved)) == 6


def test_reduce_dump(tmp_path):
    out = tmp_path / "model.json"
    assert main(["reduce", "--scheme", "S1", "--dressed", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["basis"] == ["00", "T", "11", "S"]
    assert data["dressed"] is True
    assert set(data["L_effs"]) == {"kappa", "gamma0_1", "gamma0_2",
                                   "gamma1_1", "gamma1_2"}
    assert "gamma_eff" in data["rates"]
    assert "ground_energies" in data
