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
from cavsinglet import cli, liouville, schemes
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
    [comp] = data["components"]
    assert (comp["weight"], comp["scheme"]) == (1.0, "S1")
    assert comp["params"]["phi"] == pytest.approx(math.pi)


def test_steady_records_sector_gaps_when_the_model_splits(tmp_path):
    def gaps(*flags):
        record = tmp_path / "run.json"
        assert main(["steady", *flags, "--record", str(record)]) == 0
        outputs = json.loads(record.read_text())["outputs"]
        return {o["method"]: o["value"] for o in outputs if o["name"] == "gap"}

    # the full gap is the even sector's, which holds the stationary state
    # and every symmetric start, within 1% of the analytic gap; S0's odd
    # sector decays more slowly
    s0 = gaps("--scheme", "S0", "--C", "1000")
    assert s0["full"] == s0["full/even"] > s0["full/odd"]
    assert s0["full/even"] == pytest.approx(s0["analytic"], rel=0.01)
    for flags in (["--scheme", "T0", "--alpha", "0.05"], ["--scheme", "WS"]):
        assert set(gaps(*flags)) == {"full", "effective", "analytic"}


def test_steady_s0_effective_gap_is_even_sector(tmp_path, capsys):
    # the effective model's ground basis splits as the full model does, so
    # the effective gap is the even sector's too, like the analytic gap;
    # its slowest mode of either parity was odd, -28% off at C = 1000
    record = tmp_path / "run.json"
    assert main(["steady", "--scheme", "S0", "--C", "1000",
                 "--record", str(record)]) == 0
    outputs = json.loads(record.read_text())["outputs"]
    gaps = {o["method"]: o["value"] for o in outputs if o["name"] == "gap"}
    assert gaps["effective"] == pytest.approx(gaps["analytic"], rel=0.01)
    printed = capsys.readouterr().out.split("effective deviation ")[1].split("%")[0]
    assert abs(float(printed)) <= 1.0


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
    # the full gap is the smallest of the components' (T0's), and the
    # effective gap, from the weighted effective generators, tracks the
    # analytic one
    mix = steady_values(tmp_path, "T0S0_mix")
    t0, s0 = steady_values(tmp_path, "T0"), steady_values(tmp_path, "S0")
    assert mix["gap", "full"] == t0["gap", "full"] < s0["gap", "full"]
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


def test_reduce_rejects_mixture(tmp_path, capsys):
    # reduce writes one effective model
    out = tmp_path / "out"
    assert main(["reduce", "--scheme", "T0S0_mix", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "T0" in err and "S0" in err
    assert not out.exists()


def test_trajectory_mixture_effective_tracks_full(tmp_path):
    # criterion 7 on the mixture's own evolution, each component's model
    # evolved and weighted
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--scheme", "T0S0_mix", "--t-final", "4000",
                 "--methods", "full,effective", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    p_s = {m: np.array([float(r[header.index("P_S")]) for r in rows if r[1] == m])
           for m in ("full", "effective")}
    assert len(p_s["full"]) == len(p_s["effective"]) > 1000
    assert np.abs(p_s["effective"] - p_s["full"]).max() <= 0.02


@pytest.mark.parametrize("argv, message", [
    (["steady", "--omega", "nan", "--record"], "Omega must be finite"),
    (["steady", "--gamma", "nan", "--record"], "gamma must be finite"),
    (["trajectory", "--t-final", "nan", "--out"], "got t_final = nan"),
    (["trajectory", "--t-final", "inf", "--methods", "full,rate", "--out"],
     "got t_final = inf"),
    (["table1", "--g", "nan", "--out"], "--g must be finite and positive, got nan"),
    (["table1", "--g", "0", "--out"], "--g must be finite and positive, got 0.0"),
    (["--g-mhz", "nan", "table1", "--out"], "--g-mhz must be finite and positive"),
    (["trajectory", "--t-final", "1", "--dt", "0", "--out"], "dt = 0.0"),
    (["sweep", "--axis", "cooperativity", "--start", "10", "--stop", "100",
      "--points", "0", "--out"], "--points must be at least 1, got 0"),
    (["sweep", "--axis", "drive", "--start", "0.01", "--stop", "0.1",
      "--points", "-2", "--out"], "--points must be at least 1, got -2"),
    (["sweep", "--axis", "cooperativity", "--start", "0", "--stop", "100",
      "--points", "3", "--log", "--out"], "--start and --stop of one sign, got 0.0 and 100.0"),
    (["sweep", "--axis", "drive", "--start", "-0.1", "--stop", "0.1",
      "--points", "3", "--log", "--out"], "--start and --stop of one sign, got -0.1 and 0.1"),
])
def test_bad_command_argument_exits_2_naming_it(tmp_path, capsys, argv, message):
    # checked before any scheme or method runs: no output is written
    out = tmp_path / "out"
    assert main(argv + [str(out)]) == 2
    assert message in capsys.readouterr().err
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


def test_sweep_asymmetry_csv(tmp_path):
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


def test_cli_import_forms_no_generator_terms():
    # the full model's per-term real forms are built on first use, not on import
    src = Path(cavsinglet.__file__).resolve().parent.parent
    subprocess.run(
        [sys.executable, "-c",
         "import cavsinglet.cli; assert cavsinglet.liouville._TERM_FORMS == {}"],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True)


def test_shorter_output_over_a_longer_file_leaves_no_tail(tmp_path):
    # outputs are written over in place and cut where they end
    over, fresh = tmp_path / "over", tmp_path / "fresh"
    write_csv(over, ["a", "b"], [[1.0, "x"]] * 3)
    write_csv(over, ["a", "b"], [[2.0, "y"]])
    write_csv(fresh, ["a", "b"], [[2.0, "y"]])
    assert over.read_bytes() == fresh.read_bytes()
    cli.write_record({"outputs": list(range(20))}, over)
    cli.write_record({"outputs": []}, over)
    assert over.read_text() == json.dumps({"outputs": []}, indent=1) + "\n"
    for argv in (["reduce", "--dressed", "--out"], ["reduce", "--out"]):
        assert main(argv + [str(over)]) == 0
    assert main(["reduce", "--out", str(fresh)]) == 0
    assert over.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("out", ["/dev/stdout", "/dev/null"])
def test_table1_writes_to_a_pipe_or_device(out):
    # neither can be cut at the end of what was written
    src = Path(cavsinglet.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-m", "cavsinglet.cli", "table1", "--schemes", "S1",
         "--out", out], env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, text=True, check=True)
    has_table = "scheme,static_error,max_fidelity" in run.stdout
    assert has_table == (out == "/dev/stdout")


def test_table1_to_dev_stdout_redirected_into_a_file(tmp_path):
    # the table follows what print wrote to the same file, not over it
    src = Path(cavsinglet.__file__).resolve().parent.parent
    out = tmp_path / "out.txt"
    with open(out, "w") as fh:
        subprocess.run(
            [sys.executable, "-m", "cavsinglet.cli", "table1", "--schemes", "S1",
             "--out", "/dev/stdout"], env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=fh, check=True)
    lines = out.read_text().splitlines()
    i = lines.index("scheme,static_error,max_fidelity,gap_at_2pct,"
                    "convergence_time_at_2pct,needs_confinement")
    assert lines[i + 1].startswith("S1,8.78906250000e-02,") and \
        lines[i + 1].endswith(",yes")
    assert lines[i + 2:] == ["table written to /dev/stdout"]


def test_config_hash_ignores_the_output_path(tmp_path):
    hashes = set()
    for name in ("a.json", "b.json"):
        assert main(["steady", "--scheme", "S1", "--record", str(tmp_path / name)]) == 0
        hashes.add(json.loads((tmp_path / name).read_text())["provenance"]["config_hash"])
    assert len(hashes) == 1
    assert cli.config_hash({"scheme": "S1", "out": "x.csv"}) == \
        cli.config_hash({"scheme": "S1", "out": "y.csv"}) != \
        cli.config_hash({"scheme": "S0", "out": "x.csv"})


def test_sweep_deterministic_bytes(tmp_path):
    # what the first run caches (spaces, operators, sectors) must not change
    # the second run's bytes
    outs = []
    for name in ("a.csv", "b.csv"):
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


@pytest.mark.parametrize("rows", [
    # a run of one type signature, one cell of it needing quotes
    [[float(t), "full", 0.25] for t in range(3)] + [[3.0, "a,b", 0.5], [4.0, 'q"', 0.5],
                                                     [5.0, "x\r\ny", 0.5], [6.0, "ok", 0.5]],
    # a run of rows of one empty cell, alone and among others
    [[""], [""], [""]],
    [["a"], [""], ["b"]],
    # line breaks split across rows
    [["x\r"], ["\ny"], ["z"]],
    # alternating runs
    [[0.0, "x"], [1.0, "y"], ["s", 1.0], ["t", 2.0], [3.0, "z"], [None], [4.0, "w"],
     [], [], [5.0, ""], [np.float64(6.0), "v"], [7.0, "u"]],
])
def test_write_csv_runs_match_csv_writer(tmp_path, rows):
    write_csv(tmp_path / "rows.csv", ["t", "method"], rows)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "method"])
        for row in rows:
            writer.writerow([f"{x:.11e}" if isinstance(x, float) else x for x in row])
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_numerical_failure_is_one_line_exit_1(tmp_path, capsys):
    # the steady state of WS at C = 1000 and a weak drive is not unique
    record = tmp_path / "ws.json"
    code = main(["steady", "--scheme", "WS", "--C", "1000", "--omega", "0.01gamma",
                 "--record", str(record)])
    err = capsys.readouterr().err
    assert code == 1 and not record.exists()
    assert err.splitlines() == ["cavsinglet steady: DegenerateSteadyStateError: "
                                "stationary manifold is 6-dimensional, expected 1"]


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
    # the drive search returns the weak-drive fidelity it measures from and
    # the model it built and solved at the drive it found
    solve, build = liouville.steady_state, liouville.full_generator
    # S1 inverts a closed form; the others take three solves per component
    for scheme, solves in (("S1", 2), ("T0", 3), ("T0S0_mix", 6)):
        solved, built = set(), []

        def full_generator(params):
            built.append((params, build(params)))
            return built[-1][1]

        monkeypatch.setattr(liouville, "steady_state",
                            lambda lv: solved.add(id(lv)) or solve(lv))
        monkeypatch.setattr(liouville, "full_generator", full_generator)
        out = str(tmp_path / "t.csv")
        assert main(["table1", "--schemes", scheme, "--out", out]) == 0
        monkeypatch.undo()
        params, lvs = zip(*built)
        assert len(set(params)) == len(params)  # no model built twice
        assert solved == {id(lv) for lv in lvs}  # and every one solved
        assert len(lvs) == solves


def test_parser_built_once_dispatches_to_module_commands(monkeypatch):
    parser, seen = cli.make_parser(), []  # built before the command is replaced
    monkeypatch.setattr(cli, "cmd_reduce", lambda args: seen.append(args.scheme) or 0)
    for argv in (["reduce", "--scheme", "T0"], ["reduce"]):
        assert main(argv) == 0
    assert seen == ["T0", "S1"]  # no value left over from the previous call
    assert cli.make_parser() is parser


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
