import json
import math
import time
import warnings
from types import SimpleNamespace

import pytest

from condenser_widths.cli import main

E_RADIUS = math.e

BASE = {
    "condenser": {"e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
                  "gamma": {"kind": "circle", "center": [0, 0], "radius": E_RADIUS}},
}

OFFSET = {"e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
          "gamma": {"kind": "circle", "center": [1, 0], "radius": 3.0}}

POLAR = {"e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
         "gamma": {"kind": "polar", "center": [0, 0], "angles": [0, 1.5, 3, 4.5],
                   "radii": [2.5, 3.2, 2.2, 3.0]}}


MISSING = object()  # write_cfg leaves out a field given this value


def write_cfg(tmp_path, name="cfg.json", **extra):
    cfg = {key: val for key, val in {**BASE, **extra}.items() if val is not MISSING}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_sweep_task_csv_and_json(tmp_path):
    cfg = write_cfg(tmp_path, n_points=128, grid_n=2048, formats=["json", "csv"])
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "theta,m_energy,m_field,m_hat,cap_S_tau,residuals"
    assert len(rows) == 22  # header + 21 theta values
    for row in rows[1:]:
        theta, m_energy, m_field = (float(x) for x in row.split(",")[:3])
        assert abs(m_field + theta) <= 0.02
    result = json.loads((out / "result.json").read_text())
    assert result["schema_version"] == 1
    assert result["payload"]["monotone_m"] and result["payload"]["monotone_m_hat"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "wall_time_s" in manifest and "wall_time_s" not in json.dumps(result)


def test_chi_task_k0(tmp_path):
    cfg = write_cfg(tmp_path, n=4, k=0, grid_n=1024, n_points=4)
    out = tmp_path / "chi"
    assert main(["chi", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["payload"]["chi"]["chi_upper"] == 1.0
    assert result["payload"]["chi"]["converged"] is True


def test_chi_task_requires_seed(tmp_path):
    cfg = write_cfg(tmp_path, n=4, k=0, grid_n=1024, n_points=4)
    assert main(["chi", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_chi_fixture_mode(tmp_path):
    cfg = write_cfg(tmp_path, n=3, k=3, grid_n=1024, n_points=4)
    out = tmp_path / "fix"
    assert main(["chi", "--config", cfg, "--seed", "5", "--out", str(out),
                 "--fixtures"]) == 0
    fixture = json.loads((out / "fixtures" / "chi_n3_k3_seed5.json").read_text())
    assert fixture["seed"] == 5
    assert fixture["chi_upper"] >= fixture["chi_lower"]


def test_theta_ratio_shorthand(tmp_path):
    # k omitted: derived from theta * n
    cfg = write_cfg(tmp_path, n=4, theta=0.5, grid_n=1024, n_points=4)
    out = tmp_path / "ratio"
    assert main(["chi", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["payload"]["chi"]["k"] == 2


def test_equilibrium_task(tmp_path):
    cfg = write_cfg(tmp_path, theta=0.5, n_points=64, grid_n=1024)
    out = tmp_path / "eq"
    assert main(["equilibrium", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())["payload"]
    assert abs(payload["m_theta_field"] + 0.5) <= 0.05
    # measures round-trip through the documented schema
    from condenser_widths import DiscreteMeasure
    lam = DiscreteMeasure.from_json_dict(payload["lambda_n"])
    assert abs(lam.total_mass - 0.5) <= 1e-12


def test_nwidth_task_with_field_csv(tmp_path):
    cfg = write_cfg(tmp_path, theta=0.5, n_points=64, grid_n=1024,
                    formats=["json", "csv"])
    out = tmp_path / "nw"
    assert main(["nwidth", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
    rows = (out / "field.csv").read_text().strip().splitlines()
    assert rows[0] == "x,y,value"
    assert len(rows) > 100


def test_balayage_demo_task(tmp_path):
    cfg = write_cfg(tmp_path, n=4, k=2, grid_n=1024)
    out = tmp_path / "bal"
    assert main(["balayage-demo", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())["payload"]
    assert payload["to_plate"]["mass"] == pytest.approx(1.0, abs=1e-12)
    assert payload["to_plate"]["identity_residual"] <= 1e-6


def test_validate_task_passes(tmp_path):
    cfg = write_cfg(tmp_path, grid_n=1024, n_points=32)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v")]) == 0


def test_validate_task_offset_m1_pin(tmp_path, capsys):
    cfg = {"condenser": {"e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
                         "gamma": {"kind": "circle", "center": [1, 0], "radius": 3.0}},
           "grid_n": 1024, "n_points": 32}
    path = tmp_path / "off.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "vo")]) == 0
    out = capsys.readouterr().out
    assert "m_1 = -1.386294" in out  # -log 4 via the grid maximum


def test_validate_task_surfaces_coarse_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, grid_n=8)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "v8")]) == 2
    out = capsys.readouterr().out
    assert "GridTooCoarse" in out and "[FAIL]" in out


def test_malformed_curve_exits_2(tmp_path, capsys):
    bad = {"condenser": {"e": {"kind": "disk", "center": [0, 0], "radius": 2.0},
                         "gamma": {"kind": "circle", "center": [0, 0], "radius": 1.0}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["equilibrium", "--config", str(path), "--out", str(tmp_path / "b")]) == 2
    assert "winding" in capsys.readouterr().err


def test_curve_crossing_segment_between_samples_exits_2(tmp_path, capsys):
    # a polar dip through E = [-1, 1] on x in [0.3006, 0.3010]; at grid_n 4096
    # the plate sample x = 38.5/128 lies in it
    phi0 = math.atan2(-0.5, 38.5 / 128)
    dip = {"e": {"kind": "segment", "a": -1.0, "b": 1.0},
           "gamma": {"kind": "polar", "center": [0, 0.5],
                     "angles": [phi0 + d for d in (-2, -0.01, 0, 0.01, 2)],
                     "radii": [3, 3, 0.5, 3, 3]}}
    cfg = write_cfg(tmp_path, condenser=dip, n_points=16, grid_n=4096, theta=0.5)
    out = tmp_path / "dip"
    assert main(["equilibrium", "--config", cfg, "--seed", "0", "--out", str(out)]) == 2
    assert "inside check failed" in capsys.readouterr().err
    assert not (out / "result.json").exists()


def test_byte_identical_reruns_across_thread_counts(tmp_path):
    cfg = write_cfg(tmp_path, theta=0.5, n_points=64, grid_n=1024)
    outs = []
    for threads, name in ((1, "t1"), (4, "t4"), (1, "t1b")):
        out = tmp_path / name
        assert main(["equilibrium", "--config", cfg, "--seed", "7",
                     "--threads", str(threads), "--out", str(out)]) == 0
        outs.append((out / "result.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_unknown_task_rejected(tmp_path):
    cfg = write_cfg(tmp_path)
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", cfg])


@pytest.mark.parametrize("task, extra, message", [
    ("chi", {"n": "4"}, "n must be an integer"),
    ("chi", {"n": 4, "k": 2.0}, "k must be an integer"),
    ("equilibrium", {"theta": "0.5"}, "must be numbers"),
    ("chi", {"n": 8, "k": 4, "method": "bruteforce"}, "restricted to n <= 6"),
    ("chi", {"n": 4, "k": 2, "method": "newton"}, "unknown chi method 'newton'"),
    ("nwidth", {"n": 4, "k": 2, "n_points": 16, "grid_n": 1024, "method": "newton"},
     "unknown chi method 'newton'"),
    ("nwidth", {"n": 8, "k": 4, "n_points": 16, "grid_n": 1024, "method": "bruteforce"},
     "restricted to n <= 6"),
    ("balayage-demo", {"condenser": {
        "e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "gamma": {"kind": "ellipse", "center": [0, 0], "semi_axes": [3.0, 2.0]}},
        "grid_n": 1024}, "circles only"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [0, 0], "radius": -1.0},
        "gamma": {"kind": "circle", "center": [0, 0], "radius": 3.0}}},
        "disk radius must be positive"),
    ("sweep", {"thetas": 0.5}, "thetas must be a list of numbers"),
    ("equilibrium", {"formats": 5}, "formats must be a list of strings"),
    ("equilibrium", {"formats": None}, "formats must be a list of strings"),
    ("chi", {"n": 0, "k": 0, "method": "asymptotic_pair"}, "n must be >= 1"),
    ("nwidth", {"n": 0, "k": 0, "n_points": 16, "grid_n": 1024}, "n must be >= 1"),
    ("sweep", {"thetas": [0.0, float("nan"), 1.0]}, "theta values must be finite"),
    ("equilibrium", {"out": 5}, "out must be a string"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [0, 0], "radius": float("nan")},
        "gamma": {"kind": "circle", "center": [0, 0], "radius": 3.0}}},
        "disk center and radius must be finite"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [float("nan"), 0], "radius": 1.0},
        "gamma": {"kind": "circle", "center": [0, 0], "radius": 3.0}}},
        "disk center and radius must be finite"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "gamma": {"kind": "ellipse", "center": [0, 0], "semi_axes": [float("nan"), 2.0]}}},
        "ellipse center, semi-axes and rotation must be finite"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "gamma": {"kind": "circle", "center": [0, 0], "radius": float("inf")}}},
        "circle center and radius must be finite"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "gamma": {"kind": "polar", "center": [0, 0], "angles": [0, 1, 2, 10],
                  "radii": [3, 3, 3, 3]}}},
        "polar angles must span less than 2*pi"),
    ("chi", {"n": 4, "k": 2, "method": "bruteforce", "seed": -1}, "seed must be >= 0"),
    ("equilibrium", {"seed": -1}, "seed must be >= 0"),
    ("sweep", {"seed": -1}, "seed must be >= 0"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [0.0], "radius": 1.0},
        "gamma": {"kind": "circle", "center": [0, 0], "radius": 3.0}}},
        "malformed condenser section"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "gamma": {"kind": "ellipse", "center": [0, 0], "semi_axes": [2.0]}}},
        "malformed condenser section"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "gamma": {"kind": "ellipse", "center": [0, 0], "semi_axes": ["x", 1.5]}}},
        "malformed condenser section"),
    ("equilibrium", {"condenser": {
        "e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "gamma": {"kind": "polar", "center": [0, 0], "angles": ["a", 1, 2, 3],
                  "radii": [3, 3, 3, 3]}}},
        "malformed condenser section"),
    ("equilibrium", {"condenser": MISSING}, "config is missing the 'condenser' section"),
    ("equilibrium", {"task": "frobnicate"}, "unknown task 'frobnicate'"),
    ("equilibrium", {"theta": 1.5}, "theta must lie in [0, 1]"),
    ("sweep", {"thetas": [0.5, 0.2]}, "thetas must be strictly increasing"),
    ("sweep", {"thetas": [-0.1, 0.5]}, "thetas must lie in [0, 1]"),
    ("equilibrium", {"n_points": 1}, "n_points must be >= 2"),
    ("validate", {"grid_n": 3}, "grid_n must be >= 4"),
    ("equilibrium", {"n_points": 2, "grid_n": 32}, "grid_n must be >= 64"),
    ("chi", {"n": 4, "k": 5}, "need 0 <= k <= n"),
    ("equilibrium", {"formats": ["json", "xml"]}, "formats must be a subset of {json, csv}"),
    ("chi", {"n": 3, "k": 1, "fixtures": "no"}, "fixtures must be true or false"),
    ("equilibrium", {"method": 5}, "method must be a string"),
], ids=["n-string", "k-float", "theta-string", "bruteforce-n8", "chi-method-unknown",
        "nwidth-method-unknown", "nwidth-bruteforce-n8", "balayage-ellipse",
        "negative-radius", "thetas-scalar", "formats-int", "formats-null", "chi-n0",
        "nwidth-n0", "thetas-nan", "out-int", "radius-nan", "center-nan", "semi-axes-nan",
        "curve-radius-inf", "polar-span", "chi-seed-negative", "equilibrium-seed-negative",
        "sweep-seed-negative", "center-short", "semi-axes-short", "semi-axes-string",
        "polar-angle-string", "condenser-missing", "task-unknown", "theta-above-1",
        "thetas-decreasing", "thetas-below-0", "n-points-1", "grid-n-3", "grid-n-32",
        "k-above-n", "formats-xml", "fixtures-string", "method-int"])
def test_bad_inputs_exit_2(tmp_path, capsys, monkeypatch, task, extra, message):
    if "task" in extra:
        # the command line's task overrides the config's, and argparse admits
        # only known tasks: an unknown one reaches load_config from a library
        # caller, as it does here
        from condenser_widths import cli

        load = cli.load_config
        monkeypatch.setattr(cli, "load_config",
                            lambda path, overrides: load(path, {**overrides, **extra}))
    cfg = write_cfg(tmp_path, **extra)
    argv = [task, "--config", cfg]
    # the --seed and --out flags would override a bad config field
    if "seed" not in extra:
        argv += ["--seed", "0"]
    if "out" not in extra:
        argv += ["--out", str(tmp_path / "bad")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "validation failure" in err and message in err


@pytest.mark.parametrize("task", ["equilibrium", "sweep", "chi", "nwidth", "balayage-demo",
                                  "validate"])
def test_every_config_field_is_type_checked(tmp_path, capsys, task):
    # each field but condenser and task, set to a JSON type its default does
    # not have: a field added without a type check fails here
    from dataclasses import fields
    from condenser_widths.cli import RunConfig

    names = [f.name for f in fields(RunConfig) if f.name not in ("condenser", "task")]
    defaults = RunConfig(condenser=None, task=task)
    for name in names:
        wrong = 5 if isinstance(getattr(defaults, name), str) else "5"
        cfg = write_cfg(tmp_path, **{name: wrong})
        argv = [task, "--config", cfg]
        if name != "seed":
            argv += ["--seed", "0"]
        if name != "out":
            argv += ["--out", str(tmp_path / "bad")]
        assert main(argv) == 2, name
        assert "validation failure" in capsys.readouterr().err, name
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("root, message", [
    ("5", "config must be a JSON object"), ("null", "config must be a JSON object"),
    ("true", "config must be a JSON object"), ("[]", "config must be a JSON object"),
    (None, "cannot read config")], ids=["int", "null", "true", "list", "missing-file"])
def test_bad_config_root_exits_2(tmp_path, capsys, root, message):
    path = tmp_path / "cfg.json"
    if root is not None:
        path.write_text(root)
    rc = main(["equilibrium", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "bad")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "validation failure" in err and message in err


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, theta=0.5, n_points=16, grid_n=1024)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        rc = main(["equilibrium", "--config", cfg, "--seed", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "validation failure" in err and str(taken) in err
    assert taken.read_text() == ""


def test_nwidth_rate_is_chi_log_rate_lower(tmp_path, monkeypatch):
    from condenser_widths import cli

    cfg = write_cfg(tmp_path, condenser=OFFSET, n=16, k=8, n_points=16, grid_n=1024)
    payloads = {}
    for task in ("chi", "nwidth"):
        assert main([task, "--config", cfg, "--seed", "0", "--out", str(tmp_path / task)]) == 0
        payloads[task] = json.loads((tmp_path / task / "result.json").read_text())["payload"]
    chi = payloads["chi"]["chi"]
    assert chi["method"] == "asymptotic_pair"
    assert payloads["nwidth"]["chi_lower_bounds"] == [[16, 8, chi["log_rate_lower"]]]

    # the rate stays finite where chi_lower itself underflows to 0
    def underflowed(c, n, k, *args):
        return SimpleNamespace(chi_lower=0.0, log_rate_lower=-0.5)

    monkeypatch.setattr(cli, "chi_estimate", underflowed)
    cfg = write_cfg(tmp_path, condenser=OFFSET, n=1536, k=768, n_points=16, grid_n=1024)
    out = tmp_path / "underflow"
    assert main(["nwidth", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())["payload"]
    assert payload["chi_lower_bounds"] == [[1536, 768, -0.5]]


def test_library_budget_exhaustion_exits_3(tmp_path, capsys, monkeypatch):
    from condenser_widths import extremal
    from condenser_widths.errors import BudgetExceeded

    def exhausted(*args, **kwargs):
        raise BudgetExceeded("ratio evaluation budget of 10 exhausted")

    monkeypatch.setattr(extremal, "chi_asymptotic_pair", exhausted)
    cfg = write_cfg(tmp_path, n=16, k=8, grid_n=1024, method="asymptotic_pair")
    out = tmp_path / "budget"
    rc = main(["chi", "--config", cfg, "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "numeric budget failure" in err and "budget of 10 exhausted" in err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("condenser", [
    {"e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
     "gamma": {"kind": "circle", "center": [0, 0], "radius": 1e200}},
    {"e": {"kind": "disk", "center": [0, 0], "radius": 1e-200},
     "gamma": {"kind": "circle", "center": [1, 0], "radius": 3.0}},
    {"e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
     "gamma": {"kind": "polar", "center": [0, 0], "angles": [0, 1.5, 3, 4.5],
               "radii": [1e300, 3, 3, 3]}},
], ids=["curve-radius-1e200", "plate-radius-1e-200", "polar-radius-1e300"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows that make the NaNs
def test_non_finite_result_exits_2(tmp_path, capsys, condenser):
    # |phi|^2 overflows on the curve, so the field and both constants would be
    # NaN; validation rejects the geometry first
    cfg = write_cfg(tmp_path, condenser=condenser, theta=0.5, n_points=16, grid_n=256)
    out = tmp_path / "nan"
    rc = main(["equilibrium", "--config", cfg, "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "validation failure" in err and "non-finite" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_payload_exits_2_and_writes_no_file(tmp_path, capsys, monkeypatch, value):
    # the strict-JSON guard runs after the task and before any file is written
    from condenser_widths import cli

    monkeypatch.setattr(cli, "_task_sweep",
                        lambda cfg: ({"m": [0.5, value]}, [("sweep.csv", [("theta",), ("0",)])]))
    cfg = write_cfg(tmp_path, condenser=OFFSET, n_points=16, grid_n=256,
                    formats=["json", "csv"])
    out = tmp_path / "guard"
    rc = main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "validation failure" in err and "non-finite" in err
    assert not (out / "result.json").exists() and not (out / "manifest.json").exists()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("task", ["equilibrium", "sweep"])
def test_non_finite_equilibrium_density_exits_2(tmp_path, capsys, monkeypatch, task):
    # a Nystrom matrix that overflowed gives a NaN density: the run names it
    # and exits 2, where a NaN slot index would have raised (exit 1)
    import numpy as np
    from condenser_widths import spectral

    matrix = spectral._closed_matrix
    monkeypatch.setattr(spectral, "_closed_matrix", lambda c, n: np.full_like(matrix(c, n), np.nan))
    cfg = write_cfg(tmp_path, condenser=OFFSET, theta=0.5, thetas=[0, 0.5, 1],
                    n_points=16, grid_n=256)
    out = tmp_path / "nan"
    rc = main([task, "--config", cfg, "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "validation failure" in err and "weighted-equilibrium density is not finite" in err
    assert not (out / "result.json").exists()


def test_nwidth_with_csv_runs_one_fekete_stage(tmp_path, monkeypatch, offset):
    from condenser_widths import cli, equilibrium

    stage = equilibrium._theta_stage
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return stage(*args)

    monkeypatch.setattr(equilibrium, "_theta_stage", counted)
    monkeypatch.setattr(cli, "_theta_stage", counted)
    cfg = write_cfg(tmp_path, condenser=OFFSET, theta=0.3, n=4, k=2, n_points=64,
                    grid_n=1024, formats=["json", "csv"])
    out = tmp_path / "nw"
    assert main(["nwidth", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    assert calls == [(0.3, 64, 1024, 0)]
    payload = json.loads((out / "result.json").read_text())["payload"]
    assert payload["predicted_rate"] == stage(offset, 0.3, 64, 1024, 0).m_field
    assert len((out / "field.csv").read_text().splitlines()) > 1000


@pytest.mark.parametrize("condenser", [OFFSET, POLAR], ids=["offset", "polar"])
def test_sweep_ending_at_theta_one_on_a_small_grid(tmp_path, condenser):
    # the theta = 1 support holds fewer than 32 slots, which the capacity
    # fit could not take; the spectral solve takes any arc
    cfg = write_cfg(tmp_path, condenser=condenser, thetas=[0, 0.25, 0.5, 0.75, 1],
                    n_points=16, grid_n=256)
    out = tmp_path / "sw"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())["payload"]
    assert all(math.isfinite(cap) and cap > 0 for cap in payload["cap_s_tau"])
    assert len(payload["converged"]) == 5


def test_sweep_grid_check_counts_the_atoms_it_runs(tmp_path, capsys):
    # a sweep runs at most SWEEP_MAX_POINTS = 160 atoms, which 2560 slots hold
    out = tmp_path / "sw"
    for grid_n, rc in ((2559, 2), (2560, 0)):
        cfg = write_cfg(tmp_path, condenser=OFFSET, thetas=[0.3, 0.6], n_points=300,
                        grid_n=grid_n)
        assert main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)]) == rc
    assert "too coarse for 160 atoms" in capsys.readouterr().err
    assert len(json.loads((out / "result.json").read_text())["payload"]["thetas"]) == 2


def test_any_package_error_exits_2(tmp_path, capsys, monkeypatch):
    # every CondenserWidthsError other than BudgetExceeded is a validation
    # failure, including types the runner does not name
    from condenser_widths import cli
    from condenser_widths.errors import CoincidentPole

    def coincident(cfg):
        raise CoincidentPole("green_kernel pole at z = t = (3+0j)")

    monkeypatch.setattr(cli, "_task_equilibrium", coincident)
    cfg = write_cfg(tmp_path, theta=0.5, n_points=16, grid_n=1024)
    out = tmp_path / "pole"
    assert main(["equilibrium", "--config", cfg, "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation failure" in err and "pole at z = t" in err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("task", ["chi", "nwidth"])
def test_restarts_past_the_budget_exit_3_at_once(tmp_path, capsys, task):
    # 2 + 10^9 starts each score at least one proxy move over the plate
    # candidates, far past the 10^6 budget: the search stops before any start
    # (nwidth runs its Fekete stage and capacity solve first, whose first
    # dense solve in a process can pay a BLAS warm-up, so only chi is timed)
    cfg = write_cfg(tmp_path, n=4, k=2, n_points=16, grid_n=1024, method="bruteforce",
                    restarts=10 ** 9)
    out = tmp_path / "restarts"
    start = time.perf_counter()
    rc = main([task, "--config", cfg, "--seed", "0", "--out", str(out)])
    assert task != "chi" or time.perf_counter() - start < 1.0
    assert rc == 3
    assert "numeric budget failure" in capsys.readouterr().err
    assert not (out / "result.json").exists()


def run_config(task, **extra):
    from condenser_widths.cli import RunConfig

    return RunConfig(condenser=None, task=task, **extra)


def test_largest_allocation_counts_each_task():
    from condenser_widths.cli import MAX_ARRAY_ENTRIES, largest_allocation

    # the benchmark's finest equilibrium run: the exchange's window store of
    # 1024 atoms x 193 slots (6 atom spacings of 16 slots on either side);
    # nwidth's chi estimate then outgrows it with the scorer's largest matrix
    assert largest_allocation(run_config("equilibrium", n_points=1024, grid_n=16384)) == 1024 * 193
    assert largest_allocation(run_config("nwidth", n=4, k=2, n_points=1024,
                                         grid_n=16384)) == 1024 * 2112
    # a sweep's stages take at most 160 atoms and validate's smoke stage 32:
    # their window stores (160 x 309, 32 x 1537) stay below the fill block of
    # 16 rows of 4096 slots
    assert largest_allocation(run_config("sweep", n_points=1024, grid_n=4096)) == 16 * 4096
    assert largest_allocation(run_config("validate", n_points=1024, grid_n=4096)) == 16 * 4096
    # chi: the equilibrium pair's window store (2048 atoms x 193 on 32768
    # slots, here below the rest), the scorer's largest matrix (1024 curve
    # candidates over 2048 + 64 plate evals) or the descents' log columns
    assert largest_allocation(run_config("chi", n=4096, k=2048, grid_n=4096)) == 4096 * 4160
    assert largest_allocation(run_config("chi", n=10 ** 4, k=0, grid_n=64)) == 10 ** 4 * 193
    assert largest_allocation(run_config("chi", n=256, k=128, grid_n=4096)) == 1024 * 2112
    assert largest_allocation(run_config("chi", n=4, k=2, grid_n=1024)) == 1024 * 1088
    assert largest_allocation(run_config("chi", n=10 ** 4, k=10 ** 4, grid_n=64)) == 192 * 10 ** 4
    # balayage-demo: complex points and float angles on min(16, k) sweep rows
    assert largest_allocation(run_config("balayage-demo", k=2, grid_n=4096)) == 6 * 4097
    assert largest_allocation(run_config("balayage-demo", k=0, grid_n=4096)) == 3 * 4097
    assert largest_allocation(run_config("balayage-demo", k=100, grid_n=4096)) == 48 * 4097
    # the fuzzed grid_n = 2^31 is over the cap on every task that failed with it
    for task in ("equilibrium", "sweep", "validate", "nwidth", "balayage-demo"):
        assert largest_allocation(run_config(task, grid_n=2 ** 31)) > MAX_ARRAY_ENTRIES
    assert largest_allocation(run_config("chi", n=10 ** 5, k=5 * 10 ** 4)) > MAX_ARRAY_ENTRIES


class _ScorerBuilt(Exception):
    """Stops a chi estimate once its scorer is built."""


@pytest.mark.parametrize("task", ["chi", "nwidth"])
@pytest.mark.parametrize("plate", ["disk", "segment"])
@pytest.mark.parametrize("n, k, grid_n, method", [
    (4, 2, 256, "bruteforce"), (24, 8, 64, "asymptotic_pair"),
    (24, 8, 4096, "asymptotic_pair"), (8, 7, 64, "asymptotic_pair"),
    (20, 20, 1024, "asymptotic_pair"), (600, 300, 64, "asymptotic_pair")])
def test_largest_allocation_covers_the_chi_estimate(monkeypatch, task, plate, n, k, grid_n,
                                                    method):
    # the guard must cover what the estimate allocates: the descents' log
    # columns, n x (plate + curve scan points) of the scorer it builds, that
    # scorer's largest candidate x eval matrix, and the equilibrium pair's
    # exchange run and complex Leja grid
    import numpy as np

    from condenser_widths import extremal
    from condenser_widths.cli import largest_allocation
    from condenser_widths.equilibrium import exchange_allocation
    from condenser_widths.geometry import Condenser, sample_curve
    from condenser_widths.measure import DiscreteMeasure

    sizes = []

    class Scorer(extremal.NormRatioScorer):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            sizes.append(n * (self.e_eval.size + self.gamma_eval.size))
            sizes.append(max(m.size for m in self.mats.values()))
            raise _ScorerBuilt

    leja = extremal.leja_weighted

    def fekete_spy(c, theta, m, slots, seed):
        # a stand-in for the exchange: only the stage's size matters here,
        # its window store or fill block (theta = 1 runs no exchange)
        sizes.append(exchange_allocation(m, slots) if theta < 1 else 0)
        return DiscreteMeasure(sample_curve(c.gamma, slots).points[:m],
                               np.full(m, (1.0 - theta) / max(m, 1)))

    def leja_spy(c, lam, theta, m, slots):
        sizes.append(2 * slots)
        return leja(c, lam, theta, m, slots)

    monkeypatch.setattr(extremal, "NormRatioScorer", Scorer)
    monkeypatch.setattr(extremal, "fekete_green", fekete_spy)
    monkeypatch.setattr(extremal, "leja_weighted", leja_spy)
    e = ({"kind": "disk", "center": [0, 0], "radius": 1.0} if plate == "disk"
         else {"kind": "segment", "a": -1.0, "b": 1.0})
    c = Condenser.from_json_dict({"e": e, "gamma": OFFSET["gamma"]}).validate()
    with pytest.raises(_ScorerBuilt):
        extremal.chi_estimate(c, n, k, method, grid_n, restarts=2, seed=0)
    assert len(sizes) == (4 if method == "asymptotic_pair" else 2)
    guard = largest_allocation(run_config(task, n=n, k=k, n_points=16, grid_n=grid_n,
                                          method=method))
    assert guard >= max(sizes)


@pytest.mark.parametrize("task", ["equilibrium", "sweep", "chi", "nwidth", "balayage-demo",
                                  "validate"])
def test_allocation_over_the_cap_exits_2(tmp_path, capsys, monkeypatch, task):
    # the cap is checked with the config, before anything is allocated; a
    # small cap stands in for a huge config
    from condenser_widths import cli

    cfg = write_cfg(tmp_path, n=4, k=2, n_points=16, grid_n=1024, theta=0.5)
    size = cli.largest_allocation(cli.load_config(cfg, {"task": task, "seed": 0}))
    out = tmp_path / task
    monkeypatch.setattr(cli, "MAX_ARRAY_ENTRIES", size - 1)
    assert main([task, "--config", cfg, "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation failure" in err and f"{size} float64 entries" in err
    assert not out.exists()
    monkeypatch.setattr(cli, "MAX_ARRAY_ENTRIES", size)
    assert main([task, "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
