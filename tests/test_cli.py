import json
import math
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


def write_cfg(tmp_path, name="cfg.json", **extra):
    cfg = dict(BASE)
    cfg.update(extra)
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
], ids=["n-string", "k-float", "theta-string", "bruteforce-n8", "chi-method-unknown",
        "nwidth-method-unknown", "nwidth-bruteforce-n8", "balayage-ellipse",
        "negative-radius", "thetas-scalar", "formats-int", "formats-null", "chi-n0",
        "nwidth-n0", "thetas-nan", "out-int", "radius-nan", "center-nan", "semi-axes-nan",
        "curve-radius-inf", "polar-span", "chi-seed-negative", "equilibrium-seed-negative",
        "sweep-seed-negative", "center-short", "semi-axes-short", "semi-axes-string",
        "polar-angle-string"])
def test_bad_inputs_exit_2(tmp_path, capsys, task, extra, message):
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
], ids=["curve-radius-1e200", "plate-radius-1e-200"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows that make the NaNs
def test_non_finite_result_exits_2(tmp_path, capsys, condenser):
    # |phi|^2 overflows on the curve, so the field and both constants are NaN
    cfg = write_cfg(tmp_path, condenser=condenser, theta=0.5, n_points=16, grid_n=256)
    out = tmp_path / "nan"
    rc = main(["equilibrium", "--config", cfg, "--seed", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "validation failure" in err and "non-finite" in err
    assert list(out.iterdir()) == []


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


def test_sweep_ending_at_theta_one_on_a_small_grid(tmp_path):
    # the theta = 1 support holds fewer than 32 slots, which the capacity
    # fit could not take; the spectral solve takes any arc
    cfg = write_cfg(tmp_path, condenser=OFFSET, thetas=[0, 0.25, 0.5, 0.75, 1],
                    n_points=16, grid_n=256)
    out = tmp_path / "sw"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads((out / "result.json").read_text())["payload"]
    assert all(math.isfinite(cap) and cap > 0 for cap in payload["cap_s_tau"])
    assert len(payload["converged"]) == 5
