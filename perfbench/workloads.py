"""The four benchmark workloads: their seeded inputs, set-up, operations and
output checks.

Every check is computed here from a closed form or a property the method
must have; potentials are evaluated with numpy, not with the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# modules, not names: the tracer replaces module attributes
from condenser_widths import balayage, cli
from condenser_widths.geometry import Condenser
from condenser_widths.measure import DiscreteMeasure

LOG_GOLDEN = math.log((1.0 + math.sqrt(5.0)) / 2.0)
CELLS = 4096   # balayage target cells
ATOMS = 4096   # atoms per balayage input
PROBES = 64    # seeded evaluation points per potential check

OFFSET = {"e": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
          "gamma": {"kind": "circle", "center": [1.0, 0.0], "radius": 3.0}}
LEVEL = {"e": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
         "gamma": {"kind": "circle", "center": [0.0, 0.0], "radius": math.e}}

SWEEP_THETAS = [round(0.05 * i, 10) for i in range(21)]

# name -> list of (operation name, CLI task, config); the seed goes on the command line
CLI_WORKLOADS = {
    "sweep-offset": [
        ("sweep", "sweep", {"condenser": OFFSET, "thetas": SWEEP_THETAS,
                            "n_points": 160, "grid_n": 4096}),
    ],
    "equilibrium-fine": [
        ("theta0.05", "equilibrium", {"condenser": OFFSET, "theta": 0.05,
                                      "n_points": 1024, "grid_n": 16384}),
        ("theta0.1", "equilibrium", {"condenser": OFFSET, "theta": 0.1,
                                     "n_points": 1024, "grid_n": 16384}),
    ],
    "chi": [
        ("asymptotic_pair-n256", "chi", {"condenser": LEVEL, "n": 256, "k": 128,
                                         "method": "asymptotic_pair"}),
        ("bruteforce-n6-k3", "chi", {"condenser": LEVEL, "n": 6, "k": 3,
                                     "method": "bruteforce"}),
        ("bruteforce-offset-n5-k5", "chi", {"condenser": OFFSET, "n": 5, "k": 5,
                                            "method": "bruteforce"}),
    ],
}
WORKLOADS = ("sweep-offset", "equilibrium-fine", "chi", "balayage")


@dataclass
class Operation:
    """One timed call; ``check`` turns its raw output into (name, ok, value) items."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    out_dir: Path | None = None   # where a CLI operation writes its files


def _item(name, value, ok):
    return (name, bool(ok), float(value))


# ---------------------------------------------------------------------------
# inputs (written by the parent process before set-up)


def make_inputs(workload: str, seed: int, workdir: Path):
    if workload in CLI_WORKLOADS:
        for op_name, task, cfg in CLI_WORKLOADS[workload]:
            (workdir / f"{op_name}.json").write_text(json.dumps(cfg, indent=1))
        return
    rng = np.random.default_rng(seed)

    def weights():
        w = rng.uniform(0.5, 1.5, ATOMS)
        return w / w.sum()

    def annulus(center, r0, r1):
        r = np.sqrt(rng.uniform(r0 * r0, r1 * r1, ATOMS))  # uniform in area
        return center + r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, ATOMS))

    def disk_probes(center, radius):
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, PROBES))
        return center + r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, PROBES))

    phase = rng.uniform(0.0, 1.0)
    np.savez(
        workdir / "balayage.npz",
        uniform_pts=math.e * np.exp(2j * np.pi * (np.arange(ATOMS) + phase) / ATOMS),
        cloud_e_pts=annulus(0.0, 1.1, 3.0), cloud_e_w=weights(),
        cloud_g_pts=annulus(1.0, 3.3, 6.0), cloud_g_w=weights(),
        zeros=0.9 * np.sqrt(rng.uniform(0.0, 1.0, ATOMS))
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, ATOMS)),
        # potential probes at least 0.3 inside each target circle, and on Gamma
        probes_e=disk_probes(0.0, 0.7),
        probes_g=disk_probes(1.0, 2.7),
        probes_curve=1.0 + 3.0 * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, PROBES)),
    )


# ---------------------------------------------------------------------------
# set-up: load the configs and validate each condenser once


def load(workload: str, workdir: Path, seed: int):
    """Set-up; returns the state the balayage operations read (None for CLI
    workloads, whose operations read their configs themselves)."""
    if workload in CLI_WORKLOADS:
        validated = set()
        for op_name, task, _ in CLI_WORKLOADS[workload]:
            cfg = cli.load_config(str(workdir / f"{op_name}.json"),
                                  {"task": task, "seed": seed,
                                   "out": str(workdir / "out" / op_name)})
            key = json.dumps(cfg.condenser.to_json_dict())
            if key not in validated:
                validated.add(key)
                # the same sample count the CLI validates with
                cfg.condenser.validate(samples=max(512, min(cfg.grid_n, 4096)))
        return None
    with np.load(workdir / "balayage.npz") as data:
        state = {k: data[k] for k in data.files}
    state["offset"] = Condenser.from_json_dict(OFFSET).validate()
    state["uniform"] = DiscreteMeasure(state["uniform_pts"], np.full(ATOMS, 1.0 / ATOMS))
    state["cloud_e"] = DiscreteMeasure(state["cloud_e_pts"], state["cloud_e_w"])
    state["cloud_g"] = DiscreteMeasure(state["cloud_g_pts"], state["cloud_g_w"])
    return state


# ---------------------------------------------------------------------------
# operations


def operations(workload: str, workdir: Path, seed: int, state) -> list:
    if workload in CLI_WORKLOADS:
        return _cli_operations(workload, workdir, seed)
    return _balayage_operations(state)


def _cli_operations(workload, workdir, seed):
    ops = []
    for op_name, task, _ in CLI_WORKLOADS[workload]:
        out = workdir / "out" / op_name
        argv = [task, "--config", str(workdir / f"{op_name}.json"),
                "--seed", str(seed), "--out", str(out)]
        check = CLI_CHECKS[workload](op_name, workdir / "out")
        ops.append(Operation(op_name, lambda argv=argv: cli.main(argv), check, out))
    return ops


def _cli_payload(rc, out_dir: Path):
    if rc != 0:
        raise RuntimeError(f"CLI exit code {rc}")
    return json.loads((out_dir / "result.json").read_text())["payload"]


def _sweep_checks(op_name, out_root):
    def check(rc):
        p = _cli_payload(rc, out_root / op_name)
        cap_exact = 1.0 / (2.0 * LOG_GOLDEN)  # Moebius modulus of the offset pair
        m, mhat = p["m_theta_field"], p["m_hat_theta"]
        return [
            _item("cap_condenser_error", abs(p["cap_condenser"] - cap_exact),
                  abs(p["cap_condenser"] - cap_exact) <= 1e-3),
            _item("m0", m[0], abs(m[0]) <= 1e-12 and abs(p["m_theta_energy"][0]) <= 1e-12),
            _item("m1_error", m[-1] + math.log(4.0), abs(m[-1] + math.log(4.0)) <= 1e-6),
            _item("mhat1", mhat[-1], abs(mhat[-1]) <= 1e-12),
            _item("monotone", p["monotone_m"] and p["monotone_m_hat"],
                  p["monotone_m"] and p["monotone_m_hat"]),
            _item("integral_residual", p["integral_check_residual"],
                  p["integral_check_residual"] < 0.1 * math.log(4.0)),
            _item("fragmented_thetas", sum(len(a) > 1 for a in p["support_arcs"]), True),
            _item("max_arcs", max(len(a) for a in p["support_arcs"]), True),
        ]
    return check


def _equilibrium_checks(op_name, out_root):
    def check(rc):
        p = _cli_payload(rc, out_root / op_name)
        theta = p["theta"]
        lam = math.fsum(p["lambda_n"]["weights"])
        mu = math.fsum(p["mu_n"]["weights"])
        items = [
            _item("lambda_mass_error", lam - (1.0 - theta), abs(lam - (1.0 - theta)) <= 1e-12),
            _item("mu_mass_error", mu - theta, abs(mu - theta) <= 1e-12),
            _item("two_route", p["residuals"]["two_route"], p["residuals"]["two_route"] <= 0.03),
        ]
        if op_name == "theta0.1":
            # Richardson slope of m at 0 against -1/cap = -2 log golden
            m05 = _cli_payload(0, out_root / "theta0.05")["m_theta_field"]
            slope = 2.0 * m05 / 0.05 - p["m_theta_field"] / 0.1
            rel = abs(slope / (-2.0 * LOG_GOLDEN) - 1.0)
            items.append(_item("slope_rel_error", rel, rel <= 0.05))
        return items
    return check


def _chi_checks(op_name, out_root):
    def check(rc):
        chi = _cli_payload(rc, out_root / op_name)["chi"]
        lo, up = chi["chi_lower"], chi["chi_upper"]
        items = [_item("sandwich", up - lo, lo <= up)]
        if op_name == "asymptotic_pair-n256":
            # level-curve pair: m(1/2) = -1/2
            err = chi["log_rate_upper"] + 0.5
            items.append(_item("log_rate_error", err, abs(err) <= 0.1))
        elif op_name == "bruteforce-n6-k3":
            # Bernstein-Walsh on the degree-6 product caps the ratio below by
            # e^-6; the factor 1/2 leaves room for the scan grids
            items.append(_item("range", lo, math.exp(-6) / 2 <= lo <= up <= 1.0))
        else:
            # full mass on the plate: p = z^5, ||z^5||_Gamma = 4^5
            rel = up * 4.0 ** 5 - 1.0
            items.append(_item("rel_error_4^-5", rel, abs(rel) <= 0.01))
        return items
    return check


CLI_CHECKS = {"sweep-offset": _sweep_checks, "equilibrium-fine": _equilibrium_checks,
              "chi": _chi_checks}


# ---------------------------------------------------------------------------
# balayage


def _log_pot(points, weights, z):
    """U(z) = -sum_i w_i log|z - x_i|, evaluated directly."""
    return -np.log(np.abs(z[:, None] - points[None, :])) @ weights


def _identity_items(swept: DiscreteMeasure, source: DiscreteMeasure, probes, shift):
    mass_err = abs(swept.total_mass - source.total_mass)
    resid = np.max(np.abs(_log_pot(swept.points, swept.weights, probes)
                          - _log_pot(source.points, source.weights, probes) - shift))
    return [_item("mass_error", mass_err, mass_err <= 1e-12),
            _item("potential_residual", resid, resid <= 1e-6)]


def _balayage_operations(st):
    e_plate = st["offset"].e_domain
    gamma = st["offset"].gamma
    zeros = st["zeros"]

    def check_uniform(res):
        spread = float(np.max(np.abs(res.swept.weights - 1.0 / CELLS)))
        return (_identity_items(res.swept, st["uniform"], st["probes_e"], res.shift_constant)
                + [_item("uniform_spread", spread,
                         len(res.swept) == CELLS and spread <= 1e-6)])

    def check_cloud_e(res):
        return _identity_items(res.swept, st["cloud_e"], st["probes_e"], res.shift_constant)

    def check_cloud_g(res):
        return _identity_items(res.swept, st["cloud_g"], st["probes_g"], res.shift_constant)

    def check_zeros(res):
        alpha, beta = res
        source = DiscreteMeasure(zeros, np.full(ATOMS, 1.0 / ATOMS))
        # sweeping out of the plate leaves the potential unchanged outside it
        items = _identity_items(alpha, source, st["probes_curve"], 0.0)
        return items + [_item("beta_mass", beta.total_mass, beta.is_zero)]

    def sweep(fn, measure, target):
        return lambda: fn(st[measure], target, CELLS)

    return [
        Operation("uniform_to_E", sweep(balayage.balayage_to_E, "uniform", e_plate),
                  check_uniform),
        Operation("cloud_to_E", sweep(balayage.balayage_to_E, "cloud_e", e_plate),
                  check_cloud_e),
        Operation("cloud_to_gamma", sweep(balayage.balayage_to_gamma, "cloud_g", gamma),
                  check_cloud_g),
        Operation("zeros_alpha_beta",
                  lambda: balayage.counting_alpha_beta(zeros, [], st["offset"],
                                                       ATOMS, ATOMS, CELLS),
                  check_zeros),
    ]
