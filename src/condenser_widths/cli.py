"""Batch driver: JSON config in, result/manifest files out.

    condenser-widths <task> --config cfg.json [--seed S] [--threads T] [--out DIR]

Tasks: equilibrium, sweep, chi, nwidth, balayage-demo, validate; chi and nwidth
both estimate chi through extremal.chi_estimate.  Exit codes: 0 success, 2
validation failure (config, geometry, grid knobs, a planned allocation over
MAX_ARRAY_ENTRIES, an out that names a file, any other package error, a
payload holding a NaN or infinite float, which writes no file), 3 numeric
budget failure (BudgetExceeded).  Library argument errors are package errors
(errors.InvalidArgument), so the CLI checks only types, sizes, seeds, formats,
the allocation cap, theta in [0, 1] and 16 slots per Fekete atom.  result.json
is byte-identical across reruns with the same config and seed; wall time lives
only in manifest.json.  --threads and the threads config field are accepted
and echoed but have no effect.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field as dc_field, fields, replace as dc_replace
from pathlib import Path

import numpy as np

from . import __version__
from .balayage import _SWEEP_BLOCK, balayage_to_E, balayage_to_gamma, counting_alpha_beta
from .equilibrium import (_theta_stage, equilibrium_result, exchange_allocation, fekete_green,
                          m_hat_theta, m_theta, theta_sweep)
from .errors import BudgetExceeded, CondenserWidthsError, ConfigError, GeometryValidationError
from .extremal import chi_allocation, chi_estimate
from .geometry import Condenser, boundary_samples, green_kernel, log_capacity, phi_exterior
from .measure import DiscreteMeasure, log_potential, nearest_atom_distance, to_json
from .nwidth import g_theta_field, width_rate_predict

SCHEMA_VERSION = 1
TASKS = ("equilibrium", "sweep", "chi", "nwidth", "balayage-demo", "validate")
SWEEP_MAX_POINTS = 160  # a sweep's Fekete stages take min(n_points, this) atoms
SMOKE_POINTS = 32  # validate's Fekete smoke stage takes min(n_points, this) atoms
# the largest allocation a config may plan, in float64 entries (256 MiB): over
# 15 times the largest plan of the benchmark's runs, chi's 1024 x 2112 scorer
# matrix
MAX_ARRAY_ENTRIES = 2 ** 25


@dataclass
class RunConfig:
    condenser: Condenser
    task: str
    theta: float = 0.5
    thetas: list = dc_field(default_factory=lambda: [round(0.05 * i, 10) for i in range(21)])
    n: int = 4
    k: int = 2
    n_points: int = 256
    grid_n: int = 4096
    restarts: int = 2
    seed: int | None = None
    threads: int = 1
    out: str = "."
    formats: list = dc_field(default_factory=lambda: ["json"])
    fixtures: bool = False
    method: str = "auto"  # chi and nwidth tasks: one of extremal.CHI_METHODS

    def echo(self):
        return {k: v for k, v in to_json(self).items() if k not in ("out", "fixtures")}


def load_config(path: str, overrides: dict) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "condenser" not in raw:
        raise ConfigError("config is missing the 'condenser' section")
    try:
        cond = Condenser.from_json_dict(raw["condenser"])
    except (KeyError, TypeError, IndexError, ValueError, GeometryValidationError) as exc:
        raise ConfigError(f"malformed condenser section: {exc}") from exc

    cfg = RunConfig(condenser=cond, task=raw.get("task", overrides.get("task", "")))
    for f in fields(RunConfig):
        if f.name in raw and f.name != "condenser":
            setattr(cfg, f.name, raw[f.name])
    for name, val in overrides.items():
        if val is not None:
            setattr(cfg, name, val)
    _check_types(cfg)
    if "k" not in raw and "n" in raw and "theta" in raw:
        cfg.k = int(round(cfg.theta * cfg.n))  # theta-ratio shorthand
    _validate_config(cfg)
    return cfg


def _check_types(cfg: RunConfig):
    """Reject mistyped fields and non-finite thetas up front, so they fail as
    ConfigError."""
    def bad(val, types):
        return isinstance(val, bool) or not isinstance(val, types)

    for name in ("n", "k", "n_points", "grid_n", "restarts", "threads", "seed"):
        val = getattr(cfg, name)
        if bad(val, int) and not (name == "seed" and val is None):
            raise ConfigError(f"{name} must be an integer, got {val!r}")
    if not isinstance(cfg.thetas, list):
        raise ConfigError(f"thetas must be a list of numbers, got {cfg.thetas!r}")
    for val in [cfg.theta, *cfg.thetas]:
        if bad(val, (int, float)):
            raise ConfigError(f"theta values must be numbers, got {val!r}")
        if isinstance(val, float) and not np.isfinite(val):
            raise ConfigError(f"theta values must be finite, got {val!r}")
    if not (isinstance(cfg.formats, list) and all(isinstance(f, str) for f in cfg.formats)):
        raise ConfigError(f"formats must be a list of strings, got {cfg.formats!r}")
    for name in ("out", "method"):
        if not isinstance(getattr(cfg, name), str):
            raise ConfigError(f"{name} must be a string, got {getattr(cfg, name)!r}")
    if not isinstance(cfg.fixtures, bool):
        raise ConfigError(f"fixtures must be true or false, got {cfg.fixtures!r}")


def _validate_config(cfg: RunConfig):
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}; choose one of {TASKS}")
    if not 0.0 <= cfg.theta <= 1.0:
        raise ConfigError("theta must lie in [0, 1]")
    if cfg.n_points < 2:
        raise ConfigError("n_points must be >= 2")
    if cfg.grid_n < 4:
        raise ConfigError("grid_n must be >= 4")
    if cfg.task != "validate":
        # the validate task runs with any grid so coarse-grid failures are
        # surfaced as suite items rather than rejected up front
        if cfg.grid_n < 64:
            raise ConfigError("grid_n must be >= 64")
        atoms = min(cfg.n_points, SWEEP_MAX_POINTS) if cfg.task == "sweep" else cfg.n_points
        if cfg.task in ("equilibrium", "sweep", "nwidth") and cfg.grid_n < 16 * atoms:
            raise ConfigError(f"grid_n = {cfg.grid_n} too coarse for {atoms} atoms "
                              f"(need grid_n >= 16 * {atoms})")
    if cfg.n < 1:
        raise ConfigError("n must be >= 1")
    if not 0 <= cfg.k <= cfg.n:
        raise ConfigError("need 0 <= k <= n")
    if cfg.task == "chi" and cfg.seed is None:
        raise ConfigError("chi task requires an explicit seed")
    if cfg.seed is not None and cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if not set(cfg.formats) <= {"json", "csv"}:
        raise ConfigError("formats must be a subset of {json, csv}")
    size = largest_allocation(cfg)
    if size > MAX_ARRAY_ENTRIES:
        raise ConfigError(f"the {cfg.task} task would allocate {size} float64 entries at once, "
                          f"over the cap of {MAX_ARRAY_ENTRIES}; lower grid_n, n_points or n")


def largest_allocation(cfg: RunConfig) -> int:
    """Float64 entries of the largest allocation cfg's task plans, from
    grid_n, n_points, n and k, counted before anything is allocated:

      - the complex curve and plate grids of every task, 2 grid_n;
      - a Fekete stage's exchange run, equilibrium.exchange_allocation: its
        window store of about 12 grid_n entries (atoms x the window) or its
        fill block of about measure._CHUNK_ENTRIES;
      - chi's and nwidth's chi estimate, extremal.chi_allocation: the
        equilibrium pair's exchange run and Leja grid, the scorer's
        largest candidate x eval matrix and the descents' log columns;
      - balayage-demo's sweep buffers, complex points and float angles on
        min(_SWEEP_BLOCK, k) rows of grid_n + 1 cells.  These are the
        direct arctan2 path's; the power-series path needs about 2 grid_n
        complex values, so they bound both paths.
    """
    g = cfg.grid_n
    atoms = {"equilibrium": cfg.n_points, "nwidth": cfg.n_points,
             "sweep": min(cfg.n_points, SWEEP_MAX_POINTS),
             "validate": min(cfg.n_points, SMOKE_POINTS)}.get(cfg.task, 0)
    sizes = [2 * g, exchange_allocation(atoms, g) if atoms else 0]
    if cfg.task in ("chi", "nwidth"):
        sizes.append(chi_allocation(cfg.n, cfg.k, g))
    if cfg.task == "balayage-demo":
        sizes.append(3 * max(1, min(_SWEEP_BLOCK, cfg.k)) * (g + 1))
    return max(sizes)


# ---------------------------------------------------------------------------
# tasks


def _task_equilibrium(cfg: RunConfig):
    res = equilibrium_result(cfg.condenser, cfg.theta, cfg.n_points, cfg.grid_n,
                             seed=cfg.seed or 0)
    return to_json(res), []


def _task_sweep(cfg: RunConfig):
    rep = theta_sweep(cfg.condenser, cfg.thetas, n_points=min(cfg.n_points, SWEEP_MAX_POINTS),
                      grid_n=cfg.grid_n, seed=cfg.seed or 0)
    csv_files = []
    if "csv" in cfg.formats:
        csv_files.append(("sweep.csv", rep.csv_rows()))
    return to_json(rep), csv_files


def _task_chi(cfg: RunConfig):
    return {"chi": to_json(chi_estimate(cfg.condenser, cfg.n, cfg.k, cfg.method, cfg.grid_n,
                                        cfg.restarts, cfg.seed))}, []


def _task_nwidth(cfg: RunConfig):
    # chi_estimate checks the method before any work, so it runs first; field.csv
    # draws the stage's lambda_n, so the stage runs once, here
    est = chi_estimate(cfg.condenser, cfg.n, cfg.k, cfg.method, cfg.grid_n, cfg.restarts,
                       cfg.seed or 0)
    stage = (_theta_stage(cfg.condenser, cfg.theta, cfg.n_points, cfg.grid_n, cfg.seed or 0)
             if "csv" in cfg.formats else None)
    rep = width_rate_predict(cfg.condenser, cfg.theta, cfg.n_points, cfg.grid_n,
                             seed=cfg.seed or 0, stage=stage)
    rep = dc_replace(rep, chi_lower_bounds=[(cfg.n, cfg.k, est.log_rate_lower)])
    csv_files = []
    if stage is not None:
        lam = stage.lam
        xs = np.linspace(-4.0, 4.0, 41)
        grid = np.array([complex(x, y) for y in xs for x in xs])
        if not lam.is_zero:
            grid = grid[nearest_atom_distance(lam, grid) >= 1e-2]
        fg = g_theta_field(cfg.condenser, lam, grid)
        rows = [("x", "y", "value")]
        rows += [(repr(z.real), repr(z.imag), repr(v))
                 for z, v in zip(fg.grid_points.tolist(), fg.values.tolist())]
        csv_files.append(("field.csv", rows))
    return to_json(rep), csv_files


def _task_balayage_demo(cfg: RunConfig):
    c = cfg.condenser
    e = c.e_domain
    payload = {}
    if e.kind == "disk":
        src = DiscreteMeasure.atom(e.center + 2.0 * e.radius, 1.0)
        res = balayage_to_E(src, e, cfg.grid_n)
        zs = boundary_samples(e, 7)[::2] * 0.5 + e.center * 0.5
        resid = max(abs(log_potential(res.swept, z)
                        - log_potential(src, z) - res.shift_constant) for z in zs)
        payload["to_plate"] = {"result": to_json(res),
                               "mass": res.swept.total_mass,
                               "identity_residual": resid}
    if c.gamma.kind == "circle":
        src_g = DiscreteMeasure.atom(c.gamma.center + 2.0 * c.gamma.radius, 1.0)
        res_g = balayage_to_gamma(src_g, c.gamma, cfg.grid_n)
        z0 = c.gamma.center
        resid_g = abs(log_potential(res_g.swept, z0)
                      - log_potential(src_g, z0) - res_g.shift_constant)
        payload["to_curve"] = {"result": to_json(res_g),
                               "mass": res_g.swept.total_mass,
                               "identity_residual": resid_g}
    alpha, beta = counting_alpha_beta([e.center] * cfg.k if e.kind == "disk" else [],
                                      [], c, cfg.n, cfg.k, cfg.grid_n)
    payload["alpha_mass"] = alpha.total_mass
    payload["beta_mass"] = beta.total_mass
    return payload, []


def _task_validate(cfg: RunConfig):
    """Fast invariant suite; every item prints a pass/fail line."""
    c = cfg.condenser
    items = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except CondenserWidthsError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        items.append({"name": name, "pass": bool(ok), "detail": detail})

    def kernel_symmetry():
        rng = np.random.default_rng(0)
        e = c.e_domain
        scale = 3.0 * (e.radius if e.kind == "disk" else (e.b - e.a))
        asym = dev = 0.0
        for _ in range(200):
            z, t = (complex(*rng.uniform(-scale, scale, 2)) for _ in range(2))
            if abs(z - t) < 1e-6:
                continue
            g = green_kernel(e, z, t)
            asym = max(asym, abs(g - green_kernel(e, t, z)))
            # the one-log kernel is symmetric by construction: check the two-log form
            pz, pt = complex(phi_exterior(e, z)), complex(phi_exterior(e, t))
            two_log = (0.0 if min(abs(pz), abs(pt)) <= 1.0 else
                       np.log(abs(1.0 - pz * pt.conjugate())) - np.log(abs(pz - pt)))
            dev = max(dev, abs(g - two_log))
        return (asym <= 1e-12 and dev <= 1e-12,
                f"max asymmetry {asym:.2e}, max deviation from the two-log form {dev:.2e}")

    def balayage_identity():
        if c.e_domain.kind != "disk":
            return True, "skipped for segment plate"
        e = c.e_domain
        src = DiscreteMeasure.atom(e.center + 2.0 * e.radius, 1.0)
        res = balayage_to_E(src, e, max(cfg.grid_n, 1024))
        z = e.center
        resid = abs(log_potential(res.swept, z) - log_potential(src, z) - res.shift_constant)
        mass = abs(res.swept.total_mass - 1.0)
        return resid <= 1e-6 and mass <= 1e-12, f"residual {resid:.2e}, mass error {mass:.2e}"

    def m0_pin():
        m_e, m_f = m_theta(c, 0.0, cfg.n_points, cfg.grid_n)
        return abs(m_e) <= 1e-3 and abs(m_f) <= 1e-3, f"m_0 = ({m_e:.2e}, {m_f:.2e})"

    def theta1_pins():
        m_e, m_f = m_theta(c, 1.0, cfg.n_points, cfg.grid_n)
        mhat = m_hat_theta(c, DiscreteMeasure.zero())
        want = -np.log(log_capacity(c.e_domain))
        return (abs(m_e - m_f) <= 1e-15 and abs(mhat - want) <= 1e-15,
                f"m_1 = {m_f:.6f}, mhat_1 = {mhat:.6f}")

    def fekete_smoke():
        lam = fekete_green(c, 0.5, min(cfg.n_points, SMOKE_POINTS), cfg.grid_n,
                           seed=cfg.seed or 0)
        return abs(lam.total_mass - 0.5) <= 1e-9, f"mass {lam.total_mass!r}"

    check("green kernel symmetry", kernel_symmetry)
    check("balayage potential identity", balayage_identity)
    check("m_0 = 0 pin", m0_pin)
    check("theta = 1 pins", theta1_pins)
    check("fekete stage runs", fekete_smoke)

    for item in items:
        status = "PASS" if item["pass"] else "FAIL"
        print(f"[{status}] {item['name']}: {item['detail']}")
    return {"items": items, "all_pass": all(i["pass"] for i in items)}, []


# ---------------------------------------------------------------------------
# runner


def _stable_dumps(obj) -> str:
    """Strict JSON: a NaN or infinite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def run(cfg: RunConfig) -> int:
    outdir = Path(cfg.out)
    t0 = time.perf_counter()
    try:
        cfg.condenser = cfg.condenser.validate(samples=max(512, min(cfg.grid_n, 4096)))
        task_fn = {"equilibrium": _task_equilibrium, "sweep": _task_sweep,
                   "chi": _task_chi, "nwidth": _task_nwidth,
                   "balayage-demo": _task_balayage_demo,
                   "validate": _task_validate}[cfg.task]
        payload, csv_files = task_fn(cfg)
    except BudgetExceeded as exc:
        print(f"numeric budget failure: {exc}", file=sys.stderr)
        return 3
    except CondenserWidthsError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2

    try:
        result = _stable_dumps({"schema_version": SCHEMA_VERSION, "task": cfg.task,
                                "payload": payload})
    except ValueError as exc:
        print(f"validation failure: the result holds a non-finite value ({exc}), as when "
              f"|phi|^2 overflows on a curve far from a small plate", file=sys.stderr)
        return 2
    # out is made only for a run that writes its files, so a failed run leaves none
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    if "json" in cfg.formats:
        (outdir / "result.json").write_text(result + "\n")
    for name, rows in csv_files:
        with open(outdir / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    if cfg.fixtures and cfg.task == "chi":
        fixdir = outdir / "fixtures"
        fixdir.mkdir(exist_ok=True)
        fixture = {"inputs": cfg.echo(), "seed": cfg.seed,
                   "chi_upper": payload["chi"]["chi_upper"],
                   "chi_lower": payload["chi"]["chi_lower"]}
        (fixdir / f"chi_n{cfg.n}_k{cfg.k}_seed{cfg.seed}.json").write_text(
            _stable_dumps(fixture) + "\n")
    manifest = {"schema_version": SCHEMA_VERSION, "config": cfg.echo(),
                "package_version": __version__, "numpy_version": np.__version__,
                "python_version": sys.version.split()[0], "seed": cfg.seed,
                "wall_time_s": time.perf_counter() - t0}
    (outdir / "manifest.json").write_text(_stable_dumps(manifest) + "\n")

    if cfg.task == "validate" and not payload["all_pass"]:
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="condenser-widths", description=__doc__)
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility and echoed; has no effect")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--fixtures", action="store_true",
                        help="chi task: also record a regression fixture block")
    args = parser.parse_args(argv)
    overrides = {"task": args.task, "seed": args.seed, "threads": args.threads,
                 "out": args.out}
    if args.fixtures:
        overrides["fixtures"] = True
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
