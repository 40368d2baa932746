"""Schema-driven fuzz of the CLI's exit-code contract.

Every field of RunConfig (dataclasses.fields) and of the condenser schema
takes wrong types, boundary values and extreme magnitudes on a 16/256 base
config, and each drawn config runs in-process through cli.main under all six
tasks.  Every run must exit 0, 2 or 3; on exit 0 with json among the formats,
result.json must parse with NaN and Infinity rejected.

The draws are a fixed list, so the test is deterministic.  No draw makes an
admitted run larger than its base: the size fields (n, k, n_points, grid_n,
restarts) take only boundary values at or below the base, or magnitudes that
the allocation cap or the chi budget reject before any work.  out is never
drawn: every run writes under tmp_path.
"""

import json
import warnings
from dataclasses import fields

import pytest

from condenser_widths.cli import TASKS, RunConfig, main

NAN, INF = float("nan"), float("inf")
HUGE = 2 ** 62  # over the allocation cap in any size field that allocates

DISK = {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0}
SEGMENT = {"kind": "segment", "a": -1.0, "b": 1.0}
CIRCLE = {"kind": "circle", "center": [1.0, 0.0], "radius": 3.0}
ELLIPSE = {"kind": "ellipse", "center": [0.0, 0.0], "semi_axes": [2.0, 1.5], "rotation": 0.3}
POLAR = {"kind": "polar", "center": [0.0, 0.0], "angles": [0, 1.5, 3, 4.5],
         "radii": [2.5, 3.2, 2.2, 3.0]}

BASE = {"condenser": {"e": DISK, "gamma": CIRCLE}, "theta": 0.5, "thetas": [0, 0.5, 1],
        "n": 2, "k": 1, "n_points": 16, "grid_n": 256, "restarts": 2, "seed": 0,
        "threads": 1, "formats": ["json"], "fixtures": False, "method": "auto"}

# values drawn for each RunConfig field; the sizes stay at or below the base
# or are rejected outright (restarts past the budget exit 3 before a start)
RUN_FIELDS = {
    "task": ["frobnicate", None, 5],
    "theta": [0, 1, 0.0, -0.0, 5e-324, 1 - 2 ** -53, -5e-324, 1.0000001, 1e308, NAN, INF,
              "0.5", None, True, [0.5]],
    "thetas": [[0, 1], [0, 5e-324, 1], [0, 1 - 2 ** -53, 1], [1], [], [0.5, 0.5], [0, NAN],
               [0, "a"], "x", None, [True, 1], [-1e308, 1e308]],
    "n": [1, 0, -1, HUGE, 10 ** 300, "4", 4.0, True, None],
    "k": [0, 2, 3, -1, HUGE, "2", 2.5, False, None],
    "n_points": [2, 3, 1, 0, -16, HUGE, "16", 16.0, None, True],
    "grid_n": [64, 4, 3, 63, 0, -256, HUGE, 2 ** 31, 256.0, "256", None],
    "restarts": [0, -1, -HUGE, 10 ** 9, HUGE, "2", 2.5, None, True],
    "seed": [None, 1, 2 ** 32 - 1, 2 ** 64, -1, "0", 1.5, True],
    "threads": [0, -1, HUGE, "1", 1.5, None],
    "formats": [["csv"], [], ["json", "csv"], ["csv", "csv"], ["xml"], "json", [1], None],
    "fixtures": [True, 1, "yes", None, []],
    "method": ["bruteforce", "asymptotic_pair", "newton", "", None, 5, ["auto"]],
}

# values drawn for each field of the condenser schema, on a base condenser
# whose kinds carry the field
CONDENSER_FIELDS = [
    ("e", DISK, "kind", ["segment", "square", None, 5]),
    ("e", DISK, "center", [[0.5, -0.5], [1e308, 0.0], [0.0], [0, 0, 0], [NAN, 0.0],
                           [5e-324, -5e-324], "00", None]),
    ("e", DISK, "radius", [2.0, 2.5, 1e-300, 1e-200, 1e300, 0.0, -1.0, NAN, INF, "1", None,
                           True]),
    ("e", SEGMENT, "a", [1.0, 0.999, -2.5, -1e300, 1e-300, NAN, -INF, "a", None]),
    ("e", SEGMENT, "b", [-1.0, -0.999, 2.5, 1e300, NAN, INF, "b", None]),
    ("gamma", CIRCLE, "kind", ["ellipse", "polar", "spiral", None]),
    ("gamma", CIRCLE, "center", [[0.0, 0.0], [2.0, 0.0], [1e308, 1e308], [1.0], [INF, 0.0],
                                 None]),
    ("gamma", CIRCLE, "radius", [1.0, 2.0, 1.0000001, 1e300, 1e-300, 0.0, -3.0, NAN, INF, "3",
                                 None]),
    ("gamma", ELLIPSE, "semi_axes", [[1.5, 2.0], [1e300, 1.5], [2.0, 1.0], [2.0, 0.0], [1.5],
                                     [2.0, 1.5, 1.0], [NAN, 1.5], "ab", None]),
    ("gamma", ELLIPSE, "rotation", [0.0, -10.0, 1e300, NAN, INF, "x", None]),
    ("gamma", POLAR, "angles", [[0, 1.5, 3, 6.28], [0, 1, 2, 10], [4.5, 3, 1.5, 0], [0, 0, 0, 0],
                                [0], [], [0, 1.5, NAN, 4.5], "x", None]),
    ("gamma", POLAR, "radii", [[1e300, 3, 3, 3], [3, 3, 3, 3], [1.0, 1.0, 1.0, 1.0],
                               [0, 3, 3, 3], [-3, 3, 3, 3], [3, 3, 3], [3, NAN, 3, 3], "x",
                               None]),
]


def drawn_configs():
    """(id, config) for every drawn value of every field."""
    names = {f.name for f in fields(RunConfig)}
    # every RunConfig field is drawn except out, which stays under tmp_path;
    # the condenser field is drawn through its schema below
    assert set(RUN_FIELDS) | {"out", "condenser"} == names
    for name, values in RUN_FIELDS.items():
        for i, val in enumerate(values):
            yield f"{name}-{i}", {**BASE, name: val}
    for side, base, key, values in CONDENSER_FIELDS:
        for i, val in enumerate(values):
            cond = {"e": DISK, "gamma": CIRCLE, side: {**base, key: val}}
            yield f"{side}.{base['kind']}.{key}-{i}", {**BASE, "condenser": cond}


CONFIGS = list(drawn_configs())


def test_every_drawn_config_keeps_the_exit_code_contract(tmp_path, capsys):
    codes = set()
    for ident, cfg in CONFIGS:
        path = tmp_path / f"{ident}.json"
        path.write_text(json.dumps(cfg))  # NaN and Infinity are written as such
        for task in TASKS:
            out = tmp_path / ident / task
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    rc = main([task, "--config", str(path), "--out", str(out)])
                except Exception as exc:  # the console script would exit 1
                    pytest.fail(f"{ident} under {task} raised {exc!r}")
            capsys.readouterr()
            codes.add(rc)
            assert rc in (0, 2, 3), (ident, task, rc)
            formats = cfg["formats"]
            if rc == 0 and isinstance(formats, list) and "json" in formats:
                text = (out / "result.json").read_text()
                json.loads(text, parse_constant=_reject_constant)
    # the draws reach every exit code
    assert codes == {0, 2, 3}


def _reject_constant(name):
    raise AssertionError(f"result.json holds {name}")
