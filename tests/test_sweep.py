"""A seeded sweep of configs around the golden one, each setting drawn at, past
and inside the bounds its config field declares (``config._bounded``).

The default run draws 24 configs; ``pytest -m sweep tests/test_sweep.py`` runs
the larger draw.
"""

import copy
import json
import shutil
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from chaoscast import cli
from chaoscast.config import BOUND_OPS, PipelineConfig
from test_pipeline import GOLDEN_CONFIG, _tree, _write_config

GOLDEN = PipelineConfig.from_dict(GOLDEN_CONFIG)
STATIONS = {"a": ["wet", "s00"], "b": ["wet", "s09"], "c": ["wet", "s18"], "d": ["wet", "s27"]}
N_REPRODUCED = 3  # configs that exit 0 and are rerun into a fresh directory


def _bounded_settings():
    """(section or None, field) of each config field that declares a bound."""
    for f in fields(GOLDEN):
        value = getattr(GOLDEN, f.name)
        for section, g in ([(f.name, g) for g in fields(value)] if is_dataclass(value)
                           else [(None, f)]):
            if g.metadata.get("bounds"):
                yield section, g


BOUNDED = list(_bounded_settings())


def _golden_value(section, name):
    return getattr(GOLDEN if section is None else getattr(GOLDEN, section), name)


def _meets(f, item) -> bool:
    return all(BOUND_OPS[op](item, limit) for op, limit in f.metadata["bounds"])


def _draw_item(rng, f, golden, where):
    """One value of the field's item type at, past or inside its bounds; a side
    without a bound stays within twice the golden value (or 4 above the other
    bound, where the golden value is 0 or None), so no run is larger than twice
    the golden run."""
    bounds = dict(f.metadata["bounds"])  # a field has at most one bound per op
    op = rng.choice(sorted(bounds))
    if op == "one of":
        allowed = bounds[op]
        if where == "past":
            return "bogus" if isinstance(allowed[0], str) else max(allowed) + 1
        return rng.choice(allowed).item()
    if op == "of length":
        return ["wet", "s05", "x"][:bounds[op] + (rng.choice([-1, 1]) if where == "past" else 0)]
    is_int = f.type.removesuffix(" | None").removeprefix("list[").startswith("int")
    if where == "at":
        return bounds[op]
    if where == "past":
        step = 1 if is_int else abs(bounds[op]) * 1e-9 + 1e-12
        return bounds[op] - step if op in (">=", ">") else bounds[op] + step
    low = bounds.get(">=", bounds.get(">", 0))
    high = bounds.get("<=", bounds.get("<", 2 * golden if golden else low + 4))
    if is_int:
        return int(rng.integers(low + (">" in bounds), high - ("<" in bounds) + 1))
    return float(rng.uniform(low, high))


def _draw_config(rng):
    """A config that changes 2 to 4 bounded settings of the golden one (with a
    forcing for a fresh ground), each at or inside a bound, the first past one in
    a quarter of the configs; and the settings whose drawn value is past a bound
    (a value at an exclusive bound is past it)."""
    payload = copy.deepcopy({**GOLDEN_CONFIG, "ground": {"forcing": 7.0}})
    past, one_past = [], rng.random() < 0.25
    for j, i in enumerate(rng.choice(len(BOUNDED), size=rng.integers(2, 5), replace=False)):
        section, f = BOUNDED[i]
        golden = _golden_value(section, f.name)
        where = "past" if one_past and j == 0 else rng.choice(["at", "inside"])
        if f.name == "stations":
            value, key = copy.deepcopy(STATIONS), rng.choice(sorted(STATIONS))
            value[key] = item = _draw_item(rng, f, None, where)
        elif isinstance(golden, list):
            value, slot = list(golden), rng.integers(len(golden))
            value[slot] = item = _draw_item(rng, f, golden[slot], where)
        else:
            value = item = _draw_item(rng, f, golden, where)
        if section is None:
            payload[f.name] = value
        else:
            payload.setdefault(section, {})[f.name] = value
        if not _meets(f, item):
            past.append(f.name if section is None else f"{section}.{f.name}")
    return payload, past


def _run(tmp_path, capsys, name, payload):
    config = _write_config(tmp_path / f"{name}.json", payload)
    out = tmp_path / name
    code = cli.main(["run-all", "-c", config, "-o", str(out)])
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize("seed, n_configs", [
    (0, 24),
    pytest.param(1, 300, marks=pytest.mark.sweep),
], ids=["24-configs", "300-configs"])
def test_bounded_settings_sweep_ends_in_a_result_or_a_named_error(tmp_path, capsys, seed,
                                                                  n_configs):
    rng = np.random.default_rng(seed)
    finished = []
    for n in range(n_configs):
        payload, past = _draw_config(rng)
        code, err, out = _run(tmp_path, capsys, f"config-{n}", payload)
        context = f"config {n}: {json.dumps(payload)}: exit {code}: {err}"
        assert "unexpected error" not in err, context
        if past:  # rejected before anything is written, naming a setting past its bound
            assert code == 1 and not out.exists(), context
            assert any(err.startswith(f"chaoscast: {name}") for name in past), context
            continue
        # a config error is a named result; only a diverged integration is a runtime one
        assert (code, err) == (0, "") or code == 1 and err.startswith("chaoscast: ") or (
            code == 2 and err.startswith("chaoscast: ") and "integration diverged" in err), \
            context
        assert not list(out.rglob("*.tmp")), context
        for path in out.rglob("*.json"):
            json.loads(path.read_text())
        if code == 0 and len(finished) < N_REPRODUCED:
            finished.append((n, payload, out))
        elif out.exists():
            shutil.rmtree(out)
    assert len(finished) == N_REPRODUCED
    for n, payload, out in finished:
        code, err, again = _run(tmp_path, capsys, f"config-{n}-again", payload)
        assert code == 0 and _tree(again) == _tree(out), f"config {n} differs on a rerun"
