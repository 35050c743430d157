"""BENCHMARK.json agrees with what run.py prints, and stays out of bare
``pytest`` runs."""
import json
import re
import tomllib
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_units_and_bounds():
    b = _bench()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in b["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in b["end_to_end"]}
    assert e2e == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == run.PER_LAYER
    assert e2e["setup_s"] == ("s", "lower")
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert all(0 < v <= 0.25 for v in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"] + b["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in b["end_to_end"] + b["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in b["workloads"])


def test_benchmark_is_not_in_default_pytest_collection():
    opts = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]["ini_options"]
    for path in _bench()["paths"]:
        assert not any(Path(path).parts[:len(Path(t).parts)] == Path(t).parts
                       for t in opts["testpaths"])
