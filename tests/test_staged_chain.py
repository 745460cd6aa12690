"""The benchmark's traced chain against the library it times.

`perfbench/staged.py` calls the engine's and the oracle's stages one by
one to time them.  These tests load it by file path and run it on a small
case, so a library change that breaks the traced run fails here too.  They
assert no timing: the traced metrics' values are the benchmark's own
concern.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from revisit.cases import CaseConfig, resolve_case
from revisit.engine import analyze, oracle_analyze

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def staged():
    return _load("staged")


def test_traced_chain_reports_equal_the_library_and_name_every_metric(staged):
    rc = resolve_case(CaseConfig(
        altitude_km=700.0, inclination_deg=90.0, elevation_deg=0.0, walker=(3, 3, 0),
        window_days=2.0, grid_res_deg=1.0,
    ))
    tracer = staged.Tracer()
    assert staged.engine_case(tracer, rc) == analyze(**rc.inputs())
    assert staged.oracle_case(tracer, rc) == oracle_analyze(**rc.inputs())
    metrics = staged.pass_metrics(tracer.spans, workers=1)
    per_layer = _load("workloads").PER_LAYER
    assert len(per_layer) == 19
    assert sorted(metrics) == sorted(per_layer)
