"""Consistency of the ``waiting`` and ``slo`` groups of every results envelope.

Both groups describe the same run after the same warmup, so per function
they must agree with each other whichever data plane produced them:

* ``waiting.count == slo.completed``
* ``slo.completed + slo.dropped <= slo.total``
* ``slo.within_deadline <= slo.completed``
* ``0 <= slo.attainment <= 1``

Every registered scenario runs at the differential harness's reduced
sizes, on the event plane and (where the spec allows it) on the
columnar plane.
"""

from __future__ import annotations

import pytest

from repro.scenarios.registry import build
from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import apply_overrides
from test_columnar_differential import FEDERATED_CASES, REGISTRY_CASES, _shards


def _check_functions(functions, where):
    """Assert the per-function relations between ``waiting`` and ``slo``."""
    for name, groups in functions.items():
        slo = groups.get("slo")
        if slo is None:
            continue
        label = f"{where}/{name}"
        if "waiting" in groups:
            assert groups["waiting"]["count"] == slo["completed"], label
        assert slo["completed"] + slo["dropped"] <= slo["total"], label
        assert slo["within_deadline"] <= slo["completed"], label
        assert 0.0 <= slo["attainment"] <= 1.0, label


@pytest.mark.parametrize("name", sorted({**REGISTRY_CASES, **FEDERATED_CASES}))
def test_waiting_and_slo_groups_agree(name):
    kwargs = REGISTRY_CASES.get(name, FEDERATED_CASES.get(name))
    shards = _shards(build(name, **kwargs))
    checked = 0
    for index, spec in enumerate(shards):
        planes = [spec]
        if spec.federation is None:
            planes.append(apply_overrides(spec, {"data_plane": "columnar"}))
        for plane in planes:
            data = run_scenario(plane).data
            functions = data.get("metrics", {}).get("functions", {})
            _check_functions(functions, f"{name}[{index}]/{plane.data_plane}")
            checked += sum("slo" in groups for groups in functions.values())
    # (quickstart's reduced run ends at its warmup, so it has no slo group)
    if any("slo" in spec.metrics and spec.duration > spec.warmup for spec in shards):
        assert checked, f"{name}: no slo group was checked"
