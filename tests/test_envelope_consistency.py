"""Consistency of the ``waiting`` and ``slo`` groups of every results envelope.

Both groups describe the same run after the same warmup, so per function
they must agree with each other whichever data plane produced them:

* ``waiting.count == slo.completed``
* ``slo.completed + slo.dropped <= slo.total``
* ``slo.within_deadline <= slo.completed``
* ``0 <= slo.attainment <= 1``

Every registered scenario runs at the differential harness's reduced
sizes, on the event plane and (where the spec allows it) on the
columnar plane.  The same envelopes are also pinned across commits:
their sha256 must equal :data:`ENVELOPE_DIGESTS`, recorded before the
single-site and federated runners were merged onto one run assembly,
so a refactor that changes any result byte fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.scenarios.registry import build
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import canonical_json
from repro.scenarios.sweep import apply_overrides
from test_columnar_differential import (
    FEDERATED_CASES,
    REGISTRY_CASES,
    TIMING_SCENARIOS,
    _reset_request_ids,
    _shards,
    _strip_timing,
)

#: sha256 over each scenario's envelopes (``canonical_json`` plus a
#: newline each, in shard order, event plane before columnar), with the
#: wall-clock fields of :data:`TIMING_SCENARIOS` stripped.
ENVELOPE_DIGESTS = {
    "azure-replay":
        "167d2f273e1e7eed0bf7eb54dd3000d9be19db9366212550b869454271eb10db",
    "fig10":
        "29711491d332015b00c3a1d3611720287e1d57bf2f95943018de94e2d9a36583",
    "fig11":
        "8290322bc5cc8076dd12ae994b33ad1d13289a648817a370598e9b6fec26d620",
    "fig12":
        "1cd693e09cc16e32b80576c96185a041c28d12df3c0d5e0207b3c70ac8d5fd4d",
    "fig3":
        "98da3c9a749f9028e3a88bff1d26b27079129e2de4fc19b13ef13989ca5c3b6a",
    "fig4":
        "5564143ea7adabbcb34c0377577a68965c529de9a631d2393e757651475b2b1b",
    "fig5":
        "9328adf13f300fc2a7cef83c20af1a12ff43f4af2a22498c6a45eb6135addfd3",
    "fig6":
        "88ba1937c936734ee1e1ba09db4ec2704edf80834fd2a7315ca38bff310800f0",
    "fig7":
        "79995ef31ed9a9b7d0a0cc720270d0cd7e7fe664a59210bfa6d21027d244f28a",
    "fig8":
        "c5f57c5aa2936f3a09b38f9c5ca4781f0b8713c9a80097ae914ae4ccce697752",
    "fig9":
        "490536ef61ae4d14c08d632442e623a6fde67fc5d6b9ca519a9a60bcf599c531",
    "fig9-at-scale":
        "6edf0b192a4697facb4a852a22a968cc16806fb9994e7cd3fbbcc1e126ccf6fb",
    "flaky-containers":
        "31bc2ebb8ace7a77eba5b19b948194c263d00fe560e570144a3bb50021ddfb5c",
    "flash-crowd-one-region":
        "bdbbec8e9a62ba3a7e2059e0f1e381581d2438627d9a6258f83193ebb8115acb",
    "node-failure-recovery":
        "226e220f7717cde0f1b4c7af2a0c960c07e700eb499647a42c41695baad90a03",
    "overload-fair-share":
        "c69a52fe6849ceb9c33f5b65585b1b0f0831100d78f05b4f85a21d0001763b6c",
    "partitioned-control-plane":
        "b886aceeb415ca0a03e74ea9936d94606a7cc07a4ef0ca60230b6bff8fc6a73c",
    "policy-shootout":
        "c7d5941a5863cde8f7e740945510c93c30e45bf39bce8944b7cc72e76da46bc5",
    "quickstart":
        "1f67c8caab0680ac551a8a8fa70d42ae28b10912af48cf9bc4fc9f7d536102c2",
    "rolling-node-churn":
        "ff2af5d500b05be03073827d6826af52d115644ee487ba079e6968f73d059e01",
    "site-outage-failover":
        "3b0d23ca0e6641b8c6f6a673e0b8199e860a0f180efc05f20309ccaef8a90ef4",
    "table1":
        "8fc5537c6387a28c100e7e888066048c450423cb8d7e66c0b5393ba502d3739a",
    "video-analytics-burst":
        "52bf78a1bc55035d001b6a5c46c335e53abd13113e784e427e5b620c9540b3dc",
}


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
    digest = hashlib.sha256()
    for index, spec in enumerate(shards):
        planes = [spec]
        if spec.federation is None:
            planes.append(apply_overrides(spec, {"data_plane": "columnar"}))
        for plane in planes:
            _reset_request_ids()
            data = run_scenario(plane).data
            functions = data.get("metrics", {}).get("functions", {})
            _check_functions(functions, f"{name}[{index}]/{plane.data_plane}")
            checked += sum("slo" in groups for groups in functions.values())
            pinned = _strip_timing(data) if name in TIMING_SCENARIOS else data
            digest.update(canonical_json(pinned).encode() + b"\n")
    assert digest.hexdigest() == ENVELOPE_DIGESTS[name], f"{name}: envelope bytes changed"
    # (quickstart's reduced run ends at its warmup, so it has no slo group)
    if any("slo" in spec.metrics and spec.duration > spec.warmup for spec in shards):
        assert checked, f"{name}: no slo group was checked"
