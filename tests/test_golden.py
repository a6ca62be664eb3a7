"""Byte identity of external and wire traces against pinned digests.

``bench/golden.json`` pins the sha256 of the serialized external trace and
of the wire trace (one ``MessageRecord.line()`` per record) for every stage
x bundled script/fault combination at seed 1. A change meant only to make
the simulator faster must leave every one of them unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from ssaas_sim.migration import build_stage, parse_workload, run_workload, serialize_trace
from ssaas_sim.simwire import Envelope, Simulator, parse_fault_script
from ssaas_sim.workloads import load_text

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json")
                    .read_text(encoding="utf-8"))["bundled"]
SEED = 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_bundled_traces_match_golden_digests(key):
    # Keys read "<script>[+<fault script>]@<stage>".
    combo, stage = key.rsplit("@", 1)
    script, _, faults = combo.partition("+")
    handle = build_stage(int(stage), SEED)
    entries = run_workload(handle, parse_workload(load_text(script)),
                           faults=parse_fault_script(load_text(faults)) if faults else None)
    wire = "".join(record.line() + "\n" for record in handle.sim.records)
    assert {"external": sha256(serialize_trace(entries)), "wire": sha256(wire)} == GOLDEN[key]


def test_bundled_combinations_all_pinned():
    assert len(GOLDEN) == 21


def test_ndjson_trace_bytes(tmp_path):
    sim = Simulator()
    sim.add_node("a", lambda env: None)
    sim.add_node("b", lambda env: sim.send(Envelope.response(env, "201")))
    sim.send(Envelope.request("a", "b", "/x/1", method="POST", body={"k": 1}))
    sim.step()
    sim.step()
    out = tmp_path / "trace.ndjson"
    sim.write_trace(str(out), "ndjson")
    assert out.read_text(encoding="utf-8") == (
        '{"destination":"b","kind":"REQUEST","message_id":1,"method":"POST",'
        '"path":"/x/1","source":"a","status":"delivered","tick":1}\n'
        '{"destination":"a","kind":"RESPONSE","message_id":2,"method":"POST",'
        '"path":"/x/1","source":"b","status":"201","tick":2}\n')
