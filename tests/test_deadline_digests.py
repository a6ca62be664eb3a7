"""Where a firing call deadline sits in its tick, pinned by digests.

No bundled or generated workload fires a deadline, so the golden digests
say nothing about the queue slot a deadline takes. Here ``basic.wl`` runs
at seed 1 under fault scripts that make calls time out, at stages 3, 5 and
6. Each row pins the sha256 of the external and the wire trace, as
``tests/test_golden.py`` computes them, and the number of calls that timed
out. The digests are those of a kernel that armed a one-shot timer right
after each request as its deadline, so the table checks that a call's
deadline keeps that timer's slot.
"""

from __future__ import annotations

import pytest

from ssaas_sim.chassis import ServiceClient
from ssaas_sim.migration import build_stage, parse_workload, run_workload, serialize_trace
from ssaas_sim.simwire import parse_fault_script
from ssaas_sim.workloads import load_text

from test_golden import SEED, sha256

SCRIPTS = {
    # Replies to the gateway from two services are late by 45 ticks.
    "delay": "90 delay developerservices-1 gateway 45\n"
             "300 delay contentservices-1 gateway 45\n",
    # DeveloperServices never hears back from ResourceManager.
    "drop": "95 drop resourcemanager-1 developerservices-1\n",
    # ContentServices loses DeveloperData for good.
    "partition": "440 partition contentservices-1 developerdata-1\n",
    # Every reply to the gateway is 6 ticks late. Its upstream calls (40-tick
    # deadline) still succeed, but at stages 5 and 6 its registry fetches
    # (5 ticks) time out, some on a tick that also runs lease renewals:
    # only this script's digests move if a deadline fires ahead of its
    # slot in the tick.
    "slow": "0 delay * gateway 6\n",
}

# (script, stage, timeouts, external sha256, wire sha256)
TABLE = [
    ("delay", 3, 17,
     "fed531f912fe90e8b0558bec9a73689fd3bd945d6a340479ca438ced2edf0fed",
     "a5071f4d107962fe17045920385cb6608a9ce54901f28bc3381723e8a7358065"),
    ("delay", 5, 17,
     "c4e309c582a68559564460ab3ffe9bd831f04205a4b3aacc5ba45d062a9d00c7",
     "4d7eab14f5f282dc4973aa6e0dcfc5868a7d64ff154644b3684685367999d4e0"),
    ("delay", 6, 16,
     "100274254302037d59e7a30650ee5b1756f6b6e07ee8a5a3522fc707afeaf4d9",
     "5e0ac1d9d5d3b1603f3b5cae830875a89248dbc67046a4d8b9d074f6aaaf1521"),
    ("drop", 3, 0,
     "3c1a082d82bd80bd59c92a4e199f5322d9f5d64c8aa0837f94e35053b2fa9906",
     "d7770a0b0cc71ca84182ea56bc15b8de0fa7694a38331842116343304fca66c0"),
    ("drop", 5, 4,
     "8290e4b8659dd612df3945fd2d5e92a741fa9978443492782bbc7f7b06b96667",
     "e7d1398863bb1dc067df7fb99da9930eb018207a50bc18265d55685daafa9f65"),
    ("drop", 6, 4,
     "64b2b01403d5f93ad68572e106beb7e55560820d1ef97d7c892df853846da955",
     "4999e4947960995a0b050706cef96a0a735bc80701b835e59409dfbddac6d4e5"),
    ("partition", 3, 5,
     "02fced22ba329867623f67c3c9097d82cc914eca3a4c5d4c5372e739722801e9",
     "b514be011126f66a08dfc67264114beee4878151c90587adfcc7251fa8d3f5fd"),
    ("partition", 5, 5,
     "794dc7c303bd52f9d28dd6d3fd58414057735f9a92325ce98388d78f4c05aa18",
     "04b58ea5ee4ba6ebec0ee03a7bb712eb0f7792afb8c73971e0716863bb450e10"),
    ("partition", 6, 5,
     "b28c45e2c02f024cfd0a012d2076c34785fcc52aecd0e594868492dcd6cf1f00",
     "ec559dc2a9d1580d6bbbc62b0ded58a8d17b2bb074d5987fd912502200b30a9e"),
    ("slow", 3, 0,
     "5d28a03538076cf91d7626e2777723bf6e22febab7a22cee8797f6f1ab93b447",
     "e874649a703da0d3452721683a91274fa0be021a263a93763e753c2f4234b04b"),
    ("slow", 5, 29,
     "cd4b43a6d50c933e782de78cbf7905d3616aac9a2ff6cdd00c4f71b79d5560dc",
     "f5c2fab5f17a5ee33901aa97c6c4020322b2e347c0a8c668d9d3783652ab8be3"),
    ("slow", 6, 29,
     "cd4b43a6d50c933e782de78cbf7905d3616aac9a2ff6cdd00c4f71b79d5560dc",
     "b3ece4f3d0e68271f7e82c506434ffda00fd8a0f1965cadc182cb1f28e01b9af"),
]


@pytest.mark.parametrize("script, stage, timeouts, external, wire", TABLE,
                         ids=[f"{row[0]}@{row[1]}" for row in TABLE])
def test_timed_out_calls_keep_their_digests(script, stage, timeouts, external, wire,
                                            monkeypatch):
    fired: list[int] = []
    on_deadline = ServiceClient._on_deadline

    def counted(client: ServiceClient, message_id: int) -> None:
        if message_id in client._pending:
            fired.append(message_id)
        on_deadline(client, message_id)

    # Patched on the class, as the benchmark's tracer counts timeouts.
    monkeypatch.setattr(ServiceClient, "_on_deadline", counted)
    handle = build_stage(stage, SEED)
    entries = run_workload(handle, parse_workload(load_text("basic.wl")),
                           faults=parse_fault_script(SCRIPTS[script]))
    trace = "".join(record.line() + "\n" for record in handle.sim.records)
    assert (len(fired), sha256(serialize_trace(entries)), sha256(trace)) == \
        (timeouts, external, wire)
