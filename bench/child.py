"""One timed run of one workload, in a fresh process.

``run.py`` starts this script once per sample so that no heap, cache or
allocator state carries over from an earlier sample, and reads its peak
memory from this process alone. The script prints one JSON object: host
times, simulated counts, trace digests, the result of the correctness
checks and, with ``--trace 1``, the per-layer numbers from the span
wrappers in ``tracer.py``. It is also importable: ``golden.py`` calls the
same run functions to pin digests.

Usage (from the root of a checkout)::

    python3 bench/child.py --workload mix-s6 --seed 1 --inputs DIR [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import time
from pathlib import Path
from time import perf_counter

import common
from common import (WORKLOADS, Workload, audit_clean, is_failure, rank, sha256,
                    trace_digest)
from probe import probe
from tracer import LAYERS, Tracer, install

SETTLE_BUDGET_TICKS = 200


def _latencies(entries, deadline: int) -> list[int]:
    """Per-request ticks; a failed request ranks just past the client deadline."""
    return [deadline + 1 if is_failure(e.status) else e.done_tick - e.sent_tick
            for e in entries]


def run_mix(wl: Workload, seed: int, inputs: Path, tracer: Tracer | None = None) -> dict:
    """Replay a generated mix: parse, build, run (timed), then check."""
    from ssaas_sim import migration
    from ssaas_sim.migration.stages import CLIENT_DEADLINE_TICKS
    from ssaas_sim.simwire import parse_fault_script

    wl_text = (inputs / "mix.wl").read_text(encoding="utf-8")
    fs_text = (inputs / "mix.fs").read_text(encoding="utf-8") if wl.faults else None
    expect = (inputs / "expect.txt").read_text(encoding="utf-8").split()
    if tracer is not None:
        install(tracer)
    t_section = perf_counter()
    lines = migration.parse_workload(wl_text)
    faults = parse_fault_script(fs_text) if fs_text is not None else None
    t_build = perf_counter()
    handle = migration.build_stage(wl.stage, seed)
    for service in wl.scale:
        handle.add_instance(service)
    if wl.scale:
        if not handle.sim.run_until_idle(budget=SETTLE_BUDGET_TICKS):
            raise RuntimeError("scaled topology did not settle")
        handle.settle_tick = handle.sim.now
    sim = handle.sim
    sent_before = sim.sent
    t_ready = time.monotonic()
    t_built = perf_counter()
    probe_before = probe()
    t0 = perf_counter()
    entries = migration.run_workload(handle, lines, faults=faults)
    t1 = perf_counter()
    if tracer is not None:
        tracer.uninstall()

    notes = []
    mismatches = 0
    if len(entries) != len(expect):
        notes.append(f"{len(entries)} answers for {len(expect)} intended statuses")
        mismatches = len(lines)
    else:
        for entry, want in zip(entries, expect):
            # Under faults a request may fail outright; anything else must be
            # exactly what the generator intended.
            if entry.status != want and not (wl.faults and is_failure(entry.status)):
                mismatches += 1
        if mismatches:
            notes.append(f"{mismatches} answers differ from the generator's intent")
    if not audit_clean(handle):
        notes.append("ownership audit not clean")
        mismatches = len(lines)
    digest = trace_digest(handle, entries)
    t2 = perf_counter()
    probe_s = (probe_before + probe()) / 2

    ticks = sorted(_latencies(entries, CLIENT_DEADLINE_TICKS))
    fails = sum(1 for e in entries if is_failure(e.status))
    return {
        "t_ready": t_ready, "probe_s": probe_s, "timed_s": t1 - t0,
        "section_s": (t_built - t_section) + (t1 - t0),
        "scenario_s": [(t_built - t_build) + (t2 - t0)],
        "requests": len(lines), "ok": len(lines) - fails,
        "msgs": sim.sent - sent_before, "tick_p50": rank(ticks, 0.5),
        "tick_p99": rank(ticks, 0.99), "digest": digest, "mismatches": mismatches,
        "notes": notes, "wire_total": sim.sent, "wire_failed": sim.failed,
        "wire_dropped": sim.dropped, "entries_serialized": 0, "entries_diffed": 0,
        "records_audited": 0,
    }


def run_replay(seed: int, tracer: Tracer | None = None) -> dict:
    """Rounds of short scenarios, each built, run and checked from scratch.
    The seed shuffles the scenario order within each round."""
    from ssaas_sim import migration, workloads
    from ssaas_sim.migration.stages import CLIENT_DEADLINE_TICKS
    from ssaas_sim.simwire import parse_fault_script

    golden = json.loads(common.GOLDEN.read_text(encoding="utf-8"))["bundled"]
    texts = {name: workloads.load_text(name) for name in workloads.BUNDLED}
    reference = migration.run_workload(migration.build_stage(0, seed),
                                       migration.parse_workload(texts["basic.wl"]))
    rng = random.Random(seed)
    order = [s for _ in range(common.REPLAY_ROUNDS)
             for s in rng.sample(common.REPLAY_SCENARIOS, len(common.REPLAY_SCENARIOS))]
    if tracer is not None:
        install(tracer)

    notes, scenario_s, ticks = [], [], []
    digests: dict[str, dict] = {}
    totals = dict.fromkeys(("requests", "ok", "msgs", "mismatches", "wire_failed",
                            "wire_dropped", "entries_serialized", "entries_diffed",
                            "records_audited"), 0)
    t_ready = time.monotonic()
    probe_before = probe()
    t_section = perf_counter()
    for script, fault_script, stage in order:
        t0 = perf_counter()
        lines = migration.parse_workload(texts[script])
        faults = parse_fault_script(texts[fault_script]) if fault_script else None
        handle = migration.build_stage(stage, seed)
        entries = migration.run_workload(handle, lines, faults=faults)
        sim = handle.sim
        key = common.scenario_key(script, fault_script, stage)
        digest = trace_digest(handle, entries)
        wrong = digest != golden.get(key)
        if wrong:
            notes.append(f"{key}: trace digest differs from golden")
        if script == "basic.wl":
            diff = migration.compare_traces(reference, entries)
            totals["entries_diffed"] += len(entries)
            if not diff.equal:
                notes.append(f"{key}: {diff.summary()}")
                wrong = True
        if not audit_clean(handle):
            notes.append(f"{key}: ownership audit not clean")
            wrong = True
        scenario_s.append(perf_counter() - t0)

        digests[key] = digest
        fails = sum(1 for e in entries if is_failure(e.status))
        totals["requests"] += len(lines)
        totals["ok"] += len(lines) - fails
        totals["msgs"] += sim.sent
        totals["mismatches"] += len(lines) if wrong else 0
        totals["wire_failed"] += sim.failed
        totals["wire_dropped"] += sim.dropped
        totals["entries_serialized"] += len(entries)
        totals["records_audited"] += len(sim.records) if stage else 0
        ticks.extend(_latencies(entries, CLIENT_DEADLINE_TICKS))
    section_s = perf_counter() - t_section
    if tracer is not None:
        tracer.uninstall()
    probe_s = (probe_before + probe()) / 2

    ticks.sort()
    combined = sha256(json.dumps(digests, sort_keys=True))
    return dict(totals, t_ready=t_ready, probe_s=probe_s, section_s=section_s,
                timed_s=section_s,
                scenario_s=scenario_s, tick_p50=rank(ticks, 0.5),
                tick_p99=rank(ticks, 0.99), digest={"scenarios": combined},
                notes=notes, wire_total=totals["msgs"])


def layer_metrics(tracer: Tracer, result: dict) -> dict:
    """Per-layer numbers from one traced run. ``*_us`` values are self time
    per call; counts repeat exactly for a given workload and seed."""
    def calls(*names: str) -> int:
        return tracer.stat(*names)[0]

    def per_call(*names: str) -> float:
        n, spent = tracer.stat(*names)
        return spent / n * 1e6 if n else 0.0

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    def inclusive_per(name: str, units: int) -> float:
        _, spent = tracer.inclusive(name)
        return spent / units * 1e6 if units else 0.0

    counts = tracer.counts
    own = tracer.layer_self()
    client = ("chassis.call", "chassis.call_node", "chassis.handle_response")
    harness = ("migration.harness", "migration.send", "migration.callback")
    builds, build_s = tracer.inclusive("migration.build")
    m = {
        "simwire.self_us_per_msg": own["simwire"] / result["wire_total"] * 1e6,
        "simwire.msgs": result["wire_total"],
        "simwire.maint_msgs": counts["simwire.maint_msgs"],
        "simwire.timers_set": calls("simwire.set_timer"),
        "simwire.timers_cancelled": calls("simwire.cancel_timer"),
        "simwire.failed": result["wire_failed"],
        "simwire.dropped": result["wire_dropped"],
        "chassis.dispatch_self_us": per_call("chassis.dispatch"),
        "chassis.dispatches": calls("chassis.dispatch"),
        "chassis.client_self_us": per_call(*client),
        "chassis.client_ops": calls(*client),
        "chassis.resolve_us": per_call("chassis.resolve"),
        "chassis.resolves": calls("chassis.resolve"),
        "chassis.resolver_hit_ratio": ratio(counts["chassis.resolver_hits"],
                                            counts["chassis.discovered_calls"]),
        "chassis.fast_fails": counts["chassis.fast_fails"],
        "chassis.timeouts": counts["chassis.timeouts"],
        "chassis.breaker_opens": counts["chassis.breaker_opens"],
        "gateway.match_us": per_call("gateway.match"),
        "gateway.matches": calls("gateway.match"),
        "registry.query_us": per_call("registry.query"),
        "registry.queries": calls("registry.query"),
        "registry.renewals": calls("registry.renew"),
        "registry.sweeps": calls("registry.sweep"),
        "registry.evictions": counts["registry.evictions"],
        "confsvc.pulls": counts["confsvc.pulls"],
        "confsvc.pushes": counts["confsvc.pushes"],
        "ssaas.store_us": per_call("ssaas.store"),
        "ssaas.store_ops": calls("ssaas.store"),
        "ssaas.schema_cache_hit_ratio": ratio(counts["ssaas.schema_cache_hits"],
                                              counts["ssaas.schema_lookups"]),
        "migration.build_ms": build_s / builds * 1e3 if builds else 0.0,
        "migration.builds": builds,
        "migration.harness_self_s": tracer.stat(*harness)[1],
        "migration.diff_us_per_entry": inclusive_per("migration.diff",
                                                     result["entries_diffed"]),
        "migration.audit_us_per_record": inclusive_per("migration.audit",
                                                       result["records_audited"]),
        "migration.serialize_us_per_entry": inclusive_per("migration.serialize",
                                                          result["entries_serialized"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer]
    m["trace.wall_s"] = result["section_s"]
    m["trace.remainder_s"] = result["section_s"] - sum(own.values())
    m["trace.spans"] = len(tracer.span_start)
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()
    common.import_program()

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if wl.replay:
        result = run_replay(args.seed, tracer)
    else:
        result = run_mix(wl, args.seed, args.inputs, tracer)
    result["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result)
        if args.spans_out is not None:
            tracer.write_spans(str(args.spans_out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
