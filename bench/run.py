"""ssaas-sim benchmark: end-to-end or per-layer numbers for one workload.

Run from the root of a checkout::

    python3 bench/run.py --workload mix-s6 --seed 1 --seconds 10 --trace 0

Workloads: ``mix-s6``, ``mix-s0``, ``faults-s6``, ``replay`` (see README.md
in this directory for why each exists). The command

1. generates the workload's inputs from ``--seed`` as ``.wl``/``.fs`` text
   under ``.bench_out/`` (replayable with ``ssaas-sim run``);
2. runs the correctness step: golden digests of every stage x bundled
   script combination, ``basic.wl`` equal to stage 0 at every stage after
   normalization, and a clean ownership audit at stages >= 1;
3. starts one fresh process (``child.py``) per sample until ``--seconds``
   have passed (at least three samples), each timing one run and checking
   its answers against the generator's intent and its digests against the
   golden file (default seed) or against the other samples (other seeds);
4. prints every metric with its unit, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
samples, with host times scaled to a reference machine speed by the probe in
``probe.py`` (the host is shared and its speed swings up to 2x). With ``--trace 1`` untraced and traced samples alternate, and the
metrics are the per-layer ones from the traced samples plus
``trace.overhead`` (traced over untraced wall time of the same section).
A failed check is reported loudly on stderr, counts every attempted
request as failed, and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
from common import BENCH, OUT, ROOT, WORKLOADS, Workload, rank
from probe import PROBE_EXPONENT, PROBE_REF_S

MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "req_per_s": "req/s", "msgs_per_s": "msg/s", "setup_s": "s",
    "peak_mem_mb": "MB", "scenario_ms_p50": "ms", "scenario_ms_p90": "ms",
    "tick_p50": "ticks", "tick_p99": "ticks", "msgs_per_ok": "msg/req",
    "ok_share": "ratio",
}

PER_LAYER = {
    "simwire.self_us_per_msg": "us/msg", "simwire.msgs": "count",
    "simwire.maint_msgs": "count", "simwire.timers_set": "count",
    "simwire.timers_cancelled": "count", "simwire.failed": "count",
    "simwire.dropped": "count",
    "chassis.dispatch_self_us": "us", "chassis.dispatches": "count",
    "chassis.client_self_us": "us", "chassis.client_ops": "count",
    "chassis.resolve_us": "us", "chassis.resolves": "count",
    "chassis.resolver_hit_ratio": "ratio", "chassis.fast_fails": "count",
    "chassis.timeouts": "count", "chassis.breaker_opens": "count",
    "gateway.match_us": "us", "gateway.matches": "count",
    "registry.query_us": "us", "registry.queries": "count",
    "registry.renewals": "count", "registry.sweeps": "count",
    "registry.evictions": "count",
    "confsvc.pulls": "count", "confsvc.pushes": "count",
    "ssaas.store_us": "us", "ssaas.store_ops": "count",
    "ssaas.schema_cache_hit_ratio": "ratio",
    "migration.build_ms": "ms", "migration.builds": "count",
    "migration.harness_self_s": "s", "migration.diff_us_per_entry": "us/entry",
    "migration.audit_us_per_record": "us/record",
    "migration.serialize_us_per_entry": "us/entry",
    "simwire.self_s": "s", "chassis.self_s": "s", "gateway.self_s": "s",
    "registry.self_s": "s", "confsvc.self_s": "s", "ssaas.self_s": "s",
    "migration.self_s": "s", "trace.remainder_s": "s", "trace.wall_s": "s",
    "trace.spans": "count", "trace.overhead": "ratio",
}

HOST_TIME_UNITS = ("s", "ms", "us", "us/msg", "us/entry", "us/record")

# Values that come from the model, not the host: equal in every sample.
SIMULATED = ("requests", "ok", "msgs", "tick_p50", "tick_p99", "digest", "wire_total")


def write_inputs(wl: Workload, seed: int) -> Path:
    """Generate the workload's inputs as replayable text files."""
    import gen

    inputs = OUT / f"{wl.name}-seed{seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    if not wl.replay:
        mix = gen.generate(seed, common.MIX_REQUESTS, chat=wl.chat, faults=wl.faults)
        (inputs / "mix.wl").write_text(mix.workload_text(), encoding="utf-8")
        if wl.faults:
            (inputs / "mix.fs").write_text(mix.faults_text(), encoding="utf-8")
        (inputs / "expect.txt").write_text("\n".join(mix.expect) + "\n", encoding="utf-8")
        (inputs / "intent.json").write_text(json.dumps(
            {"requests": len(mix.lines), "intended_4xx_share": mix.intended_4xx_share(),
             "faults": mix.faults}, indent=1) + "\n", encoding="utf-8")
    return inputs


def check_bundled(seed: int) -> list[str]:
    """Golden digests, cross-stage equality and audit for the bundled scripts."""
    from golden import bundled_runs
    from ssaas_sim import migration

    golden = json.loads(common.GOLDEN.read_text(encoding="utf-8"))["bundled"]
    problems, reference = [], None
    for key, handle, entries in bundled_runs(seed):
        if common.trace_digest(handle, entries) != golden.get(key):
            problems.append(f"{key}: trace digest differs from golden")
        if key.startswith("basic.wl@"):
            if reference is None:
                reference = entries
            elif not (diff := migration.compare_traces(reference, entries)).equal:
                problems.append(f"{key}: not equal to stage 0: {diff.summary()}")
        if not common.audit_clean(handle):
            problems.append(f"{key}: ownership audit not clean")
    return problems


def sample(wl: Workload, seed: int, inputs: Path, trace: int,
           spans_out: Path | None = None) -> dict:
    """Run one fresh child process and return its result."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", wl.name,
           "--seed", str(seed), "--inputs", str(inputs), "--trace", str(trace)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"sample failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def at_ref(r: dict, seconds: float) -> float:
    """A sample's host seconds at the reference machine speed (probe.py)."""
    return seconds * (PROBE_REF_S / r["probe_s"]) ** PROBE_EXPONENT


def end_to_end(samples: list[dict]) -> dict:
    """Medians over the samples; host times at the reference speed."""
    def median(fn) -> float:
        return statistics.median(fn(r) for r in samples)

    first = samples[0]
    return {
        "req_per_s": median(lambda r: r["requests"] / at_ref(r, r["timed_s"])),
        "msgs_per_s": median(lambda r: r["msgs"] / at_ref(r, r["timed_s"])),
        "setup_s": median(lambda r: at_ref(r, r["setup_s"])),
        "peak_mem_mb": median(lambda r: r["peak_mb"]),
        "scenario_ms_p50": median(lambda r: at_ref(r, rank(sorted(r["scenario_s"]), 0.5)) * 1e3),
        "scenario_ms_p90": median(lambda r: at_ref(r, rank(sorted(r["scenario_s"]), 0.9)) * 1e3),
        "tick_p50": first["tick_p50"],
        "tick_p99": first["tick_p99"],
        "msgs_per_ok": first["msgs"] / max(first["ok"], 1),
        "ok_share": first["ok"] / first["requests"],
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    problems, out = [], {}
    for name in PER_LAYER:
        if name == "trace.overhead":
            continue
        values = [r["layers"][name] for r in traced]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced samples: {values}")
            out[name] = values[0]
            continue
        if PER_LAYER[name] in HOST_TIME_UNITS:
            values = [at_ref(r, v) for r, v in zip(traced, values)]
        out[name] = statistics.median(values)
    out["trace.overhead"] = (
        statistics.median(at_ref(r, r["section_s"]) for r in traced)
        / statistics.median(at_ref(r, r["section_s"]) for r in untraced))
    return out, problems


def check_samples(wl: Workload, seed: int, samples: list[dict]) -> list[str]:
    problems = []
    for r in samples:
        problems.extend(r["notes"])
    for key in SIMULATED:
        values = {json.dumps(r[key], sort_keys=True) for r in samples}
        if len(values) != 1:
            problems.append(f"{key} differs between samples of one seed: {sorted(values)}")
    golden = json.loads(common.GOLDEN.read_text(encoding="utf-8"))["workloads"].get(wl.name)
    if golden is not None and seed == golden["seed"]:
        want = {"external": golden["external"], "wire": golden["wire"]}
        if samples[0]["digest"] != want or samples[0]["requests"] != golden["requests"]:
            problems.append(f"{wl.name} seed {seed}: trace digest differs from golden")
    if not wl.replay and not wl.faults and samples[0]["ok"] != samples[0]["requests"]:
        problems.append(f"{wl.name}: fail_share is not 0 "
                        f"({samples[0]['requests'] - samples[0]['ok']} failures)")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.import_program()
    wl = WORKLOADS[args.workload]

    inputs = write_inputs(wl, args.seed)
    problems = check_bundled(args.seed)
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while True:
        untraced.append(sample(wl, args.seed, inputs, 0))
        if args.trace:
            spans_out = inputs / "spans.tsv.gz" if not traced else None
            traced.append(sample(wl, args.seed, inputs, 1, spans_out))
        if len(untraced) >= MIN_SAMPLES and time.monotonic() >= deadline:
            break
    everything = untraced + traced
    problems += check_samples(wl, args.seed, everything)

    if args.trace:
        metrics, layer_problems = per_layer(untraced, traced)
        problems += layer_problems
        units = PER_LAYER
    else:
        metrics, units = end_to_end(untraced), END_TO_END
    attempted = sum(r["requests"] for r in everything)
    failed = attempted if problems else 0

    first = untraced[0]
    print(f"workload {wl.name} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced samples of {first['requests']} requests; "
          f"fail_share {1 - first['ok'] / first['requests']:.6f} (ratio); probe median "
          f"{statistics.median(r['probe_s'] for r in untraced) * 1e3:.2f} ms against "
          f"{PROBE_REF_S * 1e3:.2f} ms reference; unscaled req_per_s median "
          f"{statistics.median(r['requests'] / r['timed_s'] for r in untraced):.1f}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
