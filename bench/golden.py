"""Golden trace digests: the benchmark's "nothing changed" gate.

``golden.json`` pins the sha256 of the external and the wire trace for every
stage x bundled script/fault combination, and for every generated workload
at ``common.DEFAULT_SEED``. ``run.py`` checks them on every run; a change
meant only to speed up the host code must leave them all unchanged.

Regenerate (only after a deliberate behaviour change, from the root of a
checkout)::

    python3 bench/golden.py
"""

from __future__ import annotations

import json

import common
from common import WORKLOADS, scenario_key, trace_digest

BUNDLED_COMBOS = (("basic.wl", None), ("chat_resilience.wl", None),
                  ("chat_resilience.wl", "faults_kill_chat.fs"))


def bundled_runs(seed: int):
    """Yield (key, handle, entries) for every stage x bundled combination."""
    from ssaas_sim import migration, workloads
    from ssaas_sim.simwire import parse_fault_script

    for script, fault_script in BUNDLED_COMBOS:
        lines = migration.parse_workload(workloads.load_text(script))
        faults = (parse_fault_script(workloads.load_text(fault_script))
                  if fault_script else None)
        for stage in range(migration.FIRST_STAGE, migration.LAST_STAGE + 1):
            handle = migration.build_stage(stage, seed)
            entries = migration.run_workload(handle, lines, faults=faults)
            yield scenario_key(script, fault_script, stage), handle, entries


def main() -> int:
    common.import_program()
    import child
    from run import write_inputs

    golden = {"bundled": {key: trace_digest(handle, entries)
                          for key, handle, entries in bundled_runs(common.DEFAULT_SEED)},
              "workloads": {}}
    for name, wl in sorted(WORKLOADS.items()):
        if wl.replay:
            continue
        inputs = write_inputs(wl, common.DEFAULT_SEED)
        result = child.run_mix(wl, common.DEFAULT_SEED, inputs)
        if result["mismatches"]:
            raise SystemExit(f"{name}: {result['notes']}")
        golden["workloads"][name] = dict(result["digest"], seed=common.DEFAULT_SEED,
                                         requests=result["requests"])
    common.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {common.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
