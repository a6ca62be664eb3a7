"""Workload table, paths and helpers shared by the benchmark's processes.

Every path is relative to the working directory, which must be the root of
a checkout of the repository: the program is imported from its ``src``
directory, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

# Digests of the generated workloads are pinned at this seed; any other
# seed is checked for replay determinism instead.
DEFAULT_SEED = 1

# Each mix run has this many requests, one arrival per simulated tick.
MIX_REQUESTS = 1500
# Rounds of the replay scenario set per timed process.
REPLAY_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    stage: int = 6
    chat: bool = False
    faults: bool = False
    scale: tuple[str, ...] = ()
    replay: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("mix-s6", stage=6),
    Workload("mix-s0", stage=0),
    Workload("faults-s6", stage=6, chat=True, faults=True,
             scale=("ChatServices", "ContentServices")),
    Workload("replay", replay=True),
)}

# Replay: (workload script, fault script or None, stage). basic.wl runs at
# every stage and is diffed against stage 0.
REPLAY_SCENARIOS = tuple(
    [("basic.wl", None, stage) for stage in range(7)]
    + [("chat_resilience.wl", None, 6),
       ("chat_resilience.wl", "faults_kill_chat.fs", 6)])


def scenario_key(script: str, faults: str | None, stage: int) -> str:
    return f"{script}{'+' + faults if faults else ''}@{stage}"


def import_program():
    """Import ``ssaas_sim`` from the checkout's ``src``; refuse any other copy."""
    package = SRC / "ssaas_sim" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"benchmark: no program source at {package}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import ssaas_sim
    if Path(ssaas_sim.__file__).resolve() != package.resolve():
        raise SystemExit(f"benchmark: imported ssaas_sim from {ssaas_sim.__file__}, "
                         f"not from {package}")
    return ssaas_sim


def is_failure(status: str) -> bool:
    """5xx answers and synthesized network errors; intended 4xx succeed."""
    return status.startswith("5") or status == "network-error"


def rank(values: list, q: float):
    """Nearest-rank percentile of already sorted values."""
    return values[max(0, min(len(values) - 1, math.ceil(q * len(values)) - 1))]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_digest(handle, entries) -> dict:
    """sha256 of a run's external trace and of its wire trace."""
    from ssaas_sim import migration
    wire = "".join(record.line() + "\n" for record in handle.sim.records)
    return {"external": sha256(migration.serialize_trace(entries)), "wire": sha256(wire)}


def audit_clean(handle) -> bool:
    """The ownership audit passes: OK from stage 1 on, not applicable at 0."""
    from ssaas_sim import migration
    report = migration.audit_ownership(handle.sim.records, handle.stage,
                                       handle.node_services())
    wanted = migration.AUDIT_NOT_APPLICABLE if handle.stage == 0 else migration.AUDIT_OK
    return report.status == wanted
