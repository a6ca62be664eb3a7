"""Command-line front end.

Subcommands:

* ``run``       build a stage, replay a workload, print or save the trace
* ``diff``      compare two trace files after normalization
* ``audit``     run a workload and report data-ownership violations
* ``stages``    list the stage topologies (``stages ls``)
* ``registry``  inspect a registry snapshot file (``registry ls``)
* ``config``    read or write a checkpoint-backed config store

Exit codes: 0 success (diff: traces equal; audit: clean), 1 divergence or
violations, 2 unreadable workload or fault script, 3 tick budget exhausted,
64 usage errors, 65 unreadable trace file or config store, 66 missing store
or unreadable snapshot file, 73 an output file could not be written.

``--format`` picks ``text`` or ``ndjson`` output; the ``SSAAS_SIM_FORMAT``
environment variable, when set, wins over the flag. Workload and fault
script arguments take a file path first, falling back to the bundled
scripts shipped with the package (``basic.wl``, ``chat_resilience.wl``,
``faults_kill_chat.fs``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from . import workloads
from .confsvc import ConfigStore, CheckpointError, MalformedConfig
from .migration.audit import audit_ownership
from .migration.harness import (DEFAULT_BUDGET_TICKS, BudgetExceeded, WorkloadError,
                                parse_workload, run_workload)
from .migration.stages import FIRST_STAGE, LAST_STAGE, STAGES, UnknownStage, build_stage
from .migration.traces import (FORMATS, TEXT_FORMAT, TraceFormatError, compare_traces,
                               parse_trace, serialize_trace)
from .simwire import FaultScriptError, parse_fault_script

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_BAD_SCRIPT = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_BAD_TRACE = 65
EXIT_NO_SNAPSHOT = 66
EXIT_CANT_CREATE = 73

FORMAT_ENV = "SSAAS_SIM_FORMAT"


class _Exit(Exception):
    """``_Exit(code, message)``: ``main`` prints the message and returns the code."""


@contextmanager
def _exit_on(code: int, *errors: type[Exception], prefix: str = "") -> Iterator[None]:
    """Turn any of ``errors`` raised in the block into ``_Exit(code)``."""
    try:
        yield
    except errors as exc:
        raise _Exit(code, f"{prefix}{exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="ssaas-sim", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a workload against one stage")
    _add_run_args(run)
    run.add_argument("--out", help="write the trace here instead of stdout")
    run.add_argument("--format", default=None, choices=FORMATS,
                     help="trace format (default text; env %s wins)" % FORMAT_ENV)
    run.add_argument("--wire-out", help="also write the wire-level message trace")
    run.add_argument("--registry-snapshot",
                     help="write the registry's lease table after the run")
    run.set_defaults(func=cmd_run)

    diff = sub.add_parser("diff", help="compare two trace files")
    diff.add_argument("left")
    diff.add_argument("right")
    diff.set_defaults(func=cmd_diff)

    audit = sub.add_parser("audit", help="ownership audit over a workload run")
    _add_run_args(audit)
    audit.set_defaults(func=cmd_audit)

    stages = sub.add_parser("stages", help="stage topology listing")
    stages_sub = stages.add_subparsers(dest="stages_command", required=True)
    ls = stages_sub.add_parser("ls", help="list stages, nodes, and wiring")
    ls.add_argument("--stage", type=int, default=None,
                    help="limit to one stage")
    ls.set_defaults(func=cmd_stages_ls)

    registry = sub.add_parser("registry", help="registry snapshot inspection")
    registry_sub = registry.add_subparsers(dest="registry_command", required=True)
    reg_ls = registry_sub.add_parser("ls", help="print a snapshot file")
    reg_ls.add_argument("--snapshot", required=True)
    reg_ls.set_defaults(func=cmd_registry_ls)

    config = sub.add_parser("config", help="checkpoint-backed config store")
    config_sub = config.add_subparsers(dest="config_command", required=True)
    get = config_sub.add_parser("get", help="print a merged document")
    get.add_argument("--store", required=True, help="checkpoint file")
    get.add_argument("service")
    get.add_argument("profile")
    get.set_defaults(func=cmd_config_get)
    cset = config_sub.add_parser("set", help="replace a document")
    cset.add_argument("--store", required=True, help="checkpoint file")
    cset.add_argument("service")
    cset.add_argument("profile")
    cset.add_argument("entries", nargs="*", metavar="KEY=VALUE")
    cset.set_defaults(func=cmd_config_set)

    return parser


def _add_run_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--stage", type=int, required=True,
                     help=f"migration stage, {FIRST_STAGE}..{LAST_STAGE}")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--workload", required=True,
                     help="workload file (or a bundled script name)")
    cmd.add_argument("--faults", default=None,
                     help="fault script file (or a bundled script name)")
    cmd.add_argument("--budget", type=int, default=DEFAULT_BUDGET_TICKS,
                     help="quiescence budget in ticks")


def main(argv: Optional[list[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except _Exit as exc:
        code, message = exc.args
        print(f"ssaas-sim: {message}", file=sys.stderr)
        return code


# -- commands ---------------------------------------------------------------------


def cmd_run(ns: argparse.Namespace) -> int:
    fmt = _resolve_format(ns.format)
    handle, entries = _prepare_run(ns)
    text = serialize_trace(entries, fmt)
    if not ns.out:
        print(text, end="")
    with _exit_on(EXIT_CANT_CREATE, OSError):
        if ns.out:
            Path(ns.out).write_text(text, encoding="utf-8")
        if ns.wire_out:
            handle.sim.write_trace(ns.wire_out, fmt)
        if ns.registry_snapshot:
            lines = (handle.registry.store.snapshot_lines()
                     if handle.registry is not None else [])
            with open(ns.registry_snapshot, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in lines)
    return EXIT_OK


def cmd_diff(ns: argparse.Namespace) -> int:
    sides = []
    for path in (ns.left, ns.right):
        with _exit_on(EXIT_BAD_TRACE, OSError, UnicodeDecodeError):
            text = Path(path).read_text(encoding="utf-8")
        with _exit_on(EXIT_BAD_TRACE, TraceFormatError, prefix=f"{path}: "):
            sides.append(parse_trace(text))
    outcome = compare_traces(sides[0], sides[1])
    print(outcome.summary())
    return EXIT_OK if outcome.equal else EXIT_DIVERGED


def cmd_audit(ns: argparse.Namespace) -> int:
    handle, _ = _prepare_run(ns)
    report = audit_ownership(handle.sim.records, handle.stage,
                             handle.node_services())
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_DIVERGED


def cmd_stages_ls(ns: argparse.Namespace) -> int:
    if ns.stage is not None and ns.stage not in STAGES:
        raise _Exit(EXIT_USAGE, f"unknown stage {ns.stage}")
    wanted = [ns.stage] if ns.stage is not None else sorted(STAGES)
    for stage in wanted:
        topo = STAGES[stage]
        print(f"stage {topo.stage}: {topo.title} [{topo.wiring}]")
        for line in build_stage(stage).manifest_lines():
            print("  " + line)
    return EXIT_OK


def cmd_registry_ls(ns: argparse.Namespace) -> int:
    with _exit_on(EXIT_NO_SNAPSHOT, OSError, UnicodeDecodeError):
        content = Path(ns.snapshot).read_text(encoding="utf-8")
    print(content, end="" if content.endswith("\n") or not content else "\n")
    return EXIT_OK


def cmd_config_get(ns: argparse.Namespace) -> int:
    merged = _open_store(ns.store, must_exist=True).get_config(ns.service, ns.profile)
    print(f"{merged.service}|{merged.profile}|{merged.version[0]},{merged.version[1]}")
    for key in sorted(merged.entries):
        print(f"{key}={merged.entries[key]}")
    return EXIT_OK


def cmd_config_set(ns: argparse.Namespace) -> int:
    store = _open_store(ns.store, must_exist=False)
    entries = {}
    for raw in ns.entries:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            raise _Exit(EXIT_USAGE, f"entries must look like KEY=VALUE, got {raw!r}")
        entries[key] = value
    with _exit_on(EXIT_USAGE, MalformedConfig):
        version = store.set_config(ns.service, ns.profile, entries)
    with _exit_on(EXIT_CANT_CREATE, OSError):
        store.save(ns.store)
    print(f"{ns.service}|{ns.profile}|{version[0]},{version[1]}")
    return EXIT_OK


# -- shared plumbing ---------------------------------------------------------------


def _resolve_format(flag: Optional[str]) -> str:
    env = os.environ.get(FORMAT_ENV)
    if env and env not in FORMATS:
        raise _Exit(EXIT_USAGE, f"unknown format in ${FORMAT_ENV}")
    return env or flag or TEXT_FORMAT


def _load_script(arg: str) -> str:
    if os.path.exists(arg):
        return Path(arg).read_text(encoding="utf-8")
    if arg in workloads.BUNDLED:
        return workloads.load_text(arg)
    raise FileNotFoundError(f"no such file or bundled script: {arg}")


def _prepare_run(ns: argparse.Namespace):
    """Build the stage and replay the workload: ``(handle, entries)``."""
    with _exit_on(EXIT_BAD_SCRIPT, OSError, UnicodeDecodeError, WorkloadError,
                  FaultScriptError):
        lines = parse_workload(_load_script(ns.workload))
        faults = (parse_fault_script(_load_script(ns.faults))
                  if ns.faults else None)
    with _exit_on(EXIT_USAGE, UnknownStage, prefix="unknown stage "):
        handle = build_stage(ns.stage, ns.seed)
    with _exit_on(EXIT_BAD_SCRIPT, WorkloadError), _exit_on(EXIT_BUDGET, BudgetExceeded):
        entries = run_workload(handle, lines, faults=faults, budget=ns.budget)
    return handle, entries


def _open_store(path: str, must_exist: bool) -> ConfigStore:
    if os.path.exists(path):
        with _exit_on(EXIT_BAD_TRACE, OSError, CheckpointError, prefix=f"{path}: "):
            return ConfigStore.load(path)
    if must_exist:
        raise _Exit(EXIT_NO_SNAPSHOT, f"no such store: {path}")
    return ConfigStore()


if __name__ == "__main__":
    sys.exit(main())
