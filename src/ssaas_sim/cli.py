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
64 usage errors, 65 unparseable trace file, 66 missing snapshot file.

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
from typing import Optional

from . import workloads
from .confsvc import ConfigStore, CheckpointError, MalformedConfig
from .migration import (
    BudgetExceeded,
    DEFAULT_BUDGET_TICKS,
    FIRST_STAGE,
    FORMATS,
    LAST_STAGE,
    STAGES,
    TEXT_FORMAT,
    TraceFormatError,
    UnknownStage,
    WorkloadError,
    audit_ownership,
    build_stage,
    compare_traces,
    parse_trace,
    parse_workload,
    run_workload,
    serialize_trace,
)
from .simwire import FaultScriptError, parse_fault_script

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_BAD_SCRIPT = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_BAD_TRACE = 65
EXIT_NO_SNAPSHOT = 66

FORMAT_ENV = "SSAAS_SIM_FORMAT"


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
    parser = build_parser()
    ns = parser.parse_args(argv)
    return ns.func(ns)


# -- commands ---------------------------------------------------------------------


def cmd_run(ns: argparse.Namespace) -> int:
    fmt = _resolve_format(ns.format)
    if fmt is None:
        print(f"ssaas-sim: unknown format in ${FORMAT_ENV}", file=sys.stderr)
        return EXIT_USAGE
    prepared = _prepare_run(ns)
    if isinstance(prepared, int):
        return prepared
    handle, entries = prepared
    text = serialize_trace(entries, fmt)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                sides.append(parse_trace(fh.read()))
        except OSError as exc:
            print(f"ssaas-sim: {exc}", file=sys.stderr)
            return EXIT_BAD_TRACE
        except TraceFormatError as exc:
            print(f"ssaas-sim: {path}: {exc}", file=sys.stderr)
            return EXIT_BAD_TRACE
    outcome = compare_traces(sides[0], sides[1])
    print(outcome.summary())
    return EXIT_OK if outcome.equal else EXIT_DIVERGED


def cmd_audit(ns: argparse.Namespace) -> int:
    prepared = _prepare_run(ns)
    if isinstance(prepared, int):
        return prepared
    handle, _ = prepared
    report = audit_ownership(handle.sim.records, handle.stage,
                             handle.node_services())
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_DIVERGED


def cmd_stages_ls(ns: argparse.Namespace) -> int:
    if ns.stage is not None and ns.stage not in STAGES:
        print(f"ssaas-sim: unknown stage {ns.stage}", file=sys.stderr)
        return EXIT_USAGE
    wanted = [ns.stage] if ns.stage is not None else sorted(STAGES)
    for stage in wanted:
        topo = STAGES[stage]
        print(f"stage {topo.stage}: {topo.title} [{topo.wiring}]")
        for line in build_stage(stage).manifest_lines():
            print("  " + line)
    return EXIT_OK


def cmd_registry_ls(ns: argparse.Namespace) -> int:
    try:
        with open(ns.snapshot, "r", encoding="utf-8") as fh:
            content = fh.read()
    except OSError as exc:
        print(f"ssaas-sim: {exc}", file=sys.stderr)
        return EXIT_NO_SNAPSHOT
    print(content, end="" if content.endswith("\n") or not content else "\n")
    return EXIT_OK


def cmd_config_get(ns: argparse.Namespace) -> int:
    store, code = _open_store(ns.store, must_exist=True)
    if store is None:
        return code
    merged = store.get_config(ns.service, ns.profile)
    print(f"{merged.service}|{merged.profile}|{merged.version[0]},{merged.version[1]}")
    for key in sorted(merged.entries):
        print(f"{key}={merged.entries[key]}")
    return EXIT_OK


def cmd_config_set(ns: argparse.Namespace) -> int:
    store, code = _open_store(ns.store, must_exist=False)
    if store is None:
        return code
    entries = {}
    for raw in ns.entries:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            print(f"ssaas-sim: entries must look like KEY=VALUE, got {raw!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        entries[key] = value
    try:
        version = store.set_config(ns.service, ns.profile, entries)
    except MalformedConfig as exc:
        print(f"ssaas-sim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    store.save(ns.store)
    print(f"{ns.service}|{ns.profile}|{version[0]},{version[1]}")
    return EXIT_OK


# -- shared plumbing ---------------------------------------------------------------


def _resolve_format(flag: Optional[str]) -> Optional[str]:
    env = os.environ.get(FORMAT_ENV)
    if env:
        return env if env in FORMATS else None
    return flag or TEXT_FORMAT


def _load_script(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    if arg in workloads.BUNDLED:
        return workloads.load_text(arg)
    raise FileNotFoundError(f"no such file or bundled script: {arg}")


def _prepare_run(ns: argparse.Namespace):
    """Build the stage and replay the workload; an int is an exit code."""
    try:
        lines = parse_workload(_load_script(ns.workload))
        faults = (parse_fault_script(_load_script(ns.faults))
                  if ns.faults else None)
    except (FileNotFoundError, WorkloadError, FaultScriptError) as exc:
        print(f"ssaas-sim: {exc}", file=sys.stderr)
        return EXIT_BAD_SCRIPT
    try:
        handle = build_stage(ns.stage, ns.seed)
    except UnknownStage as exc:
        print(f"ssaas-sim: unknown stage {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        entries = run_workload(handle, lines, faults=faults, budget=ns.budget)
    except BudgetExceeded as exc:
        print(f"ssaas-sim: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return handle, entries


def _open_store(path: str, must_exist: bool):
    if os.path.exists(path):
        try:
            return ConfigStore.load(path), EXIT_OK
        except CheckpointError as exc:
            print(f"ssaas-sim: {path}: {exc}", file=sys.stderr)
            return None, EXIT_BAD_TRACE
    if must_exist:
        print(f"ssaas-sim: no such store: {path}", file=sys.stderr)
        return None, EXIT_NO_SNAPSHOT
    return ConfigStore(), EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
