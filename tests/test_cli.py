"""Command-line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import argparse

import pytest

from ssaas_sim import cli


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def unreadable(tmp_path, kind: str) -> str:
    """A path ``open(..., encoding="utf-8").read()`` fails on: a directory,
    or a file that is not UTF-8."""
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0|client|GET|/caf\xe9|\n")
    return str(path)


UNREADABLE = ["directory", "undecodable"]


STAGES_LS = """\
stage 0: single deployable [LIBRARY_CALL]
  0|client|Client|DIRECT_WIRE
  0|monolith|Monolith|LIBRARY_CALL
stage 1: data service split out [DIRECT_WIRE]
  1|client|Client|DIRECT_WIRE
  1|contentservices-1|ContentServices|DIRECT_WIRE
  1|developerdata-1|DeveloperData|DIRECT_WIRE
  1|developerservices-1|DeveloperServices|DIRECT_WIRE
stage 2: central configuration [DIRECT_WIRE]
  2|client|Client|DIRECT_WIRE
  2|confsvc|ConfigServer|DIRECT_WIRE
  2|contentservices-1|ContentServices|DIRECT_WIRE
  2|developerdata-1|DeveloperData|DIRECT_WIRE
  2|developerservices-1|DeveloperServices|DIRECT_WIRE
stage 3: edge gateway [DIRECT_WIRE]
  3|client|Client|DIRECT_WIRE
  3|confsvc|ConfigServer|DIRECT_WIRE
  3|contentservices-1|ContentServices|DIRECT_WIRE
  3|developerdata-1|DeveloperData|DIRECT_WIRE
  3|developerservices-1|DeveloperServices|DIRECT_WIRE
  3|gateway|Gateway|DIRECT_WIRE
stage 4: discovery, balancing, breakers [DISCOVERED]
  4|client|Client|DIRECT_WIRE
  4|confsvc|ConfigServer|DIRECT_WIRE
  4|contentservices-1|ContentServices|DISCOVERED
  4|developerdata-1|DeveloperData|DISCOVERED
  4|developerservices-1|DeveloperServices|DISCOVERED
  4|gateway|Gateway|DISCOVERED
  4|registry|ServiceRegistry|-
stage 5: resource manager split out [DISCOVERED]
  5|client|Client|DIRECT_WIRE
  5|confsvc|ConfigServer|DIRECT_WIRE
  5|contentservices-1|ContentServices|DISCOVERED
  5|developerdata-1|DeveloperData|DISCOVERED
  5|developerservices-1|DeveloperServices|DISCOVERED
  5|gateway|Gateway|DISCOVERED
  5|registry|ServiceRegistry|-
  5|resourcemanager-1|ResourceManager|DISCOVERED
stage 6: target topology [DISCOVERED]
  6|chatservices-1|ChatServices|DISCOVERED
  6|client|Client|DIRECT_WIRE
  6|confsvc|ConfigServer|DIRECT_WIRE
  6|contentservices-1|ContentServices|DISCOVERED
  6|developerdata-1|DeveloperData|DISCOVERED
  6|developerinfoservices-1|DeveloperInfoServices|DISCOVERED
  6|developerservices-1|DeveloperServices|DISCOVERED
  6|gateway|Gateway|DISCOVERED
  6|registry|ServiceRegistry|-
  6|resourcemanager-1|ResourceManager|DISCOVERED
"""


class TestRun:
    def test_trace_to_stdout(self, capsys):
        code = run_cli("run", "--stage", "0", "--workload", "basic.wl")
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 29
        assert lines[0].split("\t")[2:4] == ["POST", "/api/developers"]

    def test_trace_to_file_and_wire_and_snapshot(self, tmp_path):
        trace = tmp_path / "run.trace"
        wire = tmp_path / "run.wire"
        snap = tmp_path / "run.snap"
        code = run_cli("run", "--stage", "6", "--workload", "basic.wl",
                       "--out", str(trace), "--wire-out", str(wire),
                       "--registry-snapshot", str(snap))
        assert code == 0
        assert len(trace.read_text().strip().split("\n")) == 29
        assert "gateway" in wire.read_text()
        assert any(line.startswith("ChatServices|chatservices-1|")
                   for line in snap.read_text().splitlines())

    def test_ndjson_format_flag(self, tmp_path):
        out = tmp_path / "run.ndjson"
        assert run_cli("run", "--stage", "1", "--workload", "basic.wl",
                       "--format", "ndjson", "--out", str(out)) == 0
        first = out.read_text().split("\n")[0]
        assert first.startswith("{") and '"seq":0' in first

    def test_environment_format_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "ndjson")
        out = tmp_path / "run.trace"
        assert run_cli("run", "--stage", "1", "--workload", "basic.wl",
                       "--format", "text", "--out", str(out)) == 0
        assert out.read_text().startswith("{")

    def test_environment_format_must_be_known(self, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "xml")
        assert run_cli("run", "--stage", "1", "--workload", "basic.wl") == 64

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        for path in (a, b):
            assert run_cli("run", "--stage", "5", "--seed", "11",
                           "--workload", "basic.wl", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_stage_is_usage_error(self, capsys):
        assert run_cli("run", "--stage", "9", "--workload", "basic.wl") == 64
        assert "unknown stage" in capsys.readouterr().err

    def test_missing_workload_file(self):
        assert run_cli("run", "--stage", "1", "--workload", "nope.wl") == 2

    def test_malformed_workload(self, tmp_path):
        bad = tmp_path / "bad.wl"
        bad.write_text("0|client|GET\n")
        assert run_cli("run", "--stage", "1", "--workload", str(bad)) == 2

    def test_malformed_fault_script(self, tmp_path):
        bad = tmp_path / "bad.fs"
        bad.write_text("40 explode everything\n")
        assert run_cli("run", "--stage", "1", "--workload", "basic.wl",
                       "--faults", str(bad)) == 2

    # A malformed config push to the gateway is covered in test_gateway.py: a
    # workload line cannot come from the configuration server.
    @pytest.mark.parametrize("line, answer", [
        ('0|admin|POST|/registry/X|{"instance_id":"x-1","address":"x-1","port":[1]}',
         ["400", '{"error":"MalformedInstance"}']),
        ('0|admin|POST|/registry/X|{"instance_id":null,"address":null,"port":1}',
         ["400", '{"error":"MalformedInstance"}']),
        ('0|client|POST|/api/developers|{"name":null,"email":["x"]}',
         ["400", '{"error":"Malformed"}']),
        ('0|client|POST|/api/projects|{"name":null,"owner_developer_id":1}',
         ["400", '{"error":"Malformed"}']),
        ('0|admin|PUT|/config/ResourceManager/default|'
         '{"entries":{"rm.policy":null,"breaker.threshold":["x"]}}',
         ["400", '{"error":"Malformed","field":"entries"}']),
    ], ids=["registry-port", "registry-null-id",
            "developer-null-name", "project-null-name", "config-non-string-entries"])
    def test_malformed_body_is_answered_not_fatal(self, tmp_path, capsys, line, answer):
        script = tmp_path / "one.wl"
        script.write_text(line + "\n")
        assert run_cli("run", "--stage", "6", "--workload", str(script)) == 0
        fields = capsys.readouterr().out.strip().split("\t")
        assert [fields[6], fields[8]] == answer

    @pytest.mark.parametrize("flag", ["--workload", "--faults"])
    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_script_is_a_bad_script(self, tmp_path, capsys, flag, kind):
        argv = {"--workload": "basic.wl", "--faults": None}
        argv[flag] = unreadable(tmp_path, kind)
        args = [arg for key, value in argv.items() if value for arg in (key, value)]
        assert run_cli("run", "--stage", "1", *args) == 2
        assert capsys.readouterr().err.startswith("ssaas-sim: ")

    @pytest.mark.parametrize("client, stage", [
        ("registry", 4), ("gateway", 3), ("developerservices-1", 6), ("monolith", 0),
    ])
    def test_a_client_naming_a_topology_node_is_a_bad_script(self, tmp_path, capsys,
                                                            client, stage):
        script = tmp_path / "one.wl"
        script.write_text(f"0|client|GET|/api/developers/1|\n0|{client}|GET|/api/developers/1|\n")
        assert run_cli("run", "--stage", str(stage), "--workload", str(script)) == 2
        assert capsys.readouterr().err.startswith("ssaas-sim: line 2: ")

    def test_a_line_left_unanswered_is_a_bad_script(self, tmp_path, capsys):
        # The client is killed for good with its first read in flight.
        script = tmp_path / "reads.wl"
        script.write_text("".join(f"{tick}|client|GET|/api/developers/1|\n"
                                  for tick in (10, 12, 14)))
        faults = tmp_path / "kill.fs"
        faults.write_text("11 kill client\n")
        assert run_cli("run", "--stage", "6", "--workload", str(script),
                       "--faults", str(faults)) == 2
        assert capsys.readouterr().err == "ssaas-sim: lines left unanswered: 1, 2, 3\n"

    def test_budget_exhaustion_exit(self, tmp_path):
        assert run_cli("run", "--stage", "1", "--workload", "basic.wl",
                       "--budget", "1") == 3

    def test_usage_error_on_bad_arguments(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--workload", "basic.wl")
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 64


class TestDiff:
    def run_to(self, path, *argv):
        assert run_cli("run", "--out", str(path), *argv) == 0

    def test_equal_traces(self, tmp_path, capsys):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        self.run_to(a, "--stage", "0", "--workload", "basic.wl")
        self.run_to(b, "--stage", "6", "--workload", "basic.wl")
        assert run_cli("diff", str(a), str(b)) == 0
        assert capsys.readouterr().out.strip() == "EQUAL"

    def test_mixed_formats_compare_fine(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.ndjson"
        self.run_to(a, "--stage", "2", "--workload", "basic.wl")
        self.run_to(b, "--stage", "3", "--workload", "basic.wl",
                    "--format", "ndjson")
        assert run_cli("diff", str(a), str(b)) == 0

    def test_divergence_exit_and_message(self, tmp_path, capsys):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        self.run_to(a, "--stage", "6", "--workload", "chat_resilience.wl")
        self.run_to(b, "--stage", "6", "--workload", "chat_resilience.wl",
                    "--faults", "faults_kill_chat.fs")
        assert run_cli("diff", str(a), str(b)) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_unreadable_trace(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("not\ta\ttrace\n")
        assert run_cli("diff", str(bad), str(bad)) == 65
        assert run_cli("diff", str(tmp_path / "none"), str(bad)) == 65

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_undecodable_or_directory_trace(self, tmp_path, capsys, kind):
        path = unreadable(tmp_path, kind)
        assert run_cli("diff", path, path) == 65
        assert capsys.readouterr().err.startswith("ssaas-sim: ")


class TestAuditCommand:
    def test_clean_stage_six_run(self, capsys):
        assert run_cli("audit", "--stage", "6",
                       "--workload", "chat_resilience.wl",
                       "--faults", "faults_kill_chat.fs") == 0
        out = capsys.readouterr().out
        assert "status=OK" in out and "violations=0" in out

    def test_stage_zero_reports_not_applicable(self, capsys):
        assert run_cli("audit", "--stage", "0", "--workload", "basic.wl") == 0
        assert "NOT_APPLICABLE" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_workload_is_a_bad_script_not_violations(self, tmp_path, capsys,
                                                                 kind):
        assert run_cli("audit", "--stage", "1", "--workload", unreadable(tmp_path, kind)) == 2
        assert capsys.readouterr().err.startswith("ssaas-sim: ")


class TestStagesListing:
    def test_all_stages_listed(self, capsys):
        assert run_cli("stages", "ls") == 0
        out = capsys.readouterr().out
        for stage in range(7):
            assert f"stage {stage}:" in out
        assert "6|chatservices-1|ChatServices|DISCOVERED" in out

    def test_full_listing_is_pinned(self, capsys):
        assert run_cli("stages", "ls") == 0
        assert capsys.readouterr().out == STAGES_LS

    def test_single_stage(self, capsys):
        assert run_cli("stages", "ls", "--stage", "0") == 0
        out = capsys.readouterr().out
        assert "monolith" in out and "stage 1:" not in out

    def test_unknown_stage(self):
        assert run_cli("stages", "ls", "--stage", "12") == 64


class TestRegistryListing:
    def test_prints_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "reg.snap"
        run_cli("run", "--stage", "4", "--workload", "basic.wl",
                "--out", str(tmp_path / "t"), "--registry-snapshot", str(snap))
        capsys.readouterr()
        assert run_cli("registry", "ls", "--snapshot", str(snap)) == 0
        out = capsys.readouterr().out
        assert any(line.startswith("DeveloperData|developerdata-1|")
                   for line in out.splitlines())

    def test_missing_snapshot(self, tmp_path):
        assert run_cli("registry", "ls",
                       "--snapshot", str(tmp_path / "none.snap")) == 66

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_snapshot(self, tmp_path, capsys, kind):
        assert run_cli("registry", "ls", "--snapshot", unreadable(tmp_path, kind)) == 66
        assert capsys.readouterr().err.startswith("ssaas-sim: ")


class TestConfigStoreCommands:
    def test_set_then_get(self, tmp_path, capsys):
        store = str(tmp_path / "conf.ckpt")
        assert run_cli("config", "set", "--store", store, "Gateway", "default",
                       "route.1=/api/x|Svc|1", "breaker.threshold=7") == 0
        capsys.readouterr()
        assert run_cli("config", "get", "--store", store,
                       "Gateway", "default") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "Gateway|default|1,1"
        assert "route.1=/api/x|Svc|1" in out
        assert "breaker.threshold=7" in out

    def test_set_bumps_version(self, tmp_path, capsys):
        store = str(tmp_path / "conf.ckpt")
        run_cli("config", "set", "--store", store, "Svc", "default", "a=1")
        run_cli("config", "set", "--store", store, "Svc", "default", "a=2")
        capsys.readouterr()
        run_cli("config", "get", "--store", store, "Svc", "default")
        assert capsys.readouterr().out.splitlines()[0] == "Svc|default|2,2"

    def test_get_without_store_file(self, tmp_path):
        assert run_cli("config", "get", "--store", str(tmp_path / "none.ckpt"),
                       "Svc", "default") == 66

    @pytest.mark.parametrize("line, refusal", [
        ("|default|1|a=1", "line 2: bad service or profile name"),
        ("Svc|default|2|a=2", "line 2: duplicate document Svc|default"),
    ], ids=["empty-service-name", "document-stated-twice"])
    def test_get_refuses_a_store_save_never_writes(self, tmp_path, capsys, line, refusal):
        store = tmp_path / "c.ckpt"
        store.write_text(f"Svc|default|1|a=1\n{line}\n")
        assert run_cli("config", "get", "--store", str(store), "Svc", "default") == 65
        out, err = capsys.readouterr()
        assert out == "" and refusal in err

    @pytest.mark.parametrize("command, entries", [("get", []), ("set", ["a=1"])])
    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_unreadable_store(self, tmp_path, capsys, command, entries, kind):
        store = unreadable(tmp_path, kind)
        assert run_cli("config", command, "--store", store, "Svc", "default", *entries) == 65
        assert capsys.readouterr().err.startswith("ssaas-sim: ")

    def test_set_rejects_bad_pair_syntax(self, tmp_path):
        assert run_cli("config", "set", "--store", str(tmp_path / "c.ckpt"),
                       "Svc", "default", "justakey") == 64

    @pytest.mark.parametrize("service, pair", [
        ("Svc", "a,b=1"), ("Svc", "k=a\rb"), ("Svc", "k\r=1"), ("S\nvc", "a=1"),
        ("S\rvc", "a=1"),
    ], ids=["comma-in-key", "cr-in-value", "cr-in-key", "lf-in-service", "cr-in-service"])
    def test_set_rejects_forbidden_key_characters(self, tmp_path, service, pair):
        store = tmp_path / "c.ckpt"
        assert run_cli("config", "set", "--store", str(store), service, "default", pair) == 64
        assert not store.exists()


# Every argument that names a file, per subcommand, with the documented exit
# code for a directory and for a path under a missing directory.
FILE_ARGUMENTS = {
    ("run", "workload"): (2, 2),
    ("run", "faults"): (2, 2),
    ("run", "out"): (73, 73),
    ("run", "wire_out"): (73, 73),
    ("run", "registry_snapshot"): (73, 73),
    ("diff", "left"): (65, 65),
    ("diff", "right"): (65, 65),
    ("audit", "workload"): (2, 2),
    ("audit", "faults"): (2, 2),
    ("registry ls", "snapshot"): (66, 66),
    ("config get", "store"): (65, 66),
    ("config set", "store"): (65, 73),
}
# String arguments that name something other than a file.
NOT_FILES = {"service", "profile", "entries"}


def leaf_parsers(parser, prefix=""):
    """(command, parser) for every subcommand that takes no further one."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from leaf_parsers(child, f"{prefix} {name}".strip())


def file_arguments():
    """(command, action) for every free-form string argument not in NOT_FILES."""
    return [(command, action)
            for command, parser in leaf_parsers(cli.build_parser())
            for action in parser._actions
            if isinstance(action, argparse._StoreAction) and action.type is None
            and action.choices is None and action.dest not in NOT_FILES]


class TestFileArguments:
    def test_every_file_argument_is_covered(self):
        found = {(command, action.dest) for command, action in file_arguments()}
        assert found == set(FILE_ARGUMENTS)

    @pytest.mark.parametrize("command, action", file_arguments(),
                             ids=lambda v: v if isinstance(v, str) else v.dest)
    @pytest.mark.parametrize("kind", ["directory", "missing-directory"])
    def test_a_bad_path_exits_with_its_code(self, tmp_path, capsys, command, action, kind):
        trace = tmp_path / "good.trace"
        assert run_cli("run", "--stage", "0", "--workload", "basic.wl",
                       "--out", str(trace)) == 0
        bases = {
            "run": ["run", "--stage", "1", "--workload", "basic.wl"],
            "audit": ["audit", "--stage", "1", "--workload", "basic.wl"],
            "diff": ["diff", str(trace), str(trace)],
            "registry ls": ["registry", "ls"],
            "config get": ["config", "get", "Svc", "default"],
            "config set": ["config", "set", "Svc", "default", "a=1"],
        }
        argv = bases[command]
        path = str(tmp_path if kind == "directory" else tmp_path / "nodir" / "file")
        if action.option_strings:
            argv = argv + [action.option_strings[0], path]
        else:  # diff's left or right
            argv[1 + ("left", "right").index(action.dest)] = path
        capsys.readouterr()
        code = run_cli(*argv)
        err = capsys.readouterr().err
        directory_code, missing_code = FILE_ARGUMENTS[command, action.dest]
        assert code == (directory_code if kind == "directory" else missing_code)
        assert err.startswith("ssaas-sim: ") and err.count("\n") == 1, err
