"""One integer rule: every reader of integer input takes one spelling per
value, the one :func:`ssaas_sim.simwire.read_int` takes, and refuses every
other spelling with the error it already gives for garbage.

One table of bad spellings runs through every reader. Each reader is a
function of the spelling that returns what the reader made of it: the value,
or the error, status or exit code it answered with.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaas_sim import cli
from ssaas_sim.chassis import ConfigView
from ssaas_sim.gateway import InvalidRoute, RouteTable
from ssaas_sim.migration.harness import WorkloadError, parse_workload, run_workload
from ssaas_sim.migration.stages import build_stage
from ssaas_sim.migration.traces import parse_trace
from ssaas_sim.simwire import (FaultEffect, FaultScriptError, canonical_json,
                               parse_fault_script, read_int)

# Text every reader below takes as 5 through a bare int(), except "5.0"
# and "", which int() refuses too.
BAD_SPELLINGS = ["+5", "05", "0_5", " 5", "5 ", "-0", "٥", "5.0", ""]
# A JSON-typed field holds a JSON number, so these are bad there as well.
BAD_JSON = [True, 1.9, "3"]
GOOD_SPELLINGS = ["0", "5", "-1"]

DEVELOPERS = "".join(
    f'0|client|POST|/api/developers|{{"name":"d{i}","email":"d{i}@example.dev"}}\n'
    for i in range(1, 6))


def run_cli(*argv: str) -> tuple[int, str]:
    """Exit code and stdout of one CLI run; argparse's usage errors included."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def wire_id(value, tmp_path):
    """``owner_developer_id`` of a project; developers 1-5 exist."""
    body = json.dumps({"name": "blog", "owner_developer_id": value})
    entries = run_workload(build_stage(0), parse_workload(
        DEVELOPERS + f"25|client|POST|/api/projects|{body}\n"))
    return entries[-1].status, entries[-1].response_body.get("error")


def workload_tick(text, tmp_path):
    try:
        return parse_workload(f"{text}|client|GET|/x|\n")[0].tick
    except WorkloadError:
        return "WorkloadError"


def workload_body(text, tmp_path):
    """``ssaas-sim run`` of a workload whose one body holds ``text`` as a JSON
    number, then that number as parsed."""
    line = f'0|client|POST|/api/projects|{{"name":"p","owner_developer_id":{text}}}\n'
    path = tmp_path / "body.wl"
    path.write_text(line, encoding="utf-8")
    code, _ = run_cli("run", "--stage=0", f"--workload={path}")
    return code if code else parse_workload(line)[0].body["owner_developer_id"]


def fault_tick(text, tmp_path):
    try:
        return parse_fault_script(f"{text} kill x\n")[0][0]
    except FaultScriptError:
        return "FaultScriptError"


def fault_delay(text, tmp_path):
    try:
        return parse_fault_script(f"0 delay a b {text}\n")[0][1].delay_ticks
    except FaultScriptError:
        return "FaultScriptError"


def checkpoint_version(text, tmp_path):
    """``config get`` on a checkpoint whose one document has this version."""
    store = tmp_path / "store.ckpt"
    store.write_text(f"Svc|default|{text}|mode=fast\n", encoding="utf-8")
    code, out = run_cli("config", "get", "--store", str(store), "Svc", "default")
    return code if code else out.split("\n")[0]


def route_key(text, tmp_path):
    """The service of the rule added first: ``/api`` and ``//api`` split
    alike, so the lower ``route.N`` key wins."""
    try:
        table = RouteTable.from_config_entries({f"route.{text}": "/api|First|0",
                                                "route.3": "//api|Third|0"})
    except InvalidRoute:
        return "InvalidRoute"
    return table.resolve("/api/x")[0].service


def trace_file(field, fmt):
    def read(value, tmp_path):
        """``ssaas-sim diff`` of a one-line trace with itself, then the field read."""
        row = {"seq": 0, "client": "client", "method": "GET", "path": "/x", "sent_tick": 0,
               "done_tick": 1, "status": "200", "request": None, "response": None}
        row[field] = value
        if fmt == "ndjson":
            text = json.dumps(row) + "\n"
        else:
            columns = [row[k] for k in ("seq", "client", "method", "path", "sent_tick",
                                        "done_tick", "status")]
            text = "\t".join(map(str, columns)) + "\tnull\tnull\n"
        path = tmp_path / f"trace.{fmt}"
        path.write_text(text, encoding="utf-8")
        code, _ = run_cli("diff", str(path), str(path))
        return code if code else getattr(parse_trace(text)[0], field)
    return read


def config_view(text, tmp_path):
    view = ConfigView()
    view.apply_refresh((1, 1), {"breaker.threshold": text})
    return view.get_int("breaker.threshold", 99)


def cli_stage(text, tmp_path):
    code, out = run_cli("stages", "ls", f"--stage={text}")
    return code or out.partition(":")[0]


def run_option(option):
    def read(text, tmp_path):
        return run_cli("run", "--stage=0", "--workload=basic.wl", f"{option}={text}")[0]
    return read


# reader: (its refusal, what it makes of each good spelling, spellings that
# are not an integer's text in its format)
READERS = {
    "wire id": (wire_id, ("400", "Malformed"),
                {"0": ("404", "UnknownDeveloper"), "5": ("200", None),
                 "-1": ("404", "UnknownDeveloper")}, ()),
    # A line is stripped before it is split, so " 5" is indentation.
    "workload tick": (workload_tick, "WorkloadError",
                      {"0": 0, "5": 5, "-1": "WorkloadError"}, (" 5",)),
    # Spaces around a JSON number are whitespace, and 5.0 is a float's text.
    "workload body": (workload_body, 2, {"0": 0, "5": 5, "-1": -1}, (" 5", "5 ", "5.0")),
    # Spaces separate the fields of a fault-script line.
    "fault tick": (fault_tick, "FaultScriptError",
                   {"0": 0, "5": 5, "-1": "FaultScriptError"}, (" 5", "5 ")),
    "fault delay": (fault_delay, "FaultScriptError",
                    {"0": "FaultScriptError", "5": 5, "-1": "FaultScriptError"}, (" 5", "5 ")),
    "checkpoint version": (checkpoint_version, 65,
                           {"0": "Svc|default|0,0", "5": "Svc|default|5,5",
                            "-1": "Svc|default|-1,-1"}, ()),
    "route key": (route_key, "InvalidRoute",
                  {"0": "First", "5": "Third", "-1": "First"}, ()),
    **{f"{fmt} trace {field}": (trace_file(field, fmt), 65,
                                {"0": 0, "5": 5, "-1": -1}, ())
       for fmt in ("text", "ndjson") for field in ("seq", "sent_tick", "done_tick")},
    "ConfigView.get_int": (config_view, 99, {"0": 0, "5": 5, "-1": -1}, ()),
    "--stage": (cli_stage, 64,
                {"0": "stage 0", "5": "stage 5", "-1": 64}, ()),
    "--seed": (run_option("--seed"), 64, {"0": 0, "5": 0, "-1": 0}, ()),
    "--budget": (run_option("--budget"), 64, {"0": 3, "5": 0, "-1": 64}, ()),
}
# The ndjson fields are JSON-typed: a spelling there is a JSON string, a good
# value a JSON number. A wire id is JSON-typed too, but one rule reads it in
# a path segment and in a body alike, so the JSON string "5" is good there.
JSON_READERS = {name for name in READERS if name.startswith("ndjson")}


def bad_cases():
    for name, (_, _, _, skip) in READERS.items():
        extra = BAD_JSON if name in JSON_READERS else []
        for spelling in BAD_SPELLINGS + extra:
            if spelling not in skip:
                yield pytest.param(name, spelling, id=f"{name}-{spelling!r}")


@pytest.mark.parametrize("name, spelling", bad_cases())
def test_every_reader_refuses_every_other_spelling(name, spelling, tmp_path):
    read, refusal, _, _ = READERS[name]
    assert read(spelling, tmp_path) == refusal


@pytest.mark.parametrize("spelling", GOOD_SPELLINGS)
@pytest.mark.parametrize("name", READERS)
def test_every_reader_reads_the_one_spelling_as_before(name, spelling, tmp_path):
    read, _, good, _ = READERS[name]
    value = int(spelling) if name in JSON_READERS else spelling
    assert read(value, tmp_path) == good[spelling]


def test_read_int_takes_an_int_or_its_one_text():
    assert [read_int(v) for v in (0, -7, "0", "-7", "12", 10**30)] == [0, -7, 0, -7, 12, 10**30]
    for value in [*BAD_SPELLINGS, True, False, 1.9, 5.0, None, b"5", [5]]:
        with pytest.raises(ValueError):
            read_int(value)


def test_a_cli_integer_option_names_its_type_in_its_usage_error(capsys):
    assert run_cli("stages", "ls", "--stage=+5")[0] == 64
    err = capsys.readouterr().err
    assert "argument --stage: invalid integer value: '+5'" in err
    assert "read_int" not in err


# Every JSON number a trace holds, a field or one inside a body, is read by
# the one rule too; -0 is JSON's one other spelling of an integer.
TRACE_JSON_NUMBERS = [("ndjson", field) for field in
                      ("seq", "sent_tick", "done_tick", "request", "response")] + \
                     [("text", field) for field in ("request", "response")]
TRACE_ATTRS = {"request": "request_body", "response": "response_body"}


def trace_with_number(fmt, field, literal):
    """A one-line trace whose ``field`` holds the JSON number ``literal`` as
    written: the field itself, or a body's ``n``."""
    row = {"seq": 0, "client": "client", "method": "GET", "path": "/x", "sent_tick": 0,
           "done_tick": 1, "status": "200", "request": None, "response": None}
    row[field] = {"n": "@"} if field in TRACE_ATTRS else "@"
    if fmt == "ndjson":
        text = json.dumps(row)
    else:
        text = "\t".join([*(str(row[k]) for k in ("seq", "client", "method", "path",
                                                  "sent_tick", "done_tick", "status")),
                          json.dumps(row["request"]), json.dumps(row["response"])])
    return text.replace('"@"', literal) + "\n"


@pytest.mark.parametrize("fmt, field", TRACE_JSON_NUMBERS)
def test_a_trace_reads_its_json_numbers_by_the_one_rule(fmt, field, tmp_path):
    path = tmp_path / f"trace.{fmt}"
    path.write_text(trace_with_number(fmt, field, "-0"), encoding="utf-8")
    assert run_cli("diff", str(path), str(path))[0] == 65
    [entry] = parse_trace(trace_with_number(fmt, field, "-1"))
    value = getattr(entry, TRACE_ATTRS.get(field, field))
    assert value == ({"n": -1} if field in TRACE_ATTRS else -1)


# -- one text per schedule -------------------------------------------------------

FAULT_FIELDS = {FaultEffect.KILL_NODE: ("kill", ("node",)),
                FaultEffect.REVIVE: ("revive", ("node",)),
                FaultEffect.DROP: ("drop", ("source", "destination")),
                FaultEffect.PARTITION: ("partition", ("source", "destination")),
                FaultEffect.DELAY: ("delay", ("source", "destination", "delay_ticks"))}
NAMES = st.sampled_from(["a", "chat-1", "gateway", "*"])
TICKS = st.integers(min_value=0, max_value=10**6)


def fault_rows(schedule):
    """``[tick, action, args...]`` per parsed fault-script line."""
    rows = []
    for tick, rule in schedule:
        action, fields = FAULT_FIELDS[rule.effect]
        rows.append([tick, action, *(getattr(rule, field) for field in fields)])
    return rows


def workload_rows(lines):
    return [[line.tick, line.client, line.method, line.path,
             "" if line.body is None else canonical_json(line.body)] for line in lines]


def write(rows, sep):
    return "".join(sep.join(map(str, row)) + "\n" for row in rows)


@st.composite
def fault_scripts(draw):
    rows = []
    for tick in draw(st.lists(TICKS, min_size=1, max_size=8)):
        action, fields = FAULT_FIELDS[draw(st.sampled_from(sorted(FAULT_FIELDS)))]
        args = [draw(NAMES) for _ in fields]
        if action == "delay":
            args[-1] = draw(st.integers(min_value=1, max_value=10**6))
        rows.append([tick, action, *args])
    return rows


@st.composite
def workloads(draw):
    bodies = st.none() | st.dictionaries(st.sampled_from(["name", "kind", "n"]),
                                         st.integers() | st.text(max_size=3), max_size=2)
    return [[tick, draw(st.sampled_from(["client", "admin"])),
             draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"])),
             draw(st.sampled_from(["/api/developers", "/api/projects/1"])),
             "" if (body := draw(bodies)) is None else canonical_json(body)]
            for tick in sorted(draw(st.lists(TICKS, min_size=1, max_size=8)))]


# Each makes a non-canonical text of an integer's str().
RESPELL = [lambda s: "0" + s, lambda s: "+" + s,
           lambda s: s.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))]


def respelled(draw, rows):
    """``rows`` with one integer, drawn, spelled another way."""
    spots = [(i, j) for i, row in enumerate(rows) for j, cell in enumerate(row)
             if isinstance(cell, int)]
    i, j = draw(st.sampled_from(spots))
    rows = [list(row) for row in rows]
    rows[i][j] = draw(st.sampled_from(RESPELL))(str(rows[i][j]))
    return rows


@settings(max_examples=60, deadline=None)
@given(rows=fault_scripts(), data=st.data())
def test_a_fault_script_has_one_text_per_schedule(rows, data):
    text = write(rows, " ")
    parsed = fault_rows(parse_fault_script(text))
    assert parsed == rows
    assert write(parsed, " ") == text
    with pytest.raises(FaultScriptError):
        parse_fault_script(write(respelled(data.draw, rows), " "))


@settings(max_examples=60, deadline=None)
@given(rows=workloads(), data=st.data())
def test_a_workload_has_one_text_per_schedule(rows, data):
    text = write(rows, "|")
    parsed = workload_rows(parse_workload(text))
    assert parsed == rows
    assert write(parsed, "|") == text
    with pytest.raises(WorkloadError):
        parse_workload(write(respelled(data.draw, rows), "|"))
