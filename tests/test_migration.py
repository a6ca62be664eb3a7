"""Stage topologies, the workload harness, traces, and the ownership audit."""

from __future__ import annotations

import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaas_sim.migration.audit import (AUDIT_NOT_APPLICABLE, AUDIT_OK, AUDIT_VIOLATIONS,
                                      audit_ownership, classify_write, expected_owner)
from ssaas_sim.migration.harness import (BudgetExceeded, WorkloadError, WorkloadLine,
                                        parse_workload, run_workload)
from ssaas_sim.migration.stages import STAGES, UnknownStage, build_stage
from ssaas_sim.migration.traces import (ID_FAMILIES, TraceDiff, TraceEntry, TraceFormatError,
                                       compare_traces, normalize_trace, parse_trace,
                                       serialize_trace)
from ssaas_sim.simwire import Envelope, parse_fault_script
from ssaas_sim.workloads import load_text


def wl(text: str):
    return parse_workload(text)


class TestStageBuilder:
    def test_unknown_stage_rejected(self):
        with pytest.raises(UnknownStage):
            build_stage(7)
        with pytest.raises(UnknownStage):
            build_stage(-1)

    def test_stage_zero_is_one_deployable_plus_client(self):
        handle = build_stage(0)
        assert sorted(handle.nodes) == ["client", "monolith"]

    def test_node_sets_grow_monotonically(self):
        previous: set[str] = set()
        for stage in sorted(STAGES):
            nodes = set(build_stage(stage).nodes) - {"client", "monolith"}
            assert previous - {"monolith"} <= nodes | {"monolith"}
            if stage >= 1:
                assert previous <= nodes
                previous = nodes

    def test_infrastructure_appears_at_its_stage(self):
        for stage in sorted(STAGES):
            handle = build_stage(stage)
            assert (handle.confsvc is not None) == (stage >= 2)
            assert (handle.gateway is not None) == (stage >= 3)
            assert (handle.registry is not None) == (stage >= 4)

    def test_manifest_lines_name_stage_node_role_wiring(self):
        lines = build_stage(4).manifest_lines()
        assert "4|contentservices-1|ContentServices|DISCOVERED" in lines
        assert "4|registry|ServiceRegistry|-" in lines
        assert all(line.startswith("4|") for line in lines)

    def test_direct_stages_use_static_wiring(self):
        handle = build_stage(1)
        node = handle.nodes["developerservices-1"]
        assert node.client.mode == "DIRECT_WIRE"

    def test_registry_holds_all_app_services_after_settle(self):
        handle = build_stage(6)
        services = {i.service for i in handle.registry.store.all_instances()}
        assert services == {"DeveloperServices", "DeveloperData", "ContentServices",
                            "ResourceManager", "ChatServices", "DeveloperInfoServices"}

    @pytest.mark.parametrize("stage", [4, 5, 6])
    def test_startup_pulls_every_config_before_any_registration(self, stage):
        handle = build_stage(stage)
        first_tick = [(r.source, r.destination) for r in handle.sim.records
                      if r.kind == "REQUEST" and r.tick == 1]
        apps = [f"{service.lower()}-1" for service in STAGES[stage].services]
        assert first_tick == [(n, "confsvc") for n in apps + ["gateway"]] \
            + [(n, "registry") for n in apps]

    def test_scale_out_adds_registered_instance(self):
        handle = build_stage(4)
        node_id = handle.add_instance("ContentServices")
        assert node_id == "contentservices-2"
        handle.sim.run_until_idle(budget=50)
        ids = {i.instance_id for i in
               handle.registry.store.query("ContentServices", handle.sim.now)}
        assert ids == {"contentservices-1", "contentservices-2"}

    def test_scale_out_requires_discovery_stage(self):
        with pytest.raises(UnknownStage):
            build_stage(3).add_instance("ContentServices")

    @pytest.mark.parametrize("stage,service", [
        (4, "ChatServices"), (4, "DeveloperInfoServices"), (4, "ResourceManager"),
        (5, "ChatServices"), (5, "DeveloperInfoServices"), (5, "ResourceManager"),
        (6, "DeveloperData"), (6, "Gateway"), (6, "NoSuchService"),
    ])
    def test_scale_out_only_adds_services_the_stage_runs(self, stage, service):
        handle = build_stage(stage)
        nodes = dict(handle.nodes)
        registered = handle.registry.store.all_instances()
        with pytest.raises(UnknownStage):
            handle.add_instance(service)
        assert handle.nodes == nodes
        assert handle.sim.run_until_idle(budget=50)
        assert [i.instance_id for i in handle.registry.store.all_instances()] \
            == [i.instance_id for i in registered]

    @pytest.mark.parametrize("stage", [5, 6])
    def test_scale_out_developer_services(self, stage):
        handle = build_stage(stage)
        node_id = handle.add_instance("DeveloperServices")
        assert node_id == "developerservices-2"
        first, second = handle.nodes["developerservices-1"], handle.nodes[node_id]
        assert (second.dev_entity, second.resources_service) \
            == (first.dev_entity, first.resources_service)
        assert handle.sim.run_until_idle(budget=50)
        handle.settle_tick = handle.sim.now
        assert second.config.version != (0, 0)
        assert second.config.entries == first.config.entries
        ids = {i.instance_id for i in
               handle.registry.store.query("DeveloperServices", handle.sim.now)}
        assert ids == {"developerservices-1", "developerservices-2"}
        lines = ('0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n'
                 + "".join(f'{25 * (i + 1)}|client|POST|/api/projects|'
                           f'{{"name":"p{i}","owner_developer_id":1}}\n' for i in range(4)))
        entries = run_workload(handle, wl(lines))
        assert [e.status for e in entries] == ["200"] * 5
        hits = [r.destination for r in handle.sim.records
                if r.kind == "REQUEST" and r.path == "/projects"]
        assert sorted(hits) == ["developerservices-1"] * 2 + ["developerservices-2"] * 2


class TestWorkloadParsing:
    def test_lines_comments_and_blanks(self):
        lines = wl("# comment\n\n0|client|GET|/api/x|\n"
                   "5|admin|PUT|/config/A/default|{\"entries\":{}}\n")
        assert len(lines) == 2
        assert lines[0].body is None
        assert lines[1].body == {"entries": {}}
        assert lines[1].client == "admin"

    def test_rejects_wrong_field_count(self):
        with pytest.raises(WorkloadError):
            wl("0|client|GET|/api/x\n")

    def test_rejects_bad_tick_and_order(self):
        with pytest.raises(WorkloadError):
            wl("x|client|GET|/a|\n")
        with pytest.raises(WorkloadError):
            wl("-1|client|GET|/a|\n")
        with pytest.raises(WorkloadError):
            wl("5|client|GET|/a|\n3|client|GET|/a|\n")

    def test_rejects_bad_method_path_body(self):
        with pytest.raises(WorkloadError):
            wl("0|client|PATCH|/a|\n")
        with pytest.raises(WorkloadError):
            wl("0|client|GET|a|\n")
        with pytest.raises(WorkloadError):
            wl("0|client|POST|/a|{broken\n")
        with pytest.raises(WorkloadError):
            wl("0||GET|/a|\n")

    def test_pipes_allowed_inside_body(self):
        lines = wl('0|client|POST|/a|{"v":"x|y|z"}\n')
        assert lines[0].body == {"v": "x|y|z"}


body_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.text(alphabet="abc|\t\n\\\" {}", max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="abcxyz_", min_size=1, max_size=6),
                      inner, max_size=3),
    max_leaves=8)


class TestTraceSerialization:
    def entry(self, **over) -> TraceEntry:
        base = dict(seq=0, client="client", method="GET", path="/api/x",
                    request_body=None, sent_tick=3, status="200",
                    response_body={"ok": True}, done_tick=9)
        base.update(over)
        return TraceEntry(**base)

    @given(req=body_values, resp=body_values)
    @settings(max_examples=60, deadline=None)
    def test_text_roundtrip_any_body(self, req, resp):
        entries = [self.entry(request_body=req, response_body=resp)]
        assert parse_trace(serialize_trace(entries, "text")) == entries

    @given(req=body_values, resp=body_values)
    @settings(max_examples=60, deadline=None)
    def test_ndjson_roundtrip_any_body(self, req, resp):
        entries = [self.entry(request_body=req, response_body=resp)]
        assert parse_trace(serialize_trace(entries, "ndjson")) == entries

    def test_format_detected_per_file(self):
        entries = [self.entry()]
        assert parse_trace(serialize_trace(entries, "ndjson")) == entries
        assert parse_trace(serialize_trace(entries, "text")) == entries

    def test_bad_column_count_rejected(self):
        # a valid line and a blank line come first: the error names line 3
        head = serialize_trace([self.entry()], "text") + "\n"
        with pytest.raises(TraceFormatError, match=r"^line 3: expected 9 columns, got 3$"):
            parse_trace(head + "1\t2\t3\n")

    def test_bad_json_rejected(self):
        line = "0\tclient\tGET\t/x\t1\t2\t200\t{bad\tnull"
        head = serialize_trace([self.entry()], "text") + "\n"
        with pytest.raises(TraceFormatError, match=re.escape(
                "line 3: Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)")):
            parse_trace(head + line + "\n")
        head = serialize_trace([self.entry()], "ndjson") + "\n"
        with pytest.raises(TraceFormatError, match=r"^line 3: 'client'$"):
            parse_trace(head + '{"seq": 0}\n')

    def test_unknown_format_rejected(self):
        with pytest.raises(TraceFormatError):
            serialize_trace([], "yaml")


class TestNormalization:
    def entry(self, seq, response, path="/api/x", status="200") -> TraceEntry:
        return TraceEntry(seq=seq, client="client", method="POST", path=path,
                          request_body=None, sent_tick=seq, status=status,
                          response_body=response, done_tick=seq + 40)

    def test_ids_become_first_appearance_placeholders(self):
        left = [self.entry(0, {"developer_id": 4}),
                self.entry(1, {"developer_id": 9, "project_id": 4})]
        right = [self.entry(0, {"developer_id": 1}),
                 self.entry(1, {"developer_id": 2, "project_id": 1})]
        assert compare_traces(left, right).equal

    def test_same_id_keeps_same_placeholder(self):
        left = [self.entry(0, {"developer_id": 4}),
                self.entry(1, {"developer_id": 4})]
        right = [self.entry(0, {"developer_id": 1}),
                 self.entry(1, {"developer_id": 2})]
        outcome = compare_traces(left, right)
        assert not outcome.equal and outcome.index == 1

    def test_database_names_normalized_but_server_ids_literal(self):
        norm = normalize_trace([self.entry(
            0, {"database_name": "db_17", "server_id": "oracle-a"})])
        assert norm[0]["response"]["database_name"] == "<database_name#1>"
        assert norm[0]["response"]["server_id"] == "oracle-a"

    def test_ticks_not_compared(self):
        a = self.entry(0, {"ok": True})
        b = TraceEntry(seq=0, client="client", method="POST", path="/api/x",
                       request_body=None, sent_tick=99, status="200",
                       response_body={"ok": True}, done_tick=400)
        assert compare_traces([a], [b]).equal

    def test_divergence_names_entry_and_field(self):
        left = [self.entry(0, {"values": {"x": 1}})]
        right = [self.entry(0, {"values": {"x": 2}})]
        outcome = compare_traces(left, right)
        assert not outcome.equal
        assert outcome.index == 0
        assert outcome.field == "response.values.x"
        assert "DIVERGED" in outcome.summary()

    def test_length_mismatch_reported(self):
        entries = [self.entry(0, {})]
        outcome = compare_traces(entries, entries + [self.entry(1, {})])
        assert not outcome.equal and outcome.field == "<length>"

    def test_bool_int_confusion_is_divergence(self):
        left = [self.entry(0, {"flag": True})]
        right = [self.entry(0, {"flag": 1})]
        assert not compare_traces(left, right).equal


def ref_first_diff(a, b, path):
    """The plain walk ``compare_traces`` ran on every entry before it cleared
    equal entries by their text."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a:
                return sub, "<absent>", b[key]
            if key not in b:
                return sub, a[key], "<absent>"
            found = ref_first_diff(a[key], b[key], sub)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (av, bv) in enumerate(zip(a, b)):
            found = ref_first_diff(av, bv, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path}.<length>", len(a), len(b)
        return None
    if a != b or type(a) is not type(b):
        return path, a, b
    return None


def ref_compare_traces(left, right) -> TraceDiff:
    a, b = normalize_trace(left), normalize_trace(right)
    for i in range(min(len(a), len(b))):
        found = ref_first_diff(a[i], b[i], "")
        if found:
            field, lv, rv = found
            return TraceDiff(False, index=i, field=field, left=lv, right=rv)
    if len(a) != len(b):
        return TraceDiff(False, index=min(len(a), len(b)), field="<length>",
                         left=len(a), right=len(b))
    return TraceDiff(True)


# Values that == one another across types, and text that looks like them.
_LOOKALIKES = ((0, 0.0, -0.0, False), (1, 1.0, True))
_leaves = (st.none() | st.sampled_from([x for group in _LOOKALIKES for x in group])
           | st.integers(-2, 2) | st.floats(allow_infinity=True, allow_nan=True)
           | st.just(float("nan")) | st.sampled_from(["nan", "NaN", "1", "db_1", "x"]))
_trace_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.sampled_from(["a", "b", "developer_id", "project_id",
                                       "database_name"]), inner, max_size=3),
    max_leaves=8)


def _twin(value, data):
    """A value that often equals ``value`` under ==, in a type or key order
    that may differ from it."""
    if isinstance(value, dict):
        items = [(k, _twin(v, data)) for k, v in value.items()]
        if data.draw(st.booleans()):
            items.reverse()
        return dict(items)
    if isinstance(value, (list, tuple)):
        items = [_twin(v, data) for v in value]
        return data.draw(st.sampled_from([type(value), type(value), list, tuple]))(items)
    for group in _LOOKALIKES:
        if isinstance(value, (bool, int, float)) and value in group:
            return data.draw(st.sampled_from((value,) * len(group) + group))
    return value


def _renumber(value, key=None):
    """``value`` with every generated id moved by 100, the way another
    topology might number the same objects."""
    if isinstance(value, dict):
        return {k: _renumber(v, k) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_renumber(v, key) for v in value)
    if key in ID_FAMILIES and isinstance(value, int) and not isinstance(value, bool):
        return value + 100
    if key == "database_name" and isinstance(value, str) and re.fullmatch(r"db_\d+", value):
        return f"db_{int(value[3:]) + 100}"
    return value


def _lookalike(value, data):
    """``value`` with leaves swapped for ones that == them: NaN for a fresh
    NaN, -0.0 for 0.0, 1 for 1.0 or True."""
    if isinstance(value, dict):
        return {k: _lookalike(v, data) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_lookalike(v, data) for v in value)
    if isinstance(value, float) and value != value:
        return float("nan")
    for group in _LOOKALIKES:
        if isinstance(value, (bool, int, float)) and value in group:
            return data.draw(st.sampled_from(group))
    return value


def _reordered(value):
    """``value`` with the keys of every dict in reverse order."""
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(list(value))}
    if isinstance(value, (list, tuple)):
        return type(value)(_reordered(v) for v in value)
    return value


class TestCompareTracesReference:
    """``compare_traces`` clears equal traces, and then equal entries, by
    their text and walks only the rest; every outcome must be the plain
    walk's."""

    @staticmethod
    def _entry(seq, path, request, response) -> TraceEntry:
        return TraceEntry(seq=seq, client="client", method="POST", path=path,
                          request_body=request, sent_tick=seq, status="200",
                          response_body=response, done_tick=seq + 1)

    @given(bodies=st.lists(st.tuples(st.sampled_from(["/a", "/b"]), _trace_values,
                                     _trace_values), max_size=4),
           data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_outcome_equals_the_plain_walk(self, bodies, data):
        left = [self._entry(i, path, req, resp) for i, (path, req, resp) in enumerate(bodies)]
        right = [self._entry(i, data.draw(st.sampled_from([path, path, "/c"])),
                             _twin(req, data), _twin(resp, data))
                 for i, (path, req, resp) in enumerate(bodies)]
        cut = data.draw(st.integers(0, 2))
        if cut == 1 and right:
            right.pop()
        elif cut == 2:
            right.append(self._entry(len(right), "/a", None, None))
        got, want = compare_traces(left, right), ref_compare_traces(left, right)
        # repr, so that a NaN reported on both sides still compares equal
        assert repr(got) == repr(want)
        assert (got.equal, got.index, got.field) == (want.equal, want.index, want.field)

    @given(bodies=st.lists(st.tuples(st.sampled_from(["/a", "/b"]), _trace_values,
                                     _trace_values), max_size=4),
           derive=st.sampled_from(["copy", "renumber", "change", "lookalike",
                                   "reorder", "truncate"]),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_right_trace_derived_from_the_left(self, bodies, derive, data):
        left = [self._entry(i, path, req, resp) for i, (path, req, resp) in enumerate(bodies)]
        if derive == "copy":  # fresh objects, same values
            right = [e._replace(request_body=copy.deepcopy(e.request_body),
                                response_body=copy.deepcopy(e.response_body)) for e in left]
        elif derive == "renumber":
            right = [e._replace(request_body=_renumber(e.request_body),
                                response_body=_renumber(e.response_body)) for e in left]
        elif derive == "change":
            right = list(left)
            if right:
                i = data.draw(st.integers(0, len(right) - 1))
                name = data.draw(st.sampled_from(TraceEntry._fields))
                if name in ("request_body", "response_body"):
                    value = data.draw(_trace_values)
                elif name in ("seq", "sent_tick", "done_tick"):
                    value = data.draw(st.integers(0, 9))
                else:
                    value = data.draw(st.sampled_from(["client", "GET", "/a", "/c", "200", "404"]))
                right[i] = right[i]._replace(**{name: value})
        elif derive == "lookalike":
            right = [e._replace(request_body=_lookalike(e.request_body, data),
                                response_body=_lookalike(e.response_body, data)) for e in left]
        elif derive == "reorder":
            right = [e._replace(request_body=_reordered(e.request_body),
                                response_body=_reordered(e.response_body)) for e in left]
        else:
            right = left[:data.draw(st.integers(0, len(left)))]
        got, want = compare_traces(left, right), ref_compare_traces(left, right)
        assert repr(got) == repr(want)
        assert repr(compare_traces(iter(left), iter(right))) == repr(want)

    def test_equal_stage_traces_are_not_normalized(self, monkeypatch):
        from ssaas_sim.migration import traces

        lines = parse_workload(load_text("basic.wl"))
        reference = run_workload(build_stage(0), lines)
        stage_traces = [run_workload(build_stage(stage), lines) for stage in range(1, 7)]

        def refuse(entries):
            raise AssertionError("an equal trace was normalized")

        monkeypatch.setattr(traces, "normalize_trace", refuse)
        for entries in stage_traces:
            assert compare_traces(reference, entries) == TraceDiff(True)


class TestHarness:
    def test_trace_order_is_line_order(self):
        handle = build_stage(1)
        entries = run_workload(handle, wl(
            '0|client|POST|/api/developers|{"name":"a","email":"a@x.dev"}\n'
            "0|client|GET|/api/developers/1|\n"
            "30|client|GET|/api/developers/99|\n"))
        assert [e.seq for e in entries] == [0, 1, 2]
        assert [e.status for e in entries] == ["200", "200", "404"]

    def test_unrouted_path_gets_404_at_every_stage(self):
        for stage in (0, 2, 3):
            handle = build_stage(stage)
            entries = run_workload(handle, wl("0|client|GET|/nothing/here|\n"))
            assert entries[0].status == "404"
            assert entries[0].response_body == {"error": "NoRoute"}

    def test_admin_reaches_config_and_registry(self):
        handle = build_stage(6)
        entries = run_workload(handle, wl(
            "0|admin|GET|/config/ResourceManager/default|\n"
            "10|admin|GET|/registry/ContentServices|\n"))
        assert entries[0].status == "200"
        assert entries[0].response_body["entries"]["rm.policy"] == "least_used"
        assert entries[1].status == "200"
        assert entries[1].response_body[0]["instance_id"] == "contentservices-1"

    @pytest.mark.parametrize("path, target", [
        ("/config", "confsvc"),
        ("/config/ResourceManager/default", "confsvc"),
        ("/registry/ContentServices", "registry"),
        ("/configX", "gateway"),
        ("/registryX/ContentServices", "gateway"),
        ("/api/config", "gateway"),
    ])
    def test_admin_paths_match_whole_segments(self, path, target):
        handle = build_stage(6)
        run_workload(handle, wl(f"0|admin|GET|{path}|\n"))
        sent = [r.destination for r in handle.sim.records
                if r.source == "admin" and r.kind == "REQUEST"]
        assert sent == [target]

    @pytest.mark.parametrize("path, target", [
        ("/config", "confsvc"),
        ("/config/x", "confsvc"),
        ("/configx", "gateway"),
        ("//config", "gateway"),
        ("/registry", "registry"),
        ("/registry/S", "registry"),
        ("/registryx", "gateway"),
        ("config/ResourceManager/default", "gateway"),
    ])
    def test_admin_routing_at_the_edges(self, path, target):
        # The line is built by hand, so a path without a leading "/", which
        # parse_workload refuses, reaches the router too. At stage 6 the
        # ordinary route is the gateway.
        handle = build_stage(6)
        run_workload(handle, [WorkloadLine(0, "admin", "GET", path, None)])
        sent = [r.destination for r in handle.sim.records
                if r.source == "admin" and r.kind == "REQUEST"]
        assert sent == [target]

    def test_admin_infrastructure_paths_unavailable_before_stage_two(self):
        handle = build_stage(1)
        entries = run_workload(handle, wl(
            "0|admin|GET|/config/ResourceManager/default|\n"))
        assert entries[0].status == "503"

    @pytest.mark.parametrize("stage, client, service", [
        (0, "monolith", "Monolith"), (3, "gateway", "Gateway"), (4, "registry", "ServiceRegistry"),
        (6, "developerservices-1", "DeveloperServices"), (6, "confsvc", "ConfigServer"),
    ])
    def test_a_client_naming_a_topology_node_is_refused_before_any_send(self, stage, client,
                                                                         service):
        handle = build_stage(stage)
        sim = handle.sim
        before = (sim.sent, sim.now, sim.queue_depth)
        with pytest.raises(WorkloadError) as err:
            run_workload(handle, wl("0|client|GET|/api/developers/1|\n"
                                    f"# a comment\n5|{client}|GET|/api/developers/1|\n"),
                         faults=parse_fault_script("0 kill gateway\n"))
        assert str(err.value) == f"line 3: client {client!r} is a {service} node"
        assert (sim.sent, sim.now, sim.queue_depth) == before

    def test_faults_activate_before_same_tick_sends(self):
        handle = build_stage(1)
        entries = run_workload(
            handle,
            wl('0|client|POST|/api/developers|{"name":"a","email":"a@x.dev"}\n'
               "40|client|GET|/api/developers/1|\n"),
            faults=parse_fault_script("40 kill developerservices-1\n"))
        assert entries[0].status == "200"
        assert entries[1].status == "503"

    def test_budget_exhaustion_raises(self):
        handle = build_stage(1)
        with pytest.raises(BudgetExceeded):
            run_workload(handle, wl("0|client|GET|/api/developers/1|\n"),
                         budget=1)

    def test_round_robin_spreads_over_scaled_out_instances(self):
        handle = build_stage(4)
        handle.add_instance("ContentServices")
        handle.sim.run_until_idle(budget=50)
        handle.settle_tick = handle.sim.now
        lines = "".join(f"{i * 25}|client|GET|/api/content/1/posts|\n"
                        for i in range(8))
        entries = run_workload(handle, wl(lines))
        assert all(e.status == "200" for e in entries)
        hits = [r.destination for r in handle.sim.records
                if r.kind == "REQUEST" and r.path == "/content/1/posts"]
        assert hits.count("contentservices-1") == 4
        assert hits.count("contentservices-2") == 4


class TestAudit:
    def test_stage_zero_not_applicable(self):
        handle = build_stage(0)
        run_workload(handle, wl("0|client|GET|/api/developers/9|\n"))
        report = audit_ownership(handle.sim.records, 0, handle.node_services())
        assert report.status == AUDIT_NOT_APPLICABLE

    def test_clean_run_has_no_violations(self):
        for stage in (1, 5, 6):
            handle = build_stage(stage)
            run_workload(handle, parse_workload(load_text("basic.wl")))
            report = audit_ownership(handle.sim.records, stage,
                                     handle.node_services())
            assert report.status == AUDIT_OK, (stage, report.lines())
            assert report.writes_checked > 0

    def test_planted_cross_service_write_is_attributed(self):
        handle = build_stage(6)
        run_workload(handle, wl(
            '0|client|POST|/api/developers|{"name":"a","email":"a@x.dev"}\n'))
        sim = handle.sim
        sim.send(Envelope.request("developerservices-1", "contentservices-1",
                                  "/schema/projects/1/tables/x/columns",
                                  "POST", {"column": "c", "type": "int"}))
        sim.run_until_idle(budget=50)
        report = audit_ownership(sim.records, 6, handle.node_services())
        assert report.status == AUDIT_VIOLATIONS
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.entity == "ProjectSchema"
        assert violation.expected == "DeveloperData"
        assert violation.actual == "ContentServices"
        assert violation.destination == "contentservices-1"
        assert any("violation|" in line for line in report.lines())

    def test_reads_the_wire_trace_like_a_list_of_records(self):
        handle = build_stage(6)
        run_workload(handle, parse_workload(load_text("basic.wl")))
        sim = handle.sim
        sim.send(Envelope.request("developerservices-1", "contentservices-1",
                                  "/schema/projects/1/tables/x/columns",
                                  "POST", {"column": "c", "type": "int"}))
        sim.run_until_idle(budget=50)
        services = handle.node_services()
        report = audit_ownership(sim.records, 6, services)
        assert report.status == AUDIT_VIOLATIONS and report.writes_checked > 1
        assert report == audit_ownership(list(sim.records), 6, services)

    def test_clean_reports_do_not_share_a_violations_list(self):
        for stage in (0, 6):
            first, second = audit_ownership([], stage, {}), audit_ownership([], stage, {})
            assert first.violations == second.violations == []
            assert first.violations is not second.violations

    def test_owner_map_tracks_entity_moves(self):
        assert expected_owner("Developer", 5) == "DeveloperData"
        assert expected_owner("Developer", 6) == "DeveloperInfoServices"
        assert expected_owner("ServerResource", 4) == "DeveloperData"
        assert expected_owner("ServerResource", 5) == "ResourceManager"
        assert expected_owner("ContentRecord", 1) == "ContentServices"

    def test_classification_ignores_use_case_surfaces(self):
        assert classify_write("/developers", 5) is None
        assert classify_write("/developers", 6) == "Developer"
        assert classify_write("/developers/3/kinds", 6) == "Developer"
        assert classify_write("/projects", 6) is None
        assert classify_write("/schema/projects/1/tables", 2) == "ProjectSchema"
        assert classify_write("/registry/Svc", 6) is None
        assert classify_write("/refresh", 6) is None
        assert classify_write("/content/1/posts", 3) == "ContentRecord"


class TestCrossStageEquality:
    def test_direct_and_gateway_worlds_agree_on_basic_workload(self):
        lines = parse_workload(load_text("basic.wl"))
        reference = run_workload(build_stage(3), lines)
        for stage in (0, 4):
            outcome = compare_traces(reference, run_workload(build_stage(stage), lines))
            assert outcome.equal, (stage, outcome.summary())

    def test_adding_a_service_kind_agrees_at_every_stage(self):
        # No bundled workload sends this route. Stages 1-5 relay it through
        # DeveloperServices; stage 6 sends it to DeveloperInfoServices.
        lines = wl(
            '0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n'
            '25|client|POST|/api/developers/1/kinds|{"kind":"CHAT"}\n'
            '50|client|POST|/api/developers/1/kinds|{"kind":"CHAT"}\n'
            '75|client|POST|/api/developers/1/kinds|{"kind":"RDBMS"}\n'
            '100|client|POST|/api/developers/99/kinds|{"kind":"CHAT"}\n'
            '125|client|POST|/api/developers/1/kinds|{"label":"CHAT"}\n'
            "150|client|GET|/api/developers/1|\n")
        reference = run_workload(build_stage(0), lines)
        kinds = [e.response_body.get("service_kinds") for e in reference]
        assert kinds == [[], ["CHAT"], ["CHAT"], ["CHAT", "RDBMS"], None, None,
                         ["CHAT", "RDBMS"]]
        assert [(e.status, e.response_body) for e in reference[4:6]] == [
            ("404", {"error": "UnknownDeveloper"}),
            ("400", {"error": "Malformed", "field": "kind"})]
        for stage in range(1, 7):
            outcome = compare_traces(reference, run_workload(build_stage(stage), lines))
            assert outcome.equal, (stage, outcome.summary())

    @pytest.mark.parametrize("spelling, want", [
        ("1", ("200", 1)), ("-1", ("404", None)), (" 1", ("400", None)), ("+1", ("400", None)),
        ("0_1", ("400", None)), ("01", ("400", None)), ("\u0661", ("400", None))],
        ids=["canonical", "negative", "space", "plus", "underscore", "zero", "arabic-indic"])
    @pytest.mark.parametrize("stage", [0, 6])
    def test_an_id_has_one_spelling(self, stage, spelling, want):
        # int() reads every refused spelling here as 1, and developer 1 exists.
        entries = run_workload(build_stage(stage), wl(
            '0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n'
            f"25|client|GET|/api/developers/{spelling}|\n"))
        assert (entries[1].status, entries[1].response_body.get("developer_id")) == want
        if want[0] == "400":
            assert entries[1].response_body == {"error": "Malformed"}

    @pytest.mark.parametrize("owner", ["true", "1.5"])
    @pytest.mark.parametrize("stage", [0, 6])
    def test_a_non_integer_owner_id_is_malformed(self, stage, owner):
        # Developer 1 exists, so reading ``true`` or ``1.5`` as 1 would provision.
        handle = build_stage(stage)
        entries = run_workload(handle, wl(
            '0|client|POST|/api/developers|{"name":"ann","email":"ann@example.dev"}\n'
            f'25|client|POST|/api/projects|{{"name":"blog","owner_developer_id":{owner}}}\n'))
        assert (entries[1].status, entries[1].response_body) == ("400", {"error": "Malformed"})
        assert handle.stores.pool.active_reservations() == []
