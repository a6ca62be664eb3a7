"""Config document versioning, profile overlay, checkpoints, push + pull."""

from __future__ import annotations

import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaas_sim.chassis import (
    ServiceClient,
    ServiceNode,
    WiringMode,
)
from ssaas_sim.confsvc import (
    CheckpointError,
    ConfigServer,
    ConfigStore,
    MalformedConfig,
)
from ssaas_sim.simwire import Body, Simulator


class TestStore:
    def test_versions_count_up_per_document(self):
        store = ConfigStore()
        assert store.set_config("Svc", "default", {"a": "1"}) == (1, 1)
        assert store.set_config("Svc", "default", {"a": "2"}) == (2, 2)
        assert store.set_config("Svc", "prod", {"b": "3"}) == (2, 1)

    def test_unknown_document_reads_as_zero(self):
        store = ConfigStore()
        merged = store.get_config("Nobody", "default")
        assert merged.version == (0, 0)
        assert merged.entries == {}

    def test_writes_leave_unknown_documents_empty(self):
        store = ConfigStore()
        store.set_config("Svc", "default", {"a": "1"})
        store.get_config("Other", "default").entries["b"] = "2"
        merged = store.get_config("Other", "prod")
        assert merged.version == (0, 0)
        assert merged.entries == {}

    def test_profile_overlays_default(self):
        store = ConfigStore()
        store.set_config("Svc", "default", {"a": "1", "b": "1"})
        store.set_config("Svc", "prod", {"b": "2", "c": "3"})
        merged = store.get_config("Svc", "prod")
        assert merged.entries == {"a": "1", "b": "2", "c": "3"}
        assert merged.version == (1, 1)

    def test_replacement_is_wholesale(self):
        store = ConfigStore()
        store.set_config("Svc", "default", {"a": "1", "b": "2"})
        store.set_config("Svc", "default", {"a": "9"})
        assert store.get_config("Svc", "default").entries == {"a": "9"}

    def test_delimiters_rejected(self):
        store = ConfigStore()
        for bad in ({"a|b": "1"}, {"a": "1,2"}, {"a=b": "1"}, {"a": "x\ny"},
                    {"a": "x\ry"}, {"a\rb": "1"}):
            with pytest.raises(MalformedConfig):
                store.set_config("Svc", "default", bad)
        for service, profile in (("Sv|c", "default"), ("S\nvc", "default"),
                                 ("S\rvc", "default"), ("Svc", "de\nfault"),
                                 ("Svc", "de\rfault")):
            with pytest.raises(MalformedConfig):
                store.set_config(service, profile, {})
        assert store.services() == []

    def test_non_string_values_rejected(self):
        store = ConfigStore()
        store.set_config("Svc", "default", {"a": "1"})
        for bad in ({"a": None}, {"a": ["x"]}, {"a": 5}, {"a": True}):
            with pytest.raises(MalformedConfig):
                store.set_config("Svc", "default", bad)
        merged = store.get_config("Svc", "default")
        assert (merged.version, merged.entries) == ((1, 1), {"a": "1"})

    def test_non_string_keys_rejected(self):
        store = ConfigStore()
        for bad in ({1: "x"}, {None: "x"}, {("a",): "x"}):
            with pytest.raises(MalformedConfig):
                store.set_config("S", "default", bad)
        assert store.services() == []


config_keys = st.text(alphabet="abcdefghijklmnop.-_", min_size=1, max_size=12)
config_values = st.text(alphabet="abcdefghijklmnop0123456789._-", max_size=12)


class TestCheckpoint:
    def test_line_format(self, tmp_path):
        store = ConfigStore()
        store.set_config("Gateway", "default", {"route.1": "/api/chat;Chat", "z": ""})
        path = tmp_path / "conf.ckpt"
        store.save(str(path))
        assert path.read_text() == "Gateway|default|1|route.1=/api/chat;Chat,z=\n"

    def test_values_may_hold_pipes_and_equals(self, tmp_path):
        # Route-table entries look like "prefix|service|strip"; the line
        # format must carry them unharmed.
        store = ConfigStore()
        store.set_config("Gateway", "default",
                         {"route.1": "/api/chat|Chat|1", "eq": "a=b"})
        path = tmp_path / "conf.ckpt"
        store.save(str(path))
        loaded = ConfigStore.load(str(path))
        assert loaded.get_config("Gateway", "default").entries == {
            "route.1": "/api/chat|Chat|1", "eq": "a=b"}

    def test_load_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "conf.ckpt"
        path.write_text("only|three|fields\n")
        with pytest.raises(CheckpointError):
            ConfigStore.load(str(path))
        path.write_text("svc|prof|notanint|a=1\n")
        with pytest.raises(CheckpointError):
            ConfigStore.load(str(path))

    @pytest.mark.parametrize("line", ["|default|1|a=1", "Svc||1|a=1"])
    def test_load_refuses_names_that_set_config_refuses(self, tmp_path, line):
        path = tmp_path / "conf.ckpt"
        path.write_text(f"Svc|default|1|a=1\n{line}\n")
        with pytest.raises(CheckpointError, match="^line 2: bad service or profile name$"):
            ConfigStore.load(str(path))

    @pytest.mark.parametrize("body, key", [("a|b=1", "'a|b'"), ("a=1,=2", "''")])
    def test_load_refuses_keys_that_set_config_refuses(self, tmp_path, body, key):
        path = tmp_path / "conf.ckpt"
        path.write_text(f"Svc|default|1|{body}\n")
        with pytest.raises(CheckpointError, match=f"^line 1: bad entry: {re.escape(key)}$"):
            ConfigStore.load(str(path))

    def test_load_refuses_a_document_stated_twice(self, tmp_path):
        path = tmp_path / "conf.ckpt"
        path.write_text("Svc|default|1|a=1\nSvc|prod|1|b=1\nSvc|default|2|a=2\n")
        with pytest.raises(CheckpointError,
                           match=r"^line 3: duplicate document Svc\|default$"):
            ConfigStore.load(str(path))

    def test_load_refuses_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "conf.ckpt"
        path.write_bytes(b"Svc|default|1|a=1\nSvc|prod|1|city=Montr\xe9al\n")
        with pytest.raises(CheckpointError, match="^not UTF-8: .* byte 0xe9 in position 39: "):
            ConfigStore.load(str(path))

    @given(st.dictionaries(config_keys, config_values, max_size=6),
           st.dictionaries(config_keys, config_values, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_save_load_round_trip(self, default_doc, prod_doc):
        store = ConfigStore()
        store.set_config("Svc", "default", default_doc)
        store.set_config("Svc", "default", default_doc)
        store.set_config("Svc", "prod", prod_doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "conf.ckpt")
            store.save(path)
            loaded = ConfigStore.load(path)
        assert loaded.get_config("Svc", "default").entries == default_doc
        assert loaded.get_config("Svc", "default").version == (2, 2)
        merged = dict(default_doc)
        merged.update(prod_doc)
        assert loaded.get_config("Svc", "prod").entries == merged
        assert loaded.get_config("Svc", "prod").version == (2, 1)


def build_world():
    sim = Simulator()
    confsvc = ConfigServer(sim)
    confsvc.bind()
    admin = ServiceNode(sim, "admin", "Admin").bind()
    ServiceClient(admin, WiringMode.DIRECT_WIRE)
    return sim, confsvc, admin


def wire_call(sim, node, target, method, path, body=None) -> tuple[str, Body]:
    """The (status, body) ``node`` gets for one call to ``target``."""
    results: list[tuple[str, Body]] = []
    node.client.call_node(target, method, path, body,
                          lambda status, reply: results.append((status, reply)))
    assert sim.run_until_idle(budget=200)
    [answer] = results
    return answer


class TestWireApi:
    def test_get_and_set_round_trip(self):
        sim, confsvc, admin = build_world()
        status, reply = wire_call(sim, admin, "confsvc", "PUT", "/config/Svc/default",
                                  {"entries": {"k": "v"}})
        assert (status, reply) == ("200", {"version": [1, 1]})
        status, reply = wire_call(sim, admin, "confsvc", "GET", "/config/Svc/default")
        assert reply["entries"] == {"k": "v"}
        assert reply["version"] == [1, 1]

    def test_set_without_entries_mapping_is_400(self):
        sim, confsvc, admin = build_world()
        status, reply = wire_call(sim, admin, "confsvc", "PUT", "/config/Svc/default",
                                  {"entries": "nope"})
        assert status == "400"

    @pytest.mark.parametrize("path, entries, body", [
        ("/config/a|b/default", {"k": "v"}, {"error": "Malformed"}),
        ("/config/Svc/a|b", {"k": "v"}, {"error": "Malformed"}),
        ("/config/Svc/default", {"k|": "v"}, {"error": "Malformed", "field": "entries"}),
        ("/config/Svc/default", {"k": 1}, {"error": "Malformed", "field": "entries"}),
        ("/config/Svc/default", ["k"], {"error": "Malformed", "field": "entries"}),
    ], ids=["service", "profile", "key", "value", "not-a-map"])
    def test_malformed_write_names_entries_only_when_they_are_at_fault(self, path, entries,
                                                                       body):
        sim, confsvc, admin = build_world()
        status, reply = wire_call(sim, admin, "confsvc", "PUT", path, {"entries": entries})
        assert (status, reply) == ("400", body)
        assert confsvc.store.services() == []

    def test_write_pushes_refresh_to_subscriber(self):
        sim, confsvc, admin = build_world()
        svc = ServiceNode(sim, "svc-1", "Svc").bind()
        confsvc.subscribe("svc-1", "Svc")
        wire_call(sim, admin, "confsvc", "PUT", "/config/Svc/default",
                  {"entries": {"mode": "fast"}})
        assert svc.config.get("mode") == "fast"
        assert svc.config.version == (1, 1)

    def test_write_reads_the_store_once_for_all_subscribers(self, monkeypatch):
        sim, confsvc, admin = build_world()
        nodes = [ServiceNode(sim, name, service).bind()
                 for name, service in [("svc-1", "Svc"), ("svc-2", "Svc"), ("other-1", "Other")]]
        for node in nodes:
            confsvc.subscribe(node.node_id, node.service)
        reads = []
        get_config = confsvc.store.get_config
        monkeypatch.setattr(confsvc.store, "get_config",
                            lambda *args: reads.append(args) or get_config(*args))
        wire_call(sim, admin, "confsvc", "PUT", "/config/Svc/default",
                  {"entries": {"mode": "fast"}})
        # set_config reads its version off the documents; one read serves both pushes.
        assert reads == [("Svc", "default")]
        assert [(n.config.get("mode"), n.config.version) for n in nodes] == [
            ("fast", (1, 1)), ("fast", (1, 1)), (None, (0, 0))]

    def test_profile_write_skips_other_profiles(self):
        sim, confsvc, admin = build_world()
        svc = ServiceNode(sim, "svc-1", "Svc").bind()
        confsvc.subscribe("svc-1", "Svc")
        wire_call(sim, admin, "confsvc", "PUT", "/config/Svc/canary",
                  {"entries": {"x": "1"}})
        assert svc.config.version == (0, 0)

    def test_stale_refresh_cannot_roll_back(self):
        sim, confsvc, admin = build_world()
        svc = ServiceNode(sim, "svc-1", "Svc").bind()
        confsvc.subscribe("svc-1", "Svc")
        wire_call(sim, admin, "confsvc", "PUT", "/config/Svc/default",
                  {"entries": {"v": "first"}})
        wire_call(sim, admin, "confsvc", "PUT", "/config/Svc/default",
                  {"entries": {"v": "second"}})
        assert svc.config.get("v") == "second"
        applied = svc.config.apply_refresh((1, 1), {"v": "first"})
        assert not applied and svc.config.get("v") == "second"

    def test_startup_pull(self):
        sim, confsvc, admin = build_world()
        wire_call(sim, admin, "confsvc", "PUT", "/config/Svc/default",
                  {"entries": {"seeded": "yes"}})
        late = ServiceNode(sim, "late-1", "Svc").bind()
        ServiceClient(late, WiringMode.DIRECT_WIRE)
        late.pull_config()
        assert sim.run_until_idle(budget=100)
        assert late.config.get("seeded") == "yes"

    @pytest.mark.parametrize("doc, pushed", [
        ({"service": "Svc", "profile": "default", "version": "x", "entries": {}},
         ("400", {"error": "Malformed", "field": "version"})),
        ({"service": "Svc", "profile": "default", "version": [1], "entries": {}},
         ("400", {"error": "Malformed", "field": "version"})),
        ({"service": "Svc", "profile": "default", "version": [1, 1], "entries": ["seeded"]},
         ("400", {"error": "Malformed", "field": "entries"})),
        ({"service": "Other", "profile": "default", "version": [1, 1],
          "entries": {"seeded": "yes"}},
         ("200", {"applied": False})),
    ], ids=["version-text", "version-short", "entries-list", "other-service"])
    def test_malformed_startup_pull_ignored(self, doc, pushed):
        sim = Simulator()
        fake = ServiceNode(sim, "confsvc", "ConfigServer").bind()
        fake.route("GET", "/config/{service}/{profile}", lambda req: ("200", doc))
        late = ServiceNode(sim, "late-1", "Svc").bind()
        ServiceClient(late, WiringMode.DIRECT_WIRE)
        late.pull_config()
        assert sim.run_until_idle(budget=100)
        assert (late.config.version, late.config.entries) == ((0, 0), {})
        # pushed, the same document is refused the same way
        ServiceClient(fake, WiringMode.DIRECT_WIRE)
        status, reply = wire_call(sim, fake, "late-1", "POST", "/refresh", doc)
        assert (status, reply) == pushed
        assert (late.config.version, late.config.entries) == ((0, 0), {})
