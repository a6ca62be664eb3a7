"""Domain stores and the service nodes' business flows."""

from __future__ import annotations

import gc
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaas_sim.chassis import Request, ServiceClient, ServiceNode, WiringMode
from ssaas_sim.confsvc import ConfigServer
from ssaas_sim.simwire import Body, Envelope, FaultEffect, FaultRule, Simulator
from ssaas_sim.ssaas.services import (ChatServices, ContentServices, DeveloperData,
                                     DeveloperInfoServices, DeveloperServices, Monolith,
                                     ResourceManager, forward, policy_rng, saga,
                                     validate_values)
from ssaas_sim.ssaas.stores import (ChatStore, ContentStore, DeveloperStore, DomainError,
                                   DuplicateColumn, DuplicateServer, DuplicateTable,
                                   MalformedColumn, MalformedDeveloper, ReleasedOwner,
                                   ResourceExhausted, SchemaStore, SchemaViolation, ServerFlavor,
                                   ServerPool, UnknownDeveloper, UnknownProject, UnknownRecord,
                                   UnknownTable)


class TestDeveloperStore:
    def test_ids_are_monotonic_from_one(self):
        store = DeveloperStore()
        a = store.register_developer("Ann", "ann@example.test")
        b = store.register_developer("Ben", "ben@example.test")
        assert (a.developer_id, b.developer_id) == (1, 2)

    def test_requires_name_and_email(self):
        store = DeveloperStore()
        with pytest.raises(MalformedDeveloper):
            store.register_developer("", "x@example.test")
        with pytest.raises(MalformedDeveloper):
            store.register_developer("X", "")

    def test_get_unknown(self):
        with pytest.raises(UnknownDeveloper):
            DeveloperStore().get(7)

    def test_service_kinds_deduplicate(self):
        store = DeveloperStore()
        dev = store.register_developer("Ann", "a@example.test")
        store.add_service_kind(dev.developer_id, "RDBMS")
        store.add_service_kind(dev.developer_id, "RDBMS")
        store.add_service_kind(dev.developer_id, "CHAT")
        assert store.get(dev.developer_id).service_kinds == ["RDBMS", "CHAT"]

    def test_developers_do_not_share_service_kinds(self):
        store = DeveloperStore()
        ann = store.register_developer("Ann", "a@example.test")
        ben = store.register_developer("Ben", "b@example.test")
        store.add_service_kind(ann.developer_id, "RDBMS")
        assert store.get(ben.developer_id).service_kinds == []


class TestServerPool:
    def _pool(self, *specs: tuple[str, ServerFlavor, int]) -> ServerPool:
        pool = ServerPool()
        for sid, flavor, cap in specs:
            pool.register_server(sid, flavor, cap)
        return pool

    def test_least_used_picks_emptiest(self):
        pool = self._pool(("ora-a", ServerFlavor.ORACLE, 5),
                          ("ora-b", ServerFlavor.ORACLE, 5))
        picks = [pool.reserve(ServerFlavor.ORACLE, "o").server_id for _ in range(4)]
        assert picks == ["ora-a", "ora-b", "ora-a", "ora-b"]

    def test_tie_breaks_to_smallest_id(self):
        pool = self._pool(("ora-b", ServerFlavor.ORACLE, 5),
                          ("ora-a", ServerFlavor.ORACLE, 5))
        assert pool.reserve(ServerFlavor.ORACLE, "o").server_id == "ora-a"

    def test_flavors_are_separate(self):
        pool = self._pool(("ora-a", ServerFlavor.ORACLE, 1),
                          ("my-a", ServerFlavor.MYSQL, 1))
        pool.reserve(ServerFlavor.ORACLE, "o")
        with pytest.raises(ResourceExhausted):
            pool.reserve(ServerFlavor.ORACLE, "o")
        assert pool.reserve(ServerFlavor.MYSQL, "o").server_id == "my-a"

    def test_database_name_tracks_reservation_id(self):
        pool = self._pool(("ora-a", ServerFlavor.ORACLE, 9))
        res = pool.reserve(ServerFlavor.ORACLE, "o")
        assert res.reservation_id == 1
        assert res.database_name == "db_1"

    def test_release_frees_capacity_and_is_single_shot(self):
        pool = self._pool(("ora-a", ServerFlavor.ORACLE, 1))
        res = pool.reserve(ServerFlavor.ORACLE, "o")
        assert pool.release("o") == [res]
        assert pool.release("o") == []
        assert pool.reserve(ServerFlavor.ORACLE, "p").server_id == "ora-a"

    def test_a_released_owner_is_tombstoned(self):
        # A release that overtakes its reserve still undoes it.
        pool = self._pool(("ora-a", ServerFlavor.ORACLE, 2))
        assert pool.release("early") == []
        pool.reserve(ServerFlavor.ORACLE, "late")
        pool.release("late")
        for owner in ("early", "late"):
            with pytest.raises(ReleasedOwner):
                pool.reserve(ServerFlavor.ORACLE, owner)
        assert pool.active_reservations() == []
        assert [s.reserved for s in pool.servers()] == [0]

    def test_random_policy_replays_with_seeded_rng(self):
        specs = [("s1", ServerFlavor.MYSQL, 99), ("s2", ServerFlavor.MYSQL, 99),
                 ("s3", ServerFlavor.MYSQL, 99)]
        pool = self._pool(*specs)
        rng = policy_rng(42, "ResourceManager")
        picks = [pool.reserve(ServerFlavor.MYSQL, "o", policy="random", rng=rng).server_id
                 for _ in range(12)]
        oracle_rng = random.Random("42:ResourceManager:policy")
        expected = [["s1", "s2", "s3"][oracle_rng.randrange(3)] for _ in range(12)]
        assert picks == expected

    @given(st.lists(st.sampled_from(["reserve", "release"]), max_size=60),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_reserved_counts_stay_within_capacity(self, ops, cap):
        pool = ServerPool()
        pool.register_server("a", ServerFlavor.ORACLE, cap)
        pool.register_server("b", ServerFlavor.ORACLE, cap)
        live = []
        for n, op in enumerate(ops):
            if op == "reserve":
                try:
                    live.append(pool.reserve(ServerFlavor.ORACLE, f"o{n}").owner)
                except ResourceExhausted:
                    assert len(live) == 2 * cap
            elif live:
                pool.release(live.pop(0))
            for server in pool.servers():
                assert 0 <= server.reserved <= server.capacity
            assert sum(s.reserved for s in pool.servers()) == len(live)

    def test_register_rejects_an_unknown_flavor(self):
        pool = ServerPool()
        for flavor in ("POSTGRES", "oracle", None):
            with pytest.raises(DomainError):
                pool.register_server("db-a", flavor, 1)
        assert pool.servers() == []

    def test_register_rejects_a_taken_server_id(self):
        pool = self._pool(("ora-a", ServerFlavor.ORACLE, 1))
        with pytest.raises(DuplicateServer):
            pool.register_server("ora-a", ServerFlavor.MYSQL, 2)
        [server] = pool.servers()
        assert (server.flavor, server.capacity) == (ServerFlavor.ORACLE, 1)


class TestSchemaStore:
    def test_versions_bump_on_every_change(self):
        store = SchemaStore()
        proj = store.create_project("blog", 1)
        assert proj.version == 1
        store.add_table(proj.project_id, "posts")
        store.add_column(proj.project_id, "posts", "title", "text")
        assert store.get(proj.project_id).version == 3

    def test_duplicates_rejected(self):
        store = SchemaStore()
        proj = store.create_project("blog", 1)
        store.add_table(proj.project_id, "posts")
        with pytest.raises(DuplicateTable):
            store.add_table(proj.project_id, "posts")
        store.add_column(proj.project_id, "posts", "title", "text")
        with pytest.raises(DuplicateColumn):
            store.add_column(proj.project_id, "posts", "title", "int")

    def test_unknowns_and_bad_types(self):
        store = SchemaStore()
        with pytest.raises(UnknownProject):
            store.get(5)
        proj = store.create_project("blog", 1)
        with pytest.raises(UnknownTable):
            store.add_column(proj.project_id, "nope", "c", "int")
        store.add_table(proj.project_id, "posts")
        with pytest.raises(MalformedColumn):
            store.add_column(proj.project_id, "posts", "c", "float")

    def test_an_empty_table_name_is_refused(self):
        store = SchemaStore()
        proj = store.create_project("blog", 1)
        with pytest.raises(DomainError):
            store.add_table(proj.project_id, "")
        assert store.get(proj.project_id).tables == {} and proj.version == 1

    def test_a_deleted_key_is_tombstoned(self):
        # A delete that overtakes its create still undoes it; the key stays
        # out of the body, and a project made under no key is never deleted.
        store = SchemaStore()
        plain = store.create_project("plain", 1)
        assert store.delete_keyed("early") == []
        late = store.create_project("blog", 1, "late")
        assert "key" not in late.to_body()
        assert store.delete_keyed("late") == [late]
        for key in ("early", "late"):
            with pytest.raises(ReleasedOwner):
                store.create_project("blog", 1, key)
        with pytest.raises(UnknownProject):
            store.get(late.project_id)
        assert store.get(plain.project_id) is plain


class TestValidateValues:
    COLS = {"n": "int", "title": "text", "done": "bool"}

    def test_partial_records_allowed(self):
        validate_values(self.COLS, {"n": 3})
        validate_values(self.COLS, {})

    def test_undeclared_key_rejected(self):
        with pytest.raises(SchemaViolation) as err:
            validate_values(self.COLS, {"nope": 1})
        assert err.value.field == "nope"

    def test_type_mismatches(self):
        with pytest.raises(SchemaViolation):
            validate_values(self.COLS, {"n": "3"})
        with pytest.raises(SchemaViolation):
            validate_values(self.COLS, {"title": 3})
        with pytest.raises(SchemaViolation):
            validate_values(self.COLS, {"done": 1})

    def test_values_must_be_a_map(self):
        for values in (None, [], ["n"], "n", 3):
            with pytest.raises(SchemaViolation) as err:
                validate_values(self.COLS, values)
            assert err.value.field == "<values>"

    def test_bool_is_not_an_int(self):
        with pytest.raises(SchemaViolation):
            validate_values(self.COLS, {"n": True})
        validate_values(self.COLS, {"done": True, "n": 0})


class TestContentStore:
    def test_crud_cycle(self):
        store = ContentStore()
        rid = store.insert(1, "posts", {"title": "a"})
        assert store.get(1, "posts", rid) == {"title": "a"}
        store.update(1, "posts", rid, {"title": "b"})
        assert store.get(1, "posts", rid) == {"title": "b"}
        store.delete(1, "posts", rid)
        with pytest.raises(UnknownRecord):
            store.get(1, "posts", rid)

    def test_list_sorted_by_record_id(self):
        store = ContentStore()
        r1 = store.insert(1, "posts", {"n": 1})
        r2 = store.insert(1, "posts", {"n": 2})
        assert store.list(1, "posts") == [
            {"record_id": r1, "values": {"n": 1}},
            {"record_id": r2, "values": {"n": 2}}]

    def test_tables_do_not_share_records(self):
        store = ContentStore()
        rid = store.insert(1, "posts", {"n": 1})
        with pytest.raises(UnknownRecord):
            store.get(1, "drafts", rid)
        with pytest.raises(UnknownRecord):
            store.get(2, "posts", rid)


# -- one upstream step, and a saga of them --------------------------------------

def step(path: str, name: str, fields: tuple[str, ...] = ()) -> tuple:
    """A saga step that GETs ``path`` from Up; its undo DELETEs ``/undo/{name}``."""
    return ("Up", "GET", path, None, fields, ("Up", "DELETE", f"/undo/{name}"))


class TestSaga:
    """``forward`` and ``saga`` over an in-process upstream: each outcome,
    and every undo before the answer."""

    def _world(self):
        """A caller with an in-process upstream Up, and the log Up's undo
        route writes to."""
        sim = Simulator()
        caller = ServiceNode(sim, "caller", "Caller")
        ServiceClient(caller, WiringMode.LIBRARY_CALL)
        upstream = ServiceNode(sim, "up", "Up")
        upstream.route("GET", "/ok", lambda req: ("200", {"a": 1, "extra": 2}))
        upstream.route("GET", "/missing", lambda req: ("404", {"error": "Nope"}))
        # What a client answers for an upstream it could not reach.
        upstream.route("GET", "/down", lambda req: ("503", {"error": "UpstreamUnavailable"}))
        log: list = []
        upstream.route("DELETE", "/undo/{name}", lambda req: (
            log.append(("undo", req.params["name"])), ("200", {}))[1])
        caller.host(upstream)
        return caller, log

    def _log(self, *steps, path=None, finish=None):
        """The log of ``forward`` to ``path``, or of a saga over ``steps``:
        what ``finish`` got, each undo, and the reply."""
        caller, log = self._world()
        req = Request("GET", "/x", None, _reply=lambda s, b: log.append((s, b)))
        if path is not None:
            forward(caller, req, "Up", "GET", path, None)
        else:
            saga(caller, req, steps, finish or (lambda *results: (
                log.append(("finish", results)), {"steps": len(results)})[1]))
        return log

    def test_forward_relays_the_outcome(self):
        assert self._log(path="/ok") == [("200", {"a": 1, "extra": 2})]
        assert self._log(path="/missing") == [("404", {"error": "Nope"})]
        assert self._log(path="/down") == [("503", {"error": "UpstreamUnavailable"})]

    def test_success_goes_to_finish_decoded_to_fields(self):
        assert self._log(step("/ok", "a")) == [
            ("finish", ({"a": 1, "extra": 2},)), ("200", {"steps": 1})]
        assert self._log(step("/ok", "a", ("a",))) == [
            ("finish", ({"a": 1},)), ("200", {"steps": 1})]

    def test_failure_runs_undo_then_relays(self):
        assert self._log(step("/ok", "a"), step("/missing", "b")) == [
            ("undo", "a"), ("404", {"error": "Nope"})]
        assert self._log(step("/ok", "a"), step("/down", "b")) == [
            ("undo", "b"), ("undo", "a"), ("503", {"error": "UpstreamUnavailable"})]

    def test_success_lacking_fields_runs_undo_then_503(self):
        assert self._log(step("/ok", "a", ("a", "b"))) == [
            ("undo", "a"), ("503", {"error": "UpstreamUnavailable"})]

    def test_a_refusal_skips_the_failed_calls_undo_and_a_5xx_runs_it(self):
        # A refused call made nothing; a 5xx (or the deadline) may have.
        assert self._log(step("/missing", "a")) == [("404", {"error": "Nope"})]
        assert self._log(step("/down", "a")) == [
            ("undo", "a"), ("503", {"error": "UpstreamUnavailable"})]

    def test_completed_steps_are_undone_last_first(self):
        assert self._log(step("/ok", "a"), step("/ok", "b"), step("/ok", "c"),
                         step("/missing", "d")) == [
            ("undo", "c"), ("undo", "b"), ("undo", "a"), ("404", {"error": "Nope"})]

    def test_a_refusal_raised_in_finish_is_answered_with_its_status(self):
        def refuse(*results):
            raise UnknownTable("posts")

        assert self._log(step("/ok", "a"), step("/ok", "b"), finish=refuse) == [
            ("undo", "b"), ("undo", "a"), ("404", {"error": "UnknownTable"})]

    def test_a_local_steps_result_reaches_later_steps_and_finish(self):
        log: list = []
        local = (None, lambda ok: ok["a"] + 1, None, None, (),
                 lambda two: log.append(("unlocal", two)))
        later = (None, lambda ok, two: two * 10, None, None, (), None)
        assert self._log(step("/ok", "a"), local, later, step("/ok", "b", ("a",))) == [
            ("finish", ({"a": 1, "extra": 2}, 2, 20, {"a": 1})), ("200", {"steps": 4})]
        # A failure after it undoes it with its own result, in its turn.
        reply = self._log(step("/ok", "a"), local, step("/missing", "b"))
        assert (log, reply) == ([("unlocal", 2)], [("undo", "a"), ("404", {"error": "Nope"})])

    def test_a_finished_saga_leaves_nothing_for_the_cycle_collector(self):
        # A cycle left per saga costs the collector's time on every run.
        caller, log = self._world()
        for last in ("/ok", "/missing", "/down"):
            gc.collect()
            gc.disable()
            try:
                req = Request("GET", "/x", None, _reply=lambda s, b: log.append((s, b)))
                saga(caller, req, (step("/ok", "a"), step(last, "b")), lambda *results: {})
                del req
                assert gc.collect() == 0, last
            finally:
                gc.enable()
        assert [entry[0] for entry in log] == ["200", "undo", "404", "undo", "undo", "503"]

    def test_a_refusal_raised_by_a_local_step_undoes_the_completed_steps(self):
        def refuse(ok):
            raise UnknownTable("posts")

        assert self._log(step("/ok", "a"), (None, refuse, None, None, (), None),
                         step("/ok", "b")) == [
            ("undo", "a"), ("404", {"error": "UnknownTable"})]


# -- the compensation matrix of both sagas ---------------------------------------

REFUSED = ("409", {"error": "Refused"})
DOWN = ("503", {"error": "UpstreamUnavailable"})  # also what a deadline answers
BARE = ("200", {})  # a success lacking every field
OUTCOMES = {"refused": REFUSED, "5xx": DOWN, "bare": BARE}
RESERVATION = {"reservation_id": 3, "server_id": "ora-a", "database_name": "db-3"}


class LoggedChats(ChatStore):
    """A chat store that logs the saga's local create and its undo."""

    def __init__(self, log: list) -> None:
        super().__init__()
        self.log = log

    def create(self, developer_id: int, reservation_id: int):
        self.log.append(("chats.create", reservation_id))
        return super().create(developer_id, reservation_id)

    def remove(self, chat_id: int) -> None:
        self.log.append(("chats.remove", chat_id))
        super().remove(chat_id)


def stub_handler(log: list, answer: tuple[str, Body]):
    def handle(req: Request) -> tuple[str, Body]:
        log.append((req.method, req.path))
        return answer
    return handle


def run_saga(flow: str, fail: tuple[str, str], outcome: tuple[str, Body]) -> list:
    """The log of one saga, run in process against stub upstreams: every
    upstream call, the chat store's create and remove, and the reply last.
    The upstream route ``fail`` answers ``outcome``; every other succeeds."""
    sim = Simulator()
    caller = ServiceNode(sim, "caller", "Caller")
    ServiceClient(caller, WiringMode.LIBRARY_CALL)
    log: list = []
    if flow == "provision":
        node, prefix = DeveloperServices(sim, "ds"), "/schema/developers"
        path, body = "/projects", {"name": "blog", "owner_developer_id": 1}
    else:
        node, prefix = ChatServices(sim, "chat", LoggedChats(log)), "/developers"
        path, body = "/chat", {"developer_id": 1}
    stub = ServiceNode(sim, "stub", "Stub")
    for route, ok in {("GET", prefix + "/{did}"): {"developer_id": 1},
                      ("POST", "/resources/reservations"): RESERVATION,
                      ("POST", "/schema/projects"): {"project_id": 4},
                      ("POST", prefix + "/{did}/kinds"): {"developer_id": 1},
                      ("DELETE", "/schema/projects/keys/{key}"): {},
                      ("DELETE", "/resources/reservations/{owner}"): {}}.items():
        stub.route(*route, stub_handler(log, outcome if route == fail else ("200", ok)))
    caller.host(node)
    caller.host(stub)
    env = Envelope("ext", "caller", "REQUEST", path, "POST", body=body)
    env.message_id = 7  # the saga's key
    caller.dispatch(Request("POST", path, body, env=env,
                            _reply=lambda status, reply: log.append((status, reply))))
    return log


DEV_GET, RESERVE, PERSIST, TAG, RELEASE, UNPERSIST = (
    ("GET", "/schema/developers/1"), ("POST", "/resources/reservations"),
    ("POST", "/schema/projects"), ("POST", "/schema/developers/1/kinds"),
    ("DELETE", "/resources/reservations/project:7"),
    ("DELETE", "/schema/projects/keys/project:7"))
PROVISION_STEPS = (DEV_GET, RESERVE, PERSIST, TAG)
PROVISIONED = ("200", {"project_id": 4, "reservation_id": 3, "database_name": "db-3",
                       "server_id": "ora-a"})

CHAT_DEV_GET, CHAT_TAG, CHAT_RELEASE, CREATE, REMOVE = (
    ("GET", "/developers/1"), ("POST", "/developers/1/kinds"),
    ("DELETE", "/resources/reservations/chat:7"), ("chats.create", 3), ("chats.remove", 1))
CHAT_STEPS = (CHAT_DEV_GET, RESERVE, CREATE, CHAT_TAG)
CHATTED = ("200", {"chat_id": 1, "developer_id": 1, "reservation_id": 3, "status": "ACTIVE"})

# (flow, failed step, outcome) -> the compensations, in order, or None when the
# saga still succeeds (a step with no required fields takes a bare 200).
COMPENSATIONS = {
    ("provision", DEV_GET, "refused"): [],
    ("provision", DEV_GET, "5xx"): [],
    ("provision", DEV_GET, "bare"): None,
    ("provision", RESERVE, "refused"): [],
    ("provision", RESERVE, "5xx"): [RELEASE],
    ("provision", RESERVE, "bare"): [RELEASE],
    # A refused create made no project, so only the reservation is undone.
    ("provision", PERSIST, "refused"): [RELEASE],
    ("provision", PERSIST, "5xx"): [UNPERSIST, RELEASE],
    ("provision", PERSIST, "bare"): [UNPERSIST, RELEASE],
    ("provision", TAG, "refused"): [UNPERSIST, RELEASE],
    ("provision", TAG, "5xx"): [UNPERSIST, RELEASE],
    ("provision", TAG, "bare"): None,
    ("chat", CHAT_DEV_GET, "refused"): [],
    ("chat", CHAT_DEV_GET, "5xx"): [],
    ("chat", CHAT_DEV_GET, "bare"): None,
    ("chat", RESERVE, "refused"): [],
    ("chat", RESERVE, "5xx"): [CHAT_RELEASE],
    ("chat", RESERVE, "bare"): [CHAT_RELEASE],
    ("chat", CHAT_TAG, "refused"): [REMOVE, CHAT_RELEASE],
    ("chat", CHAT_TAG, "5xx"): [REMOVE, CHAT_RELEASE],
    ("chat", CHAT_TAG, "bare"): None,
}


@pytest.mark.parametrize("flow, failed, outcome", COMPENSATIONS,
                         ids=[f"{flow}-{' '.join(failed)}-{outcome}"
                              for flow, failed, outcome in COMPENSATIONS])
def test_a_failed_step_compensates_in_reverse_before_the_reply(flow, failed, outcome):
    route = (failed[0], failed[1].replace("/1", "/{did}"))
    log = run_saga(flow, route, OUTCOMES[outcome])
    steps = PROVISION_STEPS if flow == "provision" else CHAT_STEPS
    compensations = COMPENSATIONS[(flow, failed, outcome)]
    if compensations is None:
        assert log == [*steps, PROVISIONED if flow == "provision" else CHATTED]
    else:
        answer = DOWN if outcome == "bare" else OUTCOMES[outcome]
        assert log == [*steps[:steps.index(failed) + 1], *compensations, answer]


# -- service flows -------------------------------------------------------------

def build_monolith_world():
    """The single-deployable wiring: all services in one node, library calls."""
    sim = Simulator()
    mono = Monolith(sim)
    mono.bind()
    ServiceClient(mono, WiringMode.LIBRARY_CALL)
    schemas, developers, pool = SchemaStore(), DeveloperStore(), ServerPool()
    pool.register_server("ora-a", ServerFlavor.ORACLE, 2)
    pool.register_server("ora-b", ServerFlavor.ORACLE, 2)
    dd = DeveloperData(sim, "monolith", schemas, developers=developers, pool=pool)
    ds = DeveloperServices(sim, "monolith")
    cs = ContentServices(sim, "monolith", ContentStore())
    for svc in (ds, cs, dd):
        mono.host(svc)
    ext = ServiceNode(sim, "ext", "External").bind()
    ServiceClient(ext, WiringMode.DIRECT_WIRE)
    return sim, mono, ext, pool


def call(sim, ext, method, path, body=None, target="monolith") -> tuple[str, Body]:
    """The (status, body) the external node ``ext`` gets for one request."""
    results: list[tuple[str, Body]] = []
    ext.client.call_node(target, method, path, body,
                         lambda status, reply: results.append((status, reply)), deadline=60)
    assert sim.run_until_idle(budget=300)
    [answer] = results
    return answer


class TestMonolithRoots:
    class Hosted(ServiceNode):
        """Answers its service name on ``/<root>`` and ``/<root>/{a}/{b}``."""

        def __init__(self, sim: Simulator, root: str) -> None:
            super().__init__(sim, "monolith", root)
            for pattern in (f"/{root}", f"/{root}/{{a}}/{{b}}"):
                self.route("GET", pattern, lambda req: ("200", self.service))

    @pytest.mark.parametrize("path, want", [
        ("/content", "content"), ("//content/1/t", "content"), ("/schema/", "schema"),
        ("/", None), ("///", None), ("", None), ("/contents", None), ("/x/content", None),
    ])
    def test_first_segment_picks_the_hosted_service(self, path, want):
        sim = Simulator()
        mono = Monolith(sim)
        for root in ("content", "schema"):
            mono.host(self.Hosted(sim, root))
        got = []
        mono.dispatch(Request("GET", path, None, _reply=lambda s, b: got.append((s, b))))
        assert got == [("200", want) if want else ("404", {"error": "NoRoute"})]


class TestReservationRoute:
    """``/resources/reservations`` called directly, with no provisioning or chat flow
    in front of it."""

    @pytest.mark.parametrize("body, want", [
        ({"flavor": "POSTGRES", "owner": "o"}, {"error": "Malformed"}),
        ({"flavor": "oracle", "owner": "o"}, {"error": "Malformed"}),
        ({"flavor": 1, "owner": "o"}, {"error": "Malformed"}),
        ({"flavor": ["ORACLE"], "owner": "o"}, {"error": "Malformed"}),
        ({"flavor": "ORACLE", "owner": 7}, {"error": "Malformed"}),
        ({"flavor": "ORACLE"}, {"error": "Malformed", "field": "owner"}),
    ])
    def test_malformed_reserve_answers_400_and_reserves_nothing(self, body, want):
        sim, _, ext, pool = build_monolith_world()
        status, reply = call(sim, ext, "POST", "/resources/reservations", body)
        assert (status, reply) == ("400", want)
        assert pool.active_reservations() == []
        assert all(s.reserved == 0 for s in pool.servers())

    def test_reserve_answers_plain_string_flavors(self):
        sim, _, ext, pool = build_monolith_world()
        # A flavor decoded from JSON is a str equal to the tag, not the tag itself.
        body = json.loads('{"flavor": "ORACLE", "owner": "project:x"}')
        status, reply = call(sim, ext, "POST", "/resources/reservations", body)
        assert status == "200"
        assert reply["flavor"] == "ORACLE" and type(reply["flavor"]) is str
        assert reply["server_id"] == "ora-a" and reply["owner"] == "project:x"
        assert [res.owner for res in pool.active_reservations()] == ["project:x"]


class TestKeyedProjectRoute:
    """``/schema/projects`` under a key, and its delete by that key, called
    directly."""

    def test_a_keyed_project_is_deleted_by_its_key(self):
        sim, _, ext, _ = build_monolith_world()
        body = {"name": "blog", "owner_developer_id": 1, "key": "project:x"}
        status, made = call(sim, ext, "POST", "/schema/projects", body)
        assert status == "200" and "key" not in made
        assert call(sim, ext, "DELETE", "/schema/projects/keys/project:x") == (
            "200", {"key": "project:x", "deleted": [made["project_id"]]})
        assert call(sim, ext, "GET", f"/schema/projects/{made['project_id']}")[0] == "404"
        assert call(sim, ext, "POST", "/schema/projects", body) == (
            "409", {"error": "ReleasedOwner"})
        assert call(sim, ext, "POST", "/schema/projects", dict(body, key=7)) == (
            "400", {"error": "Malformed"})


class TestMonolithFlows:
    def test_register_and_fetch_developer(self):
        sim, mono, ext, _ = build_monolith_world()
        status, reply = call(sim, ext, "POST", "/developers",
                             {"name": "Ann", "email": "ann@example.test"})
        assert status == "200"
        assert reply == {"developer_id": 1, "name": "Ann",
                         "email": "ann@example.test", "service_kinds": []}
        status, reply = call(sim, ext, "GET", "/developers/1")
        assert status == "200" and reply["name"] == "Ann"

    def test_get_unknown_developer_404(self):
        sim, mono, ext, _ = build_monolith_world()
        status, reply = call(sim, ext, "GET", "/developers/9")
        assert status == "404"
        assert reply == {"error": "UnknownDeveloper"}

    def test_provision_project_full_flow(self):
        sim, mono, ext, pool = build_monolith_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"})
        status, reply = call(sim, ext, "POST", "/projects",
                             {"name": "blog", "owner_developer_id": 1})
        assert status == "200"
        assert reply == {"project_id": 1, "reservation_id": 1,
                         "database_name": "db_1", "server_id": "ora-a"}
        # provisioning tagged the developer with the database kind
        status, reply = call(sim, ext, "GET", "/developers/1")
        assert reply["service_kinds"] == ["RDBMS"]
        assert len(pool.active_reservations()) == 1

    def test_provision_for_unknown_developer_404_and_no_reservation(self):
        sim, mono, ext, pool = build_monolith_world()
        status, reply = call(sim, ext, "POST", "/projects",
                             {"name": "blog", "owner_developer_id": 3})
        assert status == "404"
        assert pool.active_reservations() == []

    def test_provision_compensates_reservation_on_schema_failure(self):
        sim, mono, ext, pool = build_monolith_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"})
        status, reply = call(sim, ext, "POST", "/projects",
                             {"name": "", "owner_developer_id": 1})
        assert status == "400"
        assert pool.active_reservations() == []

    def test_provision_exhaustion_409(self):
        sim, mono, ext, pool = build_monolith_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"})
        for i in range(4):
            assert call(sim, ext, "POST", "/projects",
                        {"name": f"p{i}", "owner_developer_id": 1})[0] == "200"
        status, reply = call(sim, ext, "POST", "/projects",
                             {"name": "p4", "owner_developer_id": 1})
        assert status == "409"
        assert reply == {"error": "ResourceExhausted"}

    def test_schema_editing_and_content_crud(self):
        sim, mono, ext, _ = build_monolith_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"})
        call(sim, ext, "POST", "/projects", {"name": "blog", "owner_developer_id": 1})
        status, reply = call(sim, ext, "POST", "/projects/1/tables", {"table": "posts"})
        assert status == "200" and "posts" in reply["tables"]
        status, reply = call(sim, ext, "POST", "/projects/1/tables/posts/columns",
                             {"column": "title", "type": "text"})
        assert status == "200" and reply["version"] == 3

        status, reply = call(sim, ext, "POST", "/content/1/posts", {"values": {"title": "hi"}})
        assert (status, reply) == ("200", {"record_id": 1})
        status, reply = call(sim, ext, "GET", "/content/1/posts/1")
        assert reply == {"record_id": 1, "values": {"title": "hi"}}
        status, reply = call(sim, ext, "PUT", "/content/1/posts/1", {"values": {"title": "ho"}})
        assert status == "200"
        status, reply = call(sim, ext, "GET", "/content/1/posts")
        assert reply == [{"record_id": 1, "values": {"title": "ho"}}]
        status, reply = call(sim, ext, "DELETE", "/content/1/posts/1")
        assert reply == {"removed": True}
        assert call(sim, ext, "GET", "/content/1/posts") == ("200", [])

    def test_content_write_rejects_schema_violation(self):
        sim, mono, ext, _ = build_monolith_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"})
        call(sim, ext, "POST", "/projects", {"name": "blog", "owner_developer_id": 1})
        call(sim, ext, "POST", "/projects/1/tables", {"table": "posts"})
        call(sim, ext, "POST", "/projects/1/tables/posts/columns",
             {"column": "n", "type": "int"})
        status, reply = call(sim, ext, "POST", "/content/1/posts", {"values": {"n": "three"}})
        assert status == "400"
        assert reply == {"error": "SchemaViolation", "field": "n"}
        status, reply = call(sim, ext, "POST", "/content/1/ghosts", {"values": {}})
        assert status == "404"
        assert reply == {"error": "UnknownTable"}

    def test_get_project_passthrough(self):
        sim, mono, ext, _ = build_monolith_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"})
        call(sim, ext, "POST", "/projects", {"name": "blog", "owner_developer_id": 1})
        status, reply = call(sim, ext, "GET", "/projects/1")
        assert status == "200" and reply["name"] == "blog"
        assert reply["owner_developer_id"] == 1


def release_precedes_answer(sim) -> bool:
    """The reservation DELETE went on the wire before the answer to ``ext``:
    both leave in the same handler, so they arrive in send order."""
    recs = sim.records
    release = next(i for i, rec in enumerate(recs)
                   if rec.kind == "REQUEST" and rec.method == "DELETE"
                   and rec.path.startswith("/resources/reservations/"))
    answer = max(i for i, rec in enumerate(recs)
                 if rec.kind == "RESPONSE" and rec.destination == "ext")
    return recs[release].tick == recs[answer].tick and release < answer


def build_wire_world(own_resource_manager: bool = False):
    """Split services on separate nodes with static wiring. DeveloperData
    holds the server pool unless ResourceManager gets a node of its own."""
    sim = Simulator()
    schemas, developers, pool = SchemaStore(), DeveloperStore(), ServerPool()
    pool.register_server("ora-a", ServerFlavor.ORACLE, 2)
    dd = DeveloperData(sim, "developerdata-1", schemas, developers=developers,
                       pool=None if own_resource_manager else pool)
    dd.bind()
    ds = DeveloperServices(sim, "developerservices-1", resources_service=(
        "ResourceManager" if own_resource_manager else "DeveloperData"))
    ds.bind()
    cs = ContentServices(sim, "contentservices-1", ContentStore())
    cs.bind()
    services = [dd, ds, cs]
    if own_resource_manager:
        services.append(ResourceManager(sim, "resourcemanager-1", pool).bind())
    for svc in services:
        client = ServiceClient(svc, WiringMode.DIRECT_WIRE)
        client.direct["DeveloperData"] = "developerdata-1"
        client.direct["DeveloperServices"] = "developerservices-1"
        client.direct["ContentServices"] = "contentservices-1"
        client.direct["ResourceManager"] = "resourcemanager-1"
    ext = ServiceNode(sim, "ext", "External").bind()
    ServiceClient(ext, WiringMode.DIRECT_WIRE)
    return sim, ext, pool


class TestWireFlows:
    def test_schema_store_refuses_an_empty_project_name(self):
        sim, ext, _ = build_wire_world()
        status, reply = call(sim, ext, "POST", "/schema/projects",
                             {"name": "", "owner_developer_id": 1}, target="developerdata-1")
        assert (status, reply) == ("400", {"error": "Malformed"})
        assert call(sim, ext, "GET", "/schema/projects/1", target="developerdata-1")[0] == "404"
        status, reply = call(sim, ext, "POST", "/schema/projects",
                             {"name": "blog", "owner_developer_id": 1}, target="developerdata-1")
        assert (status, reply["project_id"]) == ("200", 1)

    @pytest.mark.parametrize("method, path", [("POST", "/content/{pid}/posts"),
                                              ("PUT", "/content/{pid}/posts/1")])
    @pytest.mark.parametrize("pid, body, want", [
        ("abc", {"values": {"title": "hi"}}, {"error": "Malformed"}),
        ("1", {"title": "hi"}, {"error": "Malformed", "field": "values"}),
    ], ids=["pid", "values"])
    def test_malformed_content_write_names_its_own_fault(self, method, path, pid, body, want):
        sim, ext, _ = build_wire_world()
        status, reply = call(sim, ext, method, path.format(pid=pid), body,
                             target="contentservices-1")
        assert (status, reply) == ("400", want)
        # Refused before any schema fetch: only the request and its answer.
        assert len(sim.records) == 2

    def test_provision_over_the_wire(self):
        sim, ext, pool = build_wire_world()
        status, reply = call(sim, ext, "POST", "/developers",
                             {"name": "Ann", "email": "a@x.test"}, target="developerservices-1")
        assert status == "200" and reply["developer_id"] == 1
        status, reply = call(sim, ext, "POST", "/projects",
                             {"name": "blog", "owner_developer_id": 1},
                             target="developerservices-1")
        assert status == "200"
        assert reply == {"project_id": 1, "reservation_id": 1,
                         "database_name": "db_1", "server_id": "ora-a"}

    def test_content_write_validates_via_schema_fetch(self):
        sim, ext, pool = build_wire_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"},
             target="developerservices-1")
        call(sim, ext, "POST", "/projects", {"name": "blog", "owner_developer_id": 1},
             target="developerservices-1")
        call(sim, ext, "POST", "/projects/1/tables", {"table": "posts"},
             target="developerservices-1")
        call(sim, ext, "POST", "/projects/1/tables/posts/columns",
             {"column": "title", "type": "text"}, target="developerservices-1")
        sim.advance_to(sim.now + 20)  # get past the schema cache window
        status, reply = call(sim, ext, "POST", "/content/1/posts", {"values": {"title": "hi"}},
                             target="contentservices-1")
        assert (status, reply) == ("200", {"record_id": 1})
        status, reply = call(sim, ext, "POST", "/content/1/posts", {"values": {"oops": 1}},
                             target="contentservices-1")
        assert status == "400"

    @pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
    @pytest.mark.parametrize("table, values, want", [
        ("ghosts", {"n": 3}, ("404", {"error": "UnknownTable"})),
        ("posts", {"n": "three"}, ("400", {"error": "SchemaViolation", "field": "n"})),
    ], ids=["unknown-table", "bad-value"])
    def test_content_write_refusal_is_answered_on_either_schema_path(self, cached, table,
                                                                     values, want):
        # On a cache miss the check runs in the schema fetch's continuation,
        # on a hit inside the handler: both answer the same refusal.
        sim, ext, _ = build_wire_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"},
             target="developerservices-1")
        call(sim, ext, "POST", "/projects", {"name": "blog", "owner_developer_id": 1},
             target="developerservices-1")
        call(sim, ext, "POST", "/projects/1/tables", {"table": "posts"},
             target="developerservices-1")
        call(sim, ext, "POST", "/projects/1/tables/posts/columns",
             {"column": "n", "type": "int"}, target="developerservices-1")
        sim.advance_to(sim.now + 20)  # get past the schema cache window
        if cached:
            assert call(sim, ext, "POST", "/content/1/posts", {"values": {"n": 1}},
                        target="contentservices-1")[0] == "200"
        before = len(sim.records)
        status, reply = call(sim, ext, "POST", f"/content/1/{table}", {"values": values},
                             target="contentservices-1")
        assert (status, reply) == want
        # A miss fetches the schema first; a hit sends only the answer.
        assert len(sim.records) - before == (2 if cached else 4)

    def test_provision_compensates_before_answering(self):
        # The reservation succeeds, then DeveloperData dies before the schema
        # step reaches it: the reservation is released before the 503.
        sim, ext, pool = build_wire_world(own_resource_manager=True)
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"},
             target="developerservices-1")
        results = []
        ext.client.call_node("developerservices-1", "POST", "/projects",
                             {"name": "blog", "owner_developer_id": 1},
                             lambda status, reply: results.append((status, reply)),
                             deadline=60)
        while not any(rec.source == "resourcemanager-1" for rec in sim.records):
            sim.step()
        reserved = next(rec for rec in sim.records if rec.source == "resourcemanager-1")
        assert (reserved.path, reserved.status) == ("/resources/reservations", "200")
        sim.inject(FaultRule(FaultEffect.KILL_NODE, node="developerdata-1"))
        assert sim.run_until_idle(budget=300)
        assert results == [("503", {"error": "UpstreamUnavailable"})]
        assert pool.active_reservations() == []
        assert release_precedes_answer(sim)
        # The undo deletes by the request's key first (DeveloperData is down,
        # so that send fails), then releases under the same key.
        deletes = [(r.path.rsplit("/", 1), r.status) for r in sim.records
                   if r.kind == "REQUEST" and r.method == "DELETE"]
        [((schema, key), schema_fate), ((reservations, owner), _)] = deletes
        assert (schema, schema_fate) == ("/schema/projects/keys", "failed")
        assert (reservations, owner) == ("/resources/reservations", key)

    @pytest.mark.parametrize("owner", [1, 9], ids=["known", "unknown"])
    def test_empty_project_name_is_refused_before_any_reservation(self, owner):
        sim, ext, pool = build_wire_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"},
             target="developerservices-1")
        before = len(sim.records)
        status, reply = call(sim, ext, "POST", "/projects",
                             {"name": "", "owner_developer_id": owner},
                             target="developerservices-1")
        assert (status, reply) == ("400", {"error": "Malformed"})
        assert not any(rec.path == "/resources/reservations" for rec in sim.records)
        assert len(sim.records) - before == 2  # only the request and its answer

    def test_content_unknown_project_404(self):
        sim, ext, pool = build_wire_world()
        status, reply = call(sim, ext, "POST", "/content/9/posts", {"values": {}},
                             target="contentservices-1")
        assert status == "404"
        assert reply == {"error": "UnknownProject"}


def build_final_world():
    """Final-topology slice: chat + split developer entity + resource manager."""
    sim = Simulator()
    developers, pool, chats = DeveloperStore(), ServerPool(), ChatStore()
    pool.register_server("my-a", ServerFlavor.MYSQL, 1)
    dis = DeveloperInfoServices(sim, "developerinfoservices-1", developers)
    dis.bind()
    rm = ResourceManager(sim, "resourcemanager-1", pool)
    rm.bind()
    chat = ChatServices(sim, "chatservices-1", chats)
    chat.bind()
    confsvc = ConfigServer(sim).bind()
    for svc in (dis, rm, chat):
        confsvc.subscribe(svc)
        client = ServiceClient(svc, WiringMode.DIRECT_WIRE)
        client.direct["DeveloperInfoServices"] = "developerinfoservices-1"
        client.direct["ResourceManager"] = "resourcemanager-1"
        client.direct["ChatServices"] = "chatservices-1"
    ext = ServiceNode(sim, "ext", "External").bind()
    ServiceClient(ext, WiringMode.DIRECT_WIRE)
    return sim, ext, pool, chats


class TestChatFlows:
    def test_create_chat_instance(self):
        sim, ext, pool, chats = build_final_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"},
             target="developerinfoservices-1")
        status, reply = call(sim, ext, "POST", "/chat", {"developer_id": 1},
                             target="chatservices-1")
        assert status == "200"
        assert reply == {"chat_id": 1, "developer_id": 1, "reservation_id": 1,
                         "status": "ACTIVE"}
        status, reply = call(sim, ext, "GET", "/developers/1", target="developerinfoservices-1")
        assert reply["service_kinds"] == ["CHAT"]
        status, reply = call(sim, ext, "GET", "/chat/1", target="chatservices-1")
        assert status == "200" and reply["status"] == "ACTIVE"

    def test_chat_for_unknown_developer_404(self):
        sim, ext, pool, chats = build_final_world()
        status, reply = call(sim, ext, "POST", "/chat", {"developer_id": 5},
                             target="chatservices-1")
        assert status == "404"
        assert pool.active_reservations() == []

    def test_chat_compensates_when_kind_tag_is_unreachable(self):
        sim, ext, pool, chats = build_final_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"},
             target="developerinfoservices-1")
        # The reservation's reply arrives 5 ticks after the send; the kind tag
        # sent then finds its target dead.
        sim.schedule_fault(sim.now + 5, FaultRule(FaultEffect.KILL_NODE,
                                                  node="developerinfoservices-1"))
        status, reply = call(sim, ext, "POST", "/chat", {"developer_id": 1},
                             target="chatservices-1")
        assert (status, reply) == ("503", {"error": "UpstreamUnavailable"})
        with pytest.raises(DomainError):
            chats.get(1)
        assert pool.active_reservations() == []
        assert release_precedes_answer(sim)

    def test_chat_exhaustion_409(self):
        sim, ext, pool, chats = build_final_world()
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"},
             target="developerinfoservices-1")
        assert call(sim, ext, "POST", "/chat", {"developer_id": 1},
                    target="chatservices-1")[0] == "200"
        status, reply = call(sim, ext, "POST", "/chat", {"developer_id": 1},
                             target="chatservices-1")
        assert status == "409"
        assert reply == {"error": "ResourceExhausted"}

    def test_rm_policy_flip_goes_live_and_replays_seeded_oracle(self):
        sim, ext, pool, chats = build_final_world()
        pool.register_server("my-b", ServerFlavor.MYSQL, 99)
        pool.register_server("my-c", ServerFlavor.MYSQL, 99)
        call(sim, ext, "POST", "/developers", {"name": "Ann", "email": "a@x.test"},
             target="developerinfoservices-1")
        status, reply = call(sim, ext, "POST", "/refresh",
                             {"service": "ResourceManager", "profile": "default",
                              "version": [1, 1], "entries": {"rm.policy": "random"}},
                             target="resourcemanager-1")
        assert (status, reply) == ("200", {"applied": True})
        for _ in range(6):
            assert call(sim, ext, "POST", "/chat", {"developer_id": 1},
                        target="chatservices-1")[0] == "200"
        oracle = random.Random(f"{sim.seed}:ResourceManager:policy")
        capacity = {"my-a": 1, "my-b": 99, "my-c": 99}
        used = {"my-a": 0, "my-b": 0, "my-c": 0}
        expected = []
        for _ in range(6):
            eligible = sorted(s for s in capacity if used[s] < capacity[s])
            pick = eligible[oracle.randrange(len(eligible))]
            used[pick] += 1
            expected.append(pick)
        assert [res.server_id for res in pool.active_reservations()] == expected
