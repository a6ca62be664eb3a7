"""Span wrappers installed around the public entry points of each layer.

The tracer patches class and module attributes of ``ssaas_sim`` from outside
(nothing under ``src/`` knows about it), records one span per wrapped call
(name, start, end, parent span, and the ``Simulator.step`` or harness send it
ran under), and restores every original on :meth:`Tracer.uninstall`.

A span's self time is its duration minus the durations of its child spans,
accumulated as the spans close. Callbacks the program hands to the kernel or
the client (route handlers, ``on_result`` continuations, timer functions) are
wrapped too, each under the layer whose module defined it, so their time is
not billed to whichever layer happened to invoke them. The sum of all self
times equals the sum of top-level span durations; the traced wall time minus
that sum is the part of the run spent in the benchmark's own code.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from typing import Any, Callable

LAYERS = ("simwire", "chassis", "gateway", "registry", "confsvc", "ssaas", "migration")


def layer_of(fn: Callable) -> str | None:
    """The layer whose module defined ``fn``, or None outside the program."""
    module = getattr(fn, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "ssaas_sim" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_trace = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time: list[float] = []
        self.calls: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._child: list[float] = []
        self._trace = -1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.self_time.append(0.0)
            self.calls.append(0)
        return nid

    def span(self, name: str, fn: Callable, root: bool = False) -> Callable:
        """Wrap ``fn`` so every call records a span called ``name``. A root
        span (a kernel step or a harness send) names the trace of every span
        opened under it."""
        nid = self._name_id(name)
        stack, child = self._stack, self._child
        names, parents, traces = self.span_name, self.span_parent, self.span_trace
        starts, ends = self.span_start, self.span_end
        self_time, calls = self.self_time, self.calls
        clock = time.perf_counter
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            prev_trace = tracer._trace
            if root and prev_trace < 0:
                tracer._trace = idx
            traces.append(tracer._trace)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                d = t1 - t0
                self_time[nid] += d - child.pop()
                calls[nid] += 1
                if child:
                    child[-1] += d
                tracer._trace = prev_trace

        wrapper.__module__ = getattr(fn, "__module__", None)
        return wrapper

    def callback(self, fn: Callable | None, kind: str) -> Callable | None:
        """Wrap a callable the program passes around, under its own layer."""
        if fn is None:
            return None
        layer = layer_of(fn)
        if layer is None:
            return fn
        return self.span(f"{layer}.{kind}", fn)

    # -- patching -----------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``, keeping static and
        class methods what they were."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        if isinstance(raw, (staticmethod, classmethod)):
            made = make(raw.__func__)
            made.__module__ = raw.__func__.__module__
            setattr(owner, attr, type(raw)(made))
        else:
            made = make(raw)
            made.__module__ = raw.__module__
            setattr(owner, attr, made)

    def wrap(self, owner: Any, attr: str, name: str, root: bool = False) -> None:
        self.patch(owner, attr, lambda fn: self.span(name, fn, root=root))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, spent in zip(self.names, self.self_time):
            out[name.split(".", 1)[0]] += spent
        return out

    def stat(self, *names: str) -> tuple[int, float]:
        """(calls, self seconds) summed over the named spans."""
        calls = spent = 0
        for name in names:
            nid = self._name_ids.get(name)
            if nid is not None:
                calls += self.calls[nid]
                spent += self.self_time[nid]
        return calls, spent

    def inclusive(self, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of one span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0
        total = 0.0
        for i, n in enumerate(self.span_name):
            if n == nid:
                total += self.span_end[i] - self.span_start[i]
        return self.calls[nid], total

    def write_spans(self, path: str) -> None:
        """Gzipped TSV, one line per span: id, parent, trace, name, start and
        end in microseconds from the first span."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\ttrace\tname\tstart_us\tend_us\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_trace[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{(self.span_start[i] - base) * 1e6:.3f}\t"
                         f"{(self.span_end[i] - base) * 1e6:.3f}\n")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer. Call before any system is
    built: nodes capture their bound handlers when they bind."""
    from ssaas_sim import chassis, confsvc, gateway, migration, registry, simwire
    from ssaas_sim.migration import audit, harness, stages, traces
    from ssaas_sim.ssaas import services, stores

    t, counts = tracer, tracer.counts

    # simwire: the kernel
    sim_cls = simwire.Simulator

    def counted_send(send: Callable) -> Callable:
        def wrapper(self, env, maintenance=None):
            if (maintenance if maintenance is not None else self._ctx_maintenance):
                counts["simwire.maint_msgs"] += 1
            return send(self, env, maintenance)
        return t.span("simwire.send", wrapper)

    t.patch(sim_cls, "send", counted_send)
    t.wrap(sim_cls, "step", "simwire.step", root=True)

    def timer_set(set_timer: Callable) -> Callable:
        def wrapper(self, node, delay, fn, maintenance=None):
            return set_timer(self, node, delay, t.callback(fn, "timer"), maintenance)
        return t.span("simwire.set_timer", wrapper)

    t.patch(sim_cls, "set_timer", timer_set)
    t.wrap(sim_cls, "cancel_timer", "simwire.cancel_timer")
    t.wrap(sim_cls, "advance_to", "simwire.advance_to")
    t.wrap(sim_cls, "run_until_idle", "simwire.run_until_idle")
    t.wrap(simwire.Envelope, "request", "simwire.envelope")
    t.wrap(simwire.Envelope, "response", "simwire.envelope")

    # chassis: nodes, routing, outbound client, resolver, breakers
    node_cls, client_cls = chassis.ServiceNode, chassis.ServiceClient
    t.wrap(node_cls, "_on_envelope", "chassis.inbound")
    t.wrap(node_cls, "dispatch", "chassis.dispatch")

    def routed(route: Callable) -> Callable:
        def wrapper(self, method, pattern, handler):
            return route(self, method, pattern, t.callback(handler, "handler"))
        return wrapper

    t.patch(node_cls, "route", routed)

    def client_call(call: Callable) -> Callable:
        def wrapper(self, service, method, path, body=None, on_result=None, deadline=None):
            if self.mode is chassis.WiringMode.DISCOVERED:
                counts["chassis.discovered_calls"] += 1
                if self.resolver.fresh(service, self.sim.now):
                    counts["chassis.resolver_hits"] += 1
            return call(self, service, method, path, body,
                        t.callback(on_result, "callback"), deadline)
        return t.span("chassis.call", wrapper)

    def client_call_node(call_node: Callable) -> Callable:
        def wrapper(self, target_node, method, path, body=None, on_result=None,
                    deadline=None, track_breaker=False):
            if path == "/refresh":
                counts["confsvc.pushes"] += 1
            return call_node(self, target_node, method, path, body,
                             t.callback(on_result, "callback"), deadline, track_breaker)
        return t.span("chassis.call_node", wrapper)

    t.patch(client_cls, "call", client_call)
    t.patch(client_cls, "call_node", client_call_node)
    t.wrap(client_cls, "handle_response", "chassis.handle_response")

    def counting(key: Callable[..., bool], name: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def wrapper(self, *args):
                if key(self, *args):
                    counts[name] += 1
                return fn(self, *args)
            return wrapper
        return make

    t.patch(client_cls, "_finish_fast", counting(lambda s, cb: True, "chassis.fast_fails"))
    t.patch(client_cls, "_on_deadline",
            counting(lambda s, mid: mid in s._pending, "chassis.timeouts"))
    t.wrap(chassis.Request, "reply", "chassis.reply")
    for module in (gateway, services):
        t.wrap(module, "relay_result", "chassis.relay")
    t.wrap(chassis.Resolver, "resolve", "chassis.resolve")
    t.wrap(chassis.Resolver, "fresh", "chassis.resolver")
    t.wrap(chassis.Resolver, "update", "chassis.resolver")

    breaker = chassis.CircuitBreaker

    def record(record_result: Callable) -> Callable:
        def wrapper(self, success, now):
            before = self.state
            out = record_result(self, success, now)
            if self.state is chassis.CircuitState.OPEN and before is not self.state:
                counts["chassis.breaker_opens"] += 1
            return out
        return t.span("chassis.breaker", wrapper)

    t.patch(breaker, "record_result", record)
    t.wrap(breaker, "allow", "chassis.breaker")
    t.wrap(breaker, "can_attempt", "chassis.breaker")

    # gateway: edge node and prefix tables (also the harness's client router)
    t.wrap(gateway.Gateway, "dispatch", "gateway.dispatch")
    t.wrap(gateway.Gateway, "on_config_applied", "gateway.config")
    t.wrap(gateway.RouteTable, "match", "gateway.match")
    t.wrap(gateway.RouteTable, "rewrite", "gateway.rewrite")

    # registry: lease store
    store_cls = registry.RegistryStore
    for attr in ("register", "deregister", "all_instances"):
        t.wrap(store_cls, attr, f"registry.{attr}")
    t.wrap(store_cls, "query", "registry.query")
    t.wrap(store_cls, "renew", "registry.renew")

    def sweeping(sweep: Callable) -> Callable:
        def wrapper(self, now):
            evicted = sweep(self, now)
            counts["registry.evictions"] += len(evicted)
            return evicted
        return t.span("registry.sweep", wrapper)

    t.patch(store_cls, "sweep", sweeping)

    # confsvc: document store and the pull handler
    t.wrap(confsvc.ConfigStore, "get_config", "confsvc.store")
    t.wrap(confsvc.ConfigStore, "set_config", "confsvc.store")
    t.patch(confsvc.ConfigServer, "_get", counting(lambda s, req: True, "confsvc.pulls"))

    # ssaas: domain stores, the content schema cache, the monolith fan-out
    for cls in (stores.DeveloperStore, stores.ServerPool, stores.SchemaStore,
                stores.ContentStore, stores.ChatStore):
        for attr, value in list(vars(cls).items()):
            if callable(value) and not attr.startswith("_"):
                t.wrap(cls, attr, "ssaas.store")
    t.wrap(services, "validate_values", "ssaas.validate")

    def schema_cache(with_schema: Callable) -> Callable:
        def wrapper(self, req, pid, fn):
            counts["ssaas.schema_lookups"] += 1
            cached = self._schema_cache.get(pid)
            if cached is not None and self.sim.now - cached[0] < services.SCHEMA_CACHE_TTL_TICKS:
                counts["ssaas.schema_cache_hits"] += 1
            return with_schema(self, req, pid, fn)
        return t.span("ssaas.schema_cache", wrapper)

    t.patch(services.ContentServices, "_with_schema", schema_cache)
    t.wrap(services.Monolith, "dispatch", "ssaas.dispatch")

    # migration: stage construction, harness, trace tooling, audit
    for module in (stages, migration):
        t.wrap(module, "build_stage", "migration.build")
    t.wrap(stages.SystemHandle, "add_instance", "migration.scale")
    for module in (harness, migration):
        t.wrap(module, "run_workload", "migration.harness")
        t.wrap(module, "parse_workload", "migration.parse")
    t.wrap(harness, "_send", "migration.send", root=True)
    for module in (traces, migration):
        t.wrap(module, "compare_traces", "migration.diff")
        t.wrap(module, "serialize_trace", "migration.serialize")
    for module in (audit, migration):
        t.wrap(module, "audit_ownership", "migration.audit")
