"""Seeded input generator for the benchmark workloads.

A mix is an open-loop request stream, one arrival per tick, over the public
routes. It is emitted as ordinary ``.wl`` text (plus a ``.fs`` fault script
for the fault workload), so any benchmark run can be replayed with
``ssaas-sim run --stage N --workload mix.wl [--faults mix.fs]``. Next to the
text the generator returns the status it intends for every line, which is the
benchmark's oracle.

Record ids are global and assigned in arrival order at each store. From
stage 3 on, discovery and schema-cache misses stretch some requests by a few
ticks, so two creations sent close together can swap ids, and a read, PUT or
DELETE sent soon after a write can overtake it. The generator therefore keeps
its predictions valid at every stage:

* creations of one id family are spaced ``CREATE_GAP`` ticks apart, more
  than the largest latency difference a miss can add;
* an entity is referenced only ``SAFE_TICKS`` after the request that created
  it, a column is written only ``SAFE_TICKS + SCHEMA_TTL`` after it was added
  (the content service caches schemas), and a record is deleted only
  ``SAFE_TICKS`` after its last use and never referenced again;
* in the fault workload, requests that would assign an id on a service the
  fault script kills are kept out of a window around each kill, so a lost
  creation cannot shift later ids.

Op types are drawn by stride scheduling: the feasible op whose count,
measured in its own share, lags the clock most goes next, with seeded jitter
below one pick. Every seed gives the same proportions, so the simulated
metrics differ between seeds only through which entities are touched.
"""

from __future__ import annotations

import json
import random

SAFE_TICKS = 60
SCHEMA_TTL = 10
CREATE_GAP = {"dev": 10, "rec": 10, "proj": 60, "chat": 60}
ORACLE_SLOTS = 8
MYSQL_SLOTS = 8
MAX_TABLES = 6
MAX_COLUMNS = 5
COLUMN_TYPES = ("text", "int", "bool")
UNKNOWN_ID = 1_000_000
# Around each kill, no id-assigning request goes to the killed service:
# in-flight work, lease expiry (30), sweep (5), resolver ttl (10) and the
# breaker's open period (30) all fit inside it.
FAULT_WINDOW = (-10, 100)

# Share of arrivals per op type. Ops that are not feasible at a tick (no
# target yet, a creation gap not yet over, a cap reached) give their turn to
# the feasible ops, in proportion to their shares.
MIX_SHARES = {
    "dev_create": 6, "dev_read": 10, "dev_read_unknown": 1,
    "proj_create": 3, "proj_ghost": 1, "proj_read": 4, "proj_read_unknown": 0.5,
    "table_add": 3, "table_dup": 0.5, "column_add": 4, "column_dup": 0.5,
    "rec_insert": 12, "rec_insert_bad": 1, "rec_insert_no_table": 0.5,
    "rec_get": 25, "rec_get_unknown": 1, "rec_list": 8,
    "rec_update": 6, "rec_delete": 3,
}
CHAT_SHARES = {"chat_create": 3, "chat_read": 4, "chat_read_unknown": 0.5}
FALLBACK = "rec_list_empty"  # always feasible, always 200


class Mix:
    """One generated workload: lines (tick, method, path, body), the
    intended status of each, and an optional fault script."""

    def __init__(self, lines: list[tuple[int, str, str, object]],
                 expect: list[str], faults: list[str]) -> None:
        self.lines = lines
        self.expect = expect
        self.faults = faults

    def workload_text(self) -> str:
        out = []
        for tick, method, path, body in self.lines:
            text = "" if body is None else json.dumps(body, sort_keys=True,
                                                      separators=(",", ":"))
            out.append(f"{tick}|client|{method}|{path}|{text}\n")
        return "".join(out)

    def faults_text(self) -> str:
        return "".join(line + "\n" for line in self.faults)

    def intended_4xx_share(self) -> float:
        return sum(1 for s in self.expect if s.startswith("4")) / len(self.expect)


class _Gen:
    def __init__(self, seed: int, chat: bool, kills: list[tuple[int, str]]) -> None:
        self.rng = random.Random(seed)
        self.shares = dict(MIX_SHARES, **(CHAT_SHARES if chat else {}))
        total = sum(self.shares.values())
        self.shares = {k: v / total for k, v in self.shares.items()}
        self.counts = {k: 0 for k in self.shares}
        self.kills = kills
        self.last = {k: -10**9 for k in CREATE_GAP}
        self.devs: list[tuple[int, int]] = []        # (id, ready tick)
        self.projects: list[tuple[int, int]] = []
        self.tables: list[dict] = []                 # pid, name, ready, columns
        self.records: dict[int, dict] = {}           # live records by id
        self.chats: list[tuple[int, int]] = []
        self.next_id = {"dev": 1, "proj": 1, "rec": 1, "chat": 1}
        self.chat_attempts = 0
        self.t = 0

    # -- feasibility helpers ------------------------------------------------

    def _ready(self, items: list[tuple[int, int]]) -> list[int]:
        return [i for i, ready in items if ready <= self.t]

    def _gap_over(self, family: str) -> bool:
        return self.t - self.last[family] >= CREATE_GAP[family]

    def _in_fault_window(self, service: str) -> bool:
        lo, hi = FAULT_WINDOW
        return any(node.startswith(service) and tick + lo <= self.t <= tick + hi
                   for tick, node in self.kills)

    def _ready_tables(self) -> list[dict]:
        return [tb for tb in self.tables if tb["ready"] <= self.t]

    def _writable_tables(self) -> list[dict]:
        return [tb for tb in self.tables
                if any(ready <= self.t for _, ready in tb["columns"].values())]

    def _usable_records(self, idle: bool = False) -> list[int]:
        return [rid for rid, rec in self.records.items()
                if rec["ready"] <= self.t
                and (not idle or self.t - rec["last"] >= SAFE_TICKS)]

    def feasible(self, op: str) -> bool:
        if op == "dev_create":
            return self._gap_over("dev")
        if op == "dev_read":
            return bool(self._ready(self.devs))
        if op == "proj_create":
            return (len(self.projects) < ORACLE_SLOTS and self._gap_over("proj")
                    and bool(self._ready(self.devs)))
        if op == "proj_read":
            return bool(self._ready(self.projects))
        if op == "table_add":
            return any(sum(1 for tb in self.tables if tb["pid"] == pid) < MAX_TABLES
                       for pid in self._ready(self.projects))
        if op == "table_dup":
            return bool(self._ready_tables())
        if op == "column_add":
            return any(len(tb["columns"]) < MAX_COLUMNS for tb in self._ready_tables())
        if op == "column_dup":
            return any(ready <= self.t for tb in self.tables
                       for _, ready in tb["columns"].values())
        if op == "rec_insert":
            return (self._gap_over("rec") and bool(self._writable_tables())
                    and not self._in_fault_window("contentservices"))
        if op == "rec_insert_bad":
            return bool(self._writable_tables())
        if op == "rec_insert_no_table":
            return bool(self._ready(self.projects))
        if op == "rec_list":
            return bool(self._ready_tables())
        if op in ("rec_get", "rec_update"):
            return bool(self._usable_records())
        if op == "rec_delete":
            return bool(self._usable_records(idle=True))
        if op == "chat_create":
            return (self._gap_over("chat") and bool(self._ready(self.devs))
                    and not self._in_fault_window("chatservices"))
        if op == "chat_read":
            return bool(self._ready(self.chats))
        return True

    # -- one request ----------------------------------------------------------

    def _values(self, tb: dict) -> dict:
        cols = sorted(c for c, (_, ready) in tb["columns"].items() if ready <= self.t)
        picked = self.rng.sample(cols, self.rng.randint(1, len(cols)))
        values = {}
        for col in sorted(picked):
            ctype = tb["columns"][col][0]
            if ctype == "int":
                values[col] = self.rng.randrange(1000)
            elif ctype == "bool":
                values[col] = self.rng.random() < 0.5
            else:
                values[col] = f"v{self.rng.randrange(10_000)}"
        return values

    def _new_id(self, family: str) -> int:
        ident = self.next_id[family]
        self.next_id[family] += 1
        self.last[family] = self.t
        return ident

    def emit(self, op: str) -> tuple[str, str, object, str]:
        rng, t = self.rng, self.t
        if op == "dev_create":
            did = self._new_id("dev")
            self.devs.append((did, t + SAFE_TICKS))
            return "POST", "/api/developers", {"name": f"dev{did}",
                                               "email": f"dev{did}@example.dev"}, "200"
        if op == "dev_read":
            return "GET", f"/api/developers/{rng.choice(self._ready(self.devs))}", None, "200"
        if op == "dev_read_unknown":
            return "GET", f"/api/developers/{UNKNOWN_ID + t}", None, "404"
        if op == "proj_create":
            owner = rng.choice(self._ready(self.devs))
            pid = self._new_id("proj")
            self.projects.append((pid, t + SAFE_TICKS))
            return "POST", "/api/projects", {"name": f"proj{pid}",
                                             "owner_developer_id": owner}, "200"
        if op == "proj_ghost":
            return "POST", "/api/projects", {"name": f"ghost{t}",
                                             "owner_developer_id": UNKNOWN_ID + t}, "404"
        if op == "proj_read":
            return "GET", f"/api/projects/{rng.choice(self._ready(self.projects))}", None, "200"
        if op == "proj_read_unknown":
            return "GET", f"/api/projects/{UNKNOWN_ID + t}", None, "404"
        if op == "table_add":
            pids = [pid for pid in self._ready(self.projects)
                    if sum(1 for tb in self.tables if tb["pid"] == pid) < MAX_TABLES]
            pid = rng.choice(pids)
            name = f"t{sum(1 for tb in self.tables if tb['pid'] == pid)}"
            self.tables.append({"pid": pid, "name": name, "ready": t + SAFE_TICKS,
                                "columns": {}})
            return "POST", f"/api/projects/{pid}/tables", {"table": name}, "200"
        if op == "table_dup":
            tb = rng.choice(self._ready_tables())
            return "POST", f"/api/projects/{tb['pid']}/tables", {"table": tb["name"]}, "409"
        if op == "column_add":
            tb = rng.choice([tb for tb in self._ready_tables()
                             if len(tb["columns"]) < MAX_COLUMNS])
            col = f"c{len(tb['columns'])}"
            ctype = rng.choice(COLUMN_TYPES)
            tb["columns"][col] = (ctype, t + SAFE_TICKS + SCHEMA_TTL)
            return ("POST", f"/api/projects/{tb['pid']}/tables/{tb['name']}/columns",
                    {"column": col, "type": ctype}, "200")
        if op == "column_dup":
            tb, col = rng.choice([(tb, c) for tb in self.tables
                                  for c, (_, ready) in tb["columns"].items() if ready <= t])
            return ("POST", f"/api/projects/{tb['pid']}/tables/{tb['name']}/columns",
                    {"column": col, "type": tb["columns"][col][0]}, "409")
        if op == "rec_insert":
            tb = rng.choice(self._writable_tables())
            values = self._values(tb)
            rid = self._new_id("rec")
            self.records[rid] = {"pid": tb["pid"], "table": tb, "ready": t + SAFE_TICKS,
                                 "last": t}
            return "POST", f"/api/content/{tb['pid']}/{tb['name']}", {"values": values}, "200"
        if op == "rec_insert_bad":
            tb = rng.choice(self._writable_tables())
            col = rng.choice(sorted(c for c, (_, ready) in tb["columns"].items()
                                    if ready <= t))
            wrong = [] if tb["columns"][col][0] != "text" else 7
            return ("POST", f"/api/content/{tb['pid']}/{tb['name']}",
                    {"values": {col: wrong}}, "400")
        if op == "rec_insert_no_table":
            pid = rng.choice(self._ready(self.projects))
            return "POST", f"/api/content/{pid}/missing", {"values": {"x": 1}}, "404"
        if op == "rec_get":
            rid = rng.choice(self._usable_records())
            rec = self.records[rid]
            rec["last"] = t
            return "GET", f"/api/content/{rec['pid']}/{rec['table']['name']}/{rid}", None, "200"
        if op == "rec_get_unknown":
            return "GET", f"/api/content/1/t0/{UNKNOWN_ID + t}", None, "404"
        if op == "rec_list":
            tb = rng.choice(self._ready_tables())
            return "GET", f"/api/content/{tb['pid']}/{tb['name']}", None, "200"
        if op == "rec_update":
            rid = rng.choice(self._usable_records())
            rec = self.records[rid]
            rec["last"] = t
            return ("PUT", f"/api/content/{rec['pid']}/{rec['table']['name']}/{rid}",
                    {"values": self._values(rec["table"])}, "200")
        if op == "rec_delete":
            rid = rng.choice(self._usable_records(idle=True))
            rec = self.records.pop(rid)
            return "DELETE", f"/api/content/{rec['pid']}/{rec['table']['name']}/{rid}", None, "200"
        if op == "chat_create":
            did = rng.choice(self._ready(self.devs))
            self.last["chat"] = t
            self.chat_attempts += 1
            if self.chat_attempts > MYSQL_SLOTS:
                return "POST", "/api/chat", {"developer_id": did}, "409"
            cid = self._new_id("chat")
            self.chats.append((cid, t + SAFE_TICKS))
            return "POST", "/api/chat", {"developer_id": did}, "200"
        if op == "chat_read":
            return "GET", f"/api/chat/{rng.choice(self._ready(self.chats))}", None, "200"
        if op == "chat_read_unknown":
            return "GET", f"/api/chat/{UNKNOWN_ID + t}", None, "404"
        # FALLBACK: listing a table nobody created answers an empty list.
        return "GET", f"/api/content/{UNKNOWN_ID}/empty", None, "200"

    def pick(self) -> str:
        best, best_score = FALLBACK, None
        for op, share in self.shares.items():
            if not self.feasible(op):
                continue
            score = self.t + 1 - (self.counts[op] + self.rng.random()) / share
            if best_score is None or score > best_score:
                best, best_score = op, score
        if best != FALLBACK:
            self.counts[best] += 1
        return best


def kill_script(seed: int, requests: int) -> list[tuple[int, str, int]]:
    """Three kill/revive pairs at about 1/4, 1/2 and 3/4 of the run: one
    ContentServices instance, one ChatServices instance, then the other
    ContentServices instance. The seed picks instances, jitter and downtime;
    the shape is fixed so that every seed exercises the same failure paths."""
    rng = random.Random(f"{seed}:faults")
    content = rng.sample(["contentservices-1", "contentservices-2"], 2)
    chat = rng.choice(["chatservices-1", "chatservices-2"])
    out = []
    for frac, node in ((0.25, content[0]), (0.5, chat), (0.75, content[1])):
        tick = int(requests * frac) + rng.randrange(-requests // 100, requests // 100 + 1)
        out.append((tick, node, rng.randint(20, 60)))
    return out


def generate(seed: int, requests: int, chat: bool = False, faults: bool = False) -> Mix:
    """Generate ``requests`` lines, one per tick from tick 0."""
    kills = kill_script(seed, requests) if faults else []
    gen = _Gen(seed, chat, [(tick, node) for tick, node, _ in kills])
    lines, expect = [], []
    for t in range(requests):
        gen.t = t
        method, path, body, status = gen.emit(gen.pick())
        lines.append((t, method, path, body))
        expect.append(status)
    script = []
    for tick, node, down in kills:
        script.append(f"{tick} kill {node}")
        script.append(f"{tick + down} revive {node}")
    script.sort(key=lambda line: int(line.split()[0]))
    return Mix(lines, expect, script)
