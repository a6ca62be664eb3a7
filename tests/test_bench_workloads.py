"""The benchmark's generated workloads still replay to their pinned digests.

``bench/golden.json`` pins, besides the bundled scripts, the external and
wire trace digests of each generated mix at its pinned seed: mix-s6, mix-s0
and faults-s6. These are the runs that provision projects at volume and
create chats under kill/revive, so a refactor of the services' call chains
that changes a single message shows here. This test loads the generator and
the sample runner read-only from ``bench/``, writes the inputs to a
temporary directory and replays each mix as the benchmark does.
"""

from __future__ import annotations

import importlib.util
import json
import sys

import pytest

from test_bench_tracer import BENCH

GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["workloads"]


def load(monkeypatch, name: str):
    # The bench modules import their siblings by bare name. Compile without
    # writing bytecode next to them.
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_mix_matches_golden_digests(monkeypatch, tmp_path, name):
    gen, child = load(monkeypatch, "gen"), load(monkeypatch, "child")
    wl, pinned = child.WORKLOADS[name], GOLDEN[name]
    mix = gen.generate(pinned["seed"], pinned["requests"], chat=wl.chat, faults=wl.faults)
    (tmp_path / "mix.wl").write_text(mix.workload_text(), encoding="utf-8")
    (tmp_path / "mix.fs").write_text(mix.faults_text(), encoding="utf-8")
    (tmp_path / "expect.txt").write_text("\n".join(mix.expect) + "\n", encoding="utf-8")
    result = child.run_mix(wl, pinned["seed"], tmp_path)
    assert result["mismatches"] == 0, result["notes"]
    assert result["requests"] == pinned["requests"]
    assert result["digest"] == {"external": pinned["external"], "wire": pinned["wire"]}
