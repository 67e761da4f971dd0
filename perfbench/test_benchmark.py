"""Self-test of the benchmark at a tiny size: ``python3 -m pytest -q perfbench``.

Runs every workload untraced and traced, and checks that the result line
carries every metric that BENCHMARK.json names, each with its unit.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
from tracer import Tracer  # noqa: E402


def _run(root, workload, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_patches_every_binding_and_splits_self_time():
    lib = types.ModuleType("lib")
    exec(
        "import time\n"
        "def leaf():\n    time.sleep(0.01)\n"
        "def outer():\n    leaf()\n    time.sleep(0.02)\n",
        lib.__dict__,
    )
    user = types.ModuleType("user")
    user.leaf = lib.leaf  # a name bound with 'from lib import leaf'
    originals = (lib.leaf, lib.outer)
    tracer = Tracer([lib, user], roots=("lib.outer",))
    with tracer:
        lib.outer()
        user.leaf()
    assert (lib.leaf, lib.outer, user.leaf) == originals + (originals[0],)
    summary = tracer.summary()
    assert summary["lib.leaf"]["calls"] == 2
    assert summary["lib.outer"]["calls"] == 1
    assert 0.015 <= summary["lib.outer"]["self_s"] < 0.03
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    outer = by_name["lib.outer"][0]
    inner, top_level = sorted(by_name["lib.leaf"], key=lambda s: s[4])
    assert inner[1] == outer[0] and inner[2] == outer[2]  # child of outer, same trace
    assert top_level[1] == 0 and top_level[2] != outer[2]  # its own trace
