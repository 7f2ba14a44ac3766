"""graspcheck engine + rule tests.

Every rule gets a bad fixture reproducing the historical bug class it
encodes (which must fire) and a minimal good fixture (which must stay
clean), plus engine-level tests for suppression comments, JSON output,
path scoping and the CLI.  The capstone test runs the full rule set over
the installed ``repro`` package: the tree must be clean, forever.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exceptions import LintError
from repro.lint import all_rules, get_rule, lint_paths, lint_source
from repro.lint.engine import render_json, render_text


def ids_of(findings):
    return [f.rule_id for f in findings]


def lint_as(path, source, select=None):
    """Lint ``source`` as if it lived at ``path`` (for scope-sensitive rules)."""
    return lint_source(source, path=path, select=select)


# --------------------------------------------------------------------- engine


def test_registry_has_at_least_eight_rules_with_docs():
    rules = all_rules()
    assert len(rules) >= 8
    assert [r.id for r in rules] == sorted({r.id for r in rules})
    for rule in rules:
        assert rule.id.startswith("GC")
        assert rule.summary
        assert rule.rationale


def test_get_rule_unknown_id_raises():
    with pytest.raises(LintError):
        get_rule("GC999")


def test_syntax_error_raises_lint_error():
    with pytest.raises(LintError):
        lint_source("def broken(:\n", path="x.py")


def test_lint_paths_missing_target_raises(tmp_path):
    with pytest.raises(LintError):
        lint_paths([str(tmp_path / "nope.py")])


def test_suppression_single_rule():
    bad = "import threading\nt = threading.Thread(target=print)  # graspcheck: disable=GC001\n"
    assert lint_source(bad, path="src/repro/x.py") == []


def test_suppression_all_rules_bare_disable():
    bad = "import threading\nt = threading.Thread(target=print)  # graspcheck: disable\n"
    assert lint_source(bad, path="src/repro/x.py") == []


def test_suppression_other_rule_does_not_mask():
    bad = "import threading\nt = threading.Thread(target=print)  # graspcheck: disable=GC007\n"
    assert "GC001" in ids_of(lint_source(bad, path="src/repro/x.py"))


def test_select_limits_rules():
    bad = "import threading\nt = threading.Thread(target=print)\n"
    assert lint_source(bad, path="src/repro/x.py", select=["GC002"]) == []
    assert ids_of(lint_source(bad, path="src/repro/x.py", select=["GC001"])) == [
        "GC001",
        "GC001",
    ]


def test_json_output_round_trips(tmp_path):
    target = tmp_path / "repro" / "cluster" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(sock):\n    sock.close()\n")
    findings = lint_paths([str(target)])
    payload = json.loads(render_json(findings))
    assert payload["count"] == len(findings) == 1
    assert payload["findings"][0]["rule_id"] == "GC002"
    assert payload["findings"][0]["line"] == 2
    assert render_text(findings).endswith("1 finding(s)")
    assert render_text([]) == "graspcheck: clean"


def test_cli_exit_codes(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    bad = tmp_path / "repro" / "cluster" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(sock):\n    sock.close()\n")
    env_cmd = [sys.executable, "-m", "repro.lint"]
    ok = subprocess.run(env_cmd + [str(clean)], capture_output=True, text=True)
    assert ok.returncode == 0
    assert "clean" in ok.stdout
    dirty = subprocess.run(
        env_cmd + [str(bad), "--format", "json"], capture_output=True, text=True
    )
    assert dirty.returncode == 1
    assert json.loads(dirty.stdout)["count"] == 1
    missing = subprocess.run(
        env_cmd + [str(tmp_path / "nope.py")], capture_output=True, text=True
    )
    assert missing.returncode == 2
    listing = subprocess.run(env_cmd + ["--list-rules"], capture_output=True, text=True)
    assert listing.returncode == 0
    assert "GC008" in listing.stdout
    assert "GC009" in listing.stdout


# ---------------------------------------------------------------------- GC001


def test_gc001_fires_on_unnamed_thread():
    bad = "import threading\nthreading.Thread(target=print, daemon=True)\n"
    findings = lint_source(bad, path="src/repro/x.py")
    assert ids_of(findings) == ["GC001"]
    assert "name=" in findings[0].message


def test_gc001_fires_on_wrong_prefix_and_missing_daemon():
    bad = "import threading\nthreading.Thread(target=print, name='reader')\n"
    assert ids_of(lint_source(bad, path="src/repro/x.py")) == ["GC001", "GC001"]


def test_gc001_fires_on_dynamic_name_without_static_prefix():
    bad = (
        "import threading\n"
        "threading.Thread(target=print, name=f'{kind}-reader', daemon=True)\n"
    )
    assert ids_of(lint_source(bad, path="src/repro/x.py")) == ["GC001"]


def test_gc001_clean_on_grasp_named_daemon_thread():
    good = (
        "import threading\n"
        "threading.Thread(target=print, name='grasp-reader', daemon=True)\n"
        "threading.Thread(target=print, name=f'grasp-rank-{r}', daemon=False)\n"
    )
    assert lint_source(good, path="src/repro/x.py") == []


# ---------------------------------------------------------------------- GC002


def test_gc002_fires_on_close_without_shutdown():
    bad = "def f(self):\n    self._sock.close()\n"
    findings = lint_as("src/repro/cluster/w.py", bad)
    assert ids_of(findings) == ["GC002"]


def test_gc002_clean_with_shutdown_same_function():
    good = (
        "import socket\n"
        "def f(self):\n"
        "    try:\n"
        "        self._sock.shutdown(socket.SHUT_RDWR)\n"
        "    except OSError:\n"
        "        pass\n"
        "    self._sock.close()\n"
    )
    assert lint_as("src/repro/cluster/w.py", good) == []


def test_gc002_scoped_to_cluster_dirs():
    bad = "def f(self):\n    self._sock.close()\n"
    assert lint_as("src/repro/skeletons/w.py", bad) == []


def test_gc002_different_sockets_tracked_separately():
    bad = (
        "import socket\n"
        "def f(self, other_sock):\n"
        "    self._sock.shutdown(socket.SHUT_RDWR)\n"
        "    self._sock.close()\n"
        "    other_sock.close()\n"
    )
    findings = lint_as("src/repro/cluster/w.py", bad)
    assert ids_of(findings) == ["GC002"]
    assert "other_sock" in findings[0].message


# ---------------------------------------------------------------------- GC003


def test_gc003_fires_on_lambda_into_registry():
    bad = "register_payload(lambda x: x)\n"
    assert ids_of(lint_source(bad, path="src/repro/x.py")) == ["GC003"]


def test_gc003_fires_on_lambda_into_coordinator_submit():
    bad = "def run(coordinator):\n    coordinator.submit('n', lambda x: x)\n"
    assert ids_of(lint_source(bad, path="src/repro/x.py")) == ["GC003"]


def test_gc003_fires_on_nested_def_reference():
    bad = (
        "def outer(coordinator):\n"
        "    def worker(x):\n"
        "        return x\n"
        "    coordinator.submit('n', worker)\n"
    )
    findings = lint_source(bad, path="src/repro/x.py")
    assert ids_of(findings) == ["GC003"]
    assert "worker" in findings[0].message


def test_gc003_clean_on_module_level_function():
    good = (
        "def worker(x):\n"
        "    return x\n"
        "def run(coordinator):\n"
        "    coordinator.submit('n', worker)\n"
    )
    assert lint_source(good, path="src/repro/x.py") == []


def test_gc003_plain_submit_on_non_coordinator_ignored():
    good = "def run(executor):\n    executor.submit(lambda: 1)\n"
    assert lint_source(good, path="src/repro/x.py") == []


# ---------------------------------------------------------------------- GC004


def test_gc004_fires_on_base_exception_capture():
    bad = (
        "def execute(task):\n"
        "    try:\n"
        "        value = run_payload(task)\n"
        "    except BaseException as exc:\n"
        "        return exc\n"
    )
    findings = lint_source(bad, path="src/repro/x.py")
    assert ids_of(findings) == ["GC004"]


def test_gc004_fires_on_bare_except_and_tuple():
    bad = (
        "def execute(task):\n"
        "    try:\n"
        "        value = run_chunk(task)\n"
        "    except (OSError, BaseException):\n"
        "        pass\n"
        "def execute2(task):\n"
        "    try:\n"
        "        value = run_stage(task)\n"
        "    except:\n"
        "        pass\n"
    )
    assert ids_of(lint_source(bad, path="src/repro/x.py")) == ["GC004", "GC004"]


def test_gc004_clean_on_exception_capture():
    good = (
        "def execute(task):\n"
        "    try:\n"
        "        value = run_payload(task)\n"
        "    except Exception as exc:\n"
        "        return exc\n"
    )
    assert lint_source(good, path="src/repro/x.py") == []


def test_gc004_ignores_try_without_payload_call():
    good = "def f():\n    try:\n        g()\n    except BaseException:\n        raise\n"
    assert lint_source(good, path="src/repro/x.py") == []


# ---------------------------------------------------------------------- GC005


def test_gc005_fires_on_wall_clock_in_core():
    bad = "import time\ndef tick():\n    return time.monotonic()\n"
    assert ids_of(lint_as("src/repro/core/x.py", bad)) == ["GC005"]


def test_gc005_fires_on_aliased_and_from_imports():
    bad = (
        "import time as _t\n"
        "from time import perf_counter as pc\n"
        "def tick():\n"
        "    return _t.time() + pc()\n"
    )
    assert ids_of(lint_as("src/repro/monitor/x.py", bad)) == ["GC005", "GC005"]


def test_gc005_clean_outside_scoped_dirs():
    ok = "import time\ndef tick():\n    return time.monotonic()\n"
    assert lint_as("src/repro/cluster/x.py", ok) == []


def test_gc005_clean_on_backend_clock():
    good = "def tick(backend):\n    return backend.now\n"
    assert lint_as("src/repro/skeletons/x.py", good) == []


# ---------------------------------------------------------------------- GC006


def test_gc006_fires_on_result_in_coroutine():
    bad = "async def drain(self, fut):\n    return fut.result()\n"
    findings = lint_as("src/repro/backends/async_.py", bad)
    assert ids_of(findings) == ["GC006"]


def test_gc006_fires_on_sync_lock_in_coroutine():
    bad = "async def drain(self):\n    with self._lock:\n        pass\n"
    assert ids_of(lint_as("src/repro/backends/async_.py", bad)) == ["GC006"]


def test_gc006_fires_on_blocking_lambda_posted_to_loop():
    bad = "def submit(self, fut):\n    self._runner.post(lambda: fut.result())\n"
    assert ids_of(lint_as("src/repro/backends/async_.py", bad)) == ["GC006"]


def test_gc006_clean_on_await_and_async_lock():
    good = (
        "async def drain(self, fut):\n"
        "    async with self._alock:\n"
        "        return await fut\n"
    )
    assert lint_as("src/repro/backends/async_.py", good) == []


def test_gc006_scoped_to_async_modules():
    ok = "async def drain(self, fut):\n    return fut.result()\n"
    assert lint_as("src/repro/backends/process.py", ok) == []


# ---------------------------------------------------------------------- GC007


def test_gc007_fires_on_inline_encode_in_sendall():
    bad = "def send(self, msg):\n    self.sock.sendall(encode(msg))\n"
    findings = lint_as("src/repro/cluster/c.py", bad)
    assert ids_of(findings) == ["GC007"]


def test_gc007_fires_on_pickle_dumps_inline():
    bad = "import pickle\ndef send(self, msg):\n    self.sock.sendall(pickle.dumps(msg))\n"
    assert ids_of(lint_as("src/repro/cluster/c.py", bad)) == ["GC007"]


def test_gc007_clean_on_preencoded_frame():
    good = (
        "def send(self, msg):\n"
        "    payload = encode(msg)\n"
        "    with self.send_lock:\n"
        "        self.sock.sendall(payload)\n"
    )
    assert lint_as("src/repro/cluster/c.py", good) == []


def test_gc007_scoped_to_cluster_dirs():
    ok = "def send(self, msg):\n    self.sock.sendall(encode(msg))\n"
    assert lint_as("src/repro/skeletons/c.py", ok) == []


# ---------------------------------------------------------------------- GC008


def test_gc008_fires_on_unprotected_writeback_after_loop():
    bad = (
        "class StreamDecoder:\n"
        "    def feed(self, data):\n"
        "        buf = self._buffer + data\n"
        "        offset = 0\n"
        "        out = []\n"
        "        while offset < len(buf):\n"
        "            frame, offset = decode_one(buf, offset)\n"
        "            out.append(frame)\n"
        "        self._buffer = buf[offset:]\n"
        "        return out\n"
    )
    findings = lint_source(bad, path="src/repro/x.py")
    assert ids_of(findings) == ["GC008"]


def test_gc008_clean_with_finally_writeback():
    good = (
        "class StreamDecoder:\n"
        "    def feed(self, data):\n"
        "        buf = self._buffer + data\n"
        "        offset = 0\n"
        "        out = []\n"
        "        try:\n"
        "            while offset < len(buf):\n"
        "                frame, offset = decode_one(buf, offset)\n"
        "                out.append(frame)\n"
        "        finally:\n"
        "            self._buffer = buf[offset:]\n"
        "        return out\n"
    )
    assert lint_source(good, path="src/repro/x.py") == []


def test_gc008_only_applies_to_decoder_classes():
    ok = (
        "class Accumulator:\n"
        "    def feed(self, data):\n"
        "        total = 0\n"
        "        for item in data:\n"
        "            total += item\n"
        "        self._total = total\n"
    )
    assert lint_source(ok, path="src/repro/x.py") == []


def test_gc008_incremental_updates_inside_loop_are_clean():
    good = (
        "class StreamDecoder:\n"
        "    def feed(self, data):\n"
        "        out = []\n"
        "        for b in data:\n"
        "            self._offset += 1\n"
        "            out.append(b)\n"
        "        return out\n"
    )
    assert lint_source(good, path="src/repro/x.py") == []


# ---------------------------------------------------------------------- GC009


def test_gc009_fires_on_wall_clock_in_metrics():
    bad = "import time\ndef stamp():\n    return time.time()\n"
    assert ids_of(lint_as("src/repro/metrics/registry.py", bad)) == ["GC009"]


def test_gc009_fires_on_aliased_and_from_imports():
    bad = (
        "import time as _t\n"
        "from time import perf_counter as pc\n"
        "def stamp():\n"
        "    return _t.time() + pc()\n"
    )
    assert ids_of(lint_as("src/repro/metrics/x.py", bad)) == ["GC009", "GC009"]


def test_gc009_clean_in_clock_shim():
    ok = "import time\ndef wall_time():\n    return time.time()\n"
    assert lint_as("src/repro/metrics/clock.py", ok) == []


def test_gc009_clean_outside_metrics():
    ok = "import time\ndef stamp():\n    return time.time()\n"
    assert lint_as("src/repro/cluster/x.py", ok) == []


def test_gc009_clean_without_clock_calls():
    ok = "from repro.metrics.clock import wall_time\nstamp = wall_time()\n"
    assert lint_as("src/repro/metrics/registry.py", ok) == []


# ---------------------------------------------------------------------- GC010


def test_gc010_fires_on_raw_shared_memory_outside_shm_module():
    bad = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def grab(n):\n"
        "    return SharedMemory(create=True, size=n)\n"
    )
    assert ids_of(lint_as("src/repro/cluster/coordinator.py", bad)) == ["GC010"]


def test_gc010_fires_on_module_attribute_and_alias_forms():
    bad = (
        "from multiprocessing import shared_memory\n"
        "from multiprocessing.shared_memory import SharedMemory as SM\n"
        "def grab(n):\n"
        "    a = shared_memory.SharedMemory(create=True, size=n)\n"
        "    b = SM(name='x')\n"
        "    return a, b\n"
    )
    findings = ids_of(lint_as("src/repro/backends/process.py", bad))
    assert findings == ["GC010", "GC010"]


def test_gc010_clean_inside_backends_shm_module():
    ok = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def grab(n):\n"
        "    return SharedMemory(create=True, size=n)\n"
    )
    assert lint_as("src/repro/backends/shm.py", ok) == []


def test_gc010_clean_when_going_through_the_registry():
    ok = (
        "from repro.backends.shm import BufferRegistry\n"
        "def grab(registry, n):\n"
        "    return registry.create(n)\n"
    )
    assert lint_as("src/repro/cluster/coordinator.py", ok) == []


def test_gc010_import_alone_does_not_fire():
    ok = "from multiprocessing.shared_memory import SharedMemory\n"
    assert lint_as("src/repro/cluster/x.py", ok) == []


# ------------------------------------------------------------------- capstone


def test_repro_package_is_graspcheck_clean():
    package_root = Path(repro.__file__).parent
    findings = lint_paths([str(package_root)])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)
