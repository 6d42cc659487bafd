"""The process state that ``import arealstat`` sets up.

Each check runs in a fresh interpreter with an explicit environment: the
suite itself imports numpy before arealstat, so its own process shows
neither the thread setting nor the import graph a user's run gets.
"""

import json
import os
import subprocess
import sys

import pytest

import arealstat

_SRC = os.path.dirname(os.path.dirname(arealstat.__file__))
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_STATE_PROBE = """
import gc, json, os, sys
import arealstat
task = "/proc/self/task"
print(json.dumps({
    "env": {k: os.environ.get(k) for k in sys.argv[1:]},
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
    "frozen": gc.get_freeze_count(),
    "modules": sorted(m for m in sys.modules if m in ("ssl", "http", "urllib.request")),
}))
"""

_RUN_PROBE = """
import json, os, sys
from arealstat.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _run(code, args=(), **preset):
    """Run ``code`` in a fresh interpreter whose environment sets none of
    the thread variables but ``preset``; return its last stdout line as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    path = [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env.update(preset, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_sets_one_blas_thread():
    state = _run(_STATE_PROBE, _THREAD_VARIABLES)
    assert state["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                            "OMP_NUM_THREADS": None}
    if sys.platform.startswith("linux"):
        # no OpenBLAS pool worker beside the main thread, neither numpy's nor scipy's
        assert state["threads"] == 1


@pytest.mark.parametrize(
    "preset",
    [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}],
    ids=["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS"],
)
def test_preset_thread_variable_wins(preset):
    state = _run(_STATE_PROBE, _THREAD_VARIABLES, **preset)
    assert state["env"] == {k: preset.get(k) for k in _THREAD_VARIABLES}
    if sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) > 1:
        # OpenBLAS starts no more threads than the process has CPUs
        assert state["threads"] > 1


def test_import_freezes_its_objects():
    assert _run(_STATE_PROBE)["frozen"] > 0


def test_import_loads_no_network_modules():
    # xml.sax.saxutils would pull in urllib.request, http.client and ssl
    assert _run(_STATE_PROBE)["modules"] == []


def test_pipeline_bytes_do_not_depend_on_thread_count(county, tmp_path):
    out = str(tmp_path / "out")
    args = ["pipeline", "--config", county["config"], "--output-dir", out]

    def files():
        contents = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                contents[name] = fh.read()
        return contents

    # the default run is the one-thread run that the import sets up
    assert _run(_RUN_PROBE, args) == {"code": 0, "openblas": "1"}
    one_thread = files()
    assert _run(_RUN_PROBE, args, OPENBLAS_NUM_THREADS="2") == {"code": 0, "openblas": "2"}
    two_threads = files()
    assert "report.json" in one_thread
    assert two_threads == one_thread
