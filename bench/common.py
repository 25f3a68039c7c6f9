"""Helpers shared by the benchmark's runner, workloads and tools."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: span files, temp files.  Listed
#: in the root .gitignore.
WORK = os.path.join(ROOT, ".bench")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
#: Seeds whose simulated outputs are pinned in ``expected.json``: the
#: development seed and the held-out seed.
PINNED_SEEDS = (1, 2)

#: What operations, set-ups and spans are timed with: CPU seconds of
#: this (single-threaded) process.  On a shared host, time another
#: tenant or the hypervisor takes from the benchmark shows in wall time
#: but not here (the kernel subtracts steal time), and every operation
#: measured runs in this process without I/O, so on an idle host the two
#: clocks read the same.
cpu_now = time.process_time
#: What bounds a measured phase: ``--seconds`` is wall time.
wall_now = time.monotonic


def hermetic_env() -> dict:
    """This process's environment with every ``REPRO_*`` knob removed.

    An ambient ``REPRO_TRACE_CACHE`` would silently skip functional
    execution, and ``REPRO_JOBS``/``REPRO_STAGE_JOBS`` would change what
    is measured, so neither the benchmark nor anything it starts sees
    them.  Temporary files go under the checkout's ``.bench`` directory.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env["PYTHONPATH"] = SRC
    return env


def make_hermetic() -> None:
    """Apply :func:`hermetic_env` to this process and import ``src``."""
    env = hermetic_env()
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(env)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    import tempfile
    tempfile.tempdir = env["TMPDIR"]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def digest(row) -> str:
    """sha256 of a JSON-able result row, as 16 hex digits."""
    blob = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_expected() -> dict:
    try:
        with open(EXPECTED) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_metadata() -> dict:
    """Facts about the host a result was measured on."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    rev = None
    try:
        # Never search above the checkout for a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "host_cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_rev": rev,
        "loadavg_1m": os.getloadavg()[0],
    }
