"""Run records: summary statistics, the environment stamp, the history log."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
#: Append-only log of every run (one JSON object per line).
HISTORY = BENCH_DIR / "history.jsonl"


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git (the
    benchmark may run in an export that is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def bench_digest() -> str:
    """Hash of the benchmark's own sources: records compare only when
    they were made by the same benchmark code."""
    digest = hashlib.sha256()
    for path in sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> Dict[str, object]:
    """Python, numpy, CPU model, usable cores and commit of this run."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": nproc,
        "commit": _git_commit(root),
        "bench": bench_digest(),
    }


def append_history(record: Dict[str, object]) -> None:
    """Append one run record to :data:`HISTORY`; earlier records are
    never rewritten."""
    record = dict(record, unix_time=round(time.time(), 3))
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


