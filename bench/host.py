"""Thread budget and provenance of a benchmark run (standard library only)."""

from __future__ import annotations

import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Compute threads a workload may use: the search's kernel pool, and the
#: number of busy threads in the serve workload.
THREADS = max(1, min(2, os.cpu_count() or 1))


def _git(*args: str) -> str | None:
    """Run git on this checkout only; never on a repository above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, env=env, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_commit() -> str | None:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return None
    return _git("rev-parse", "HEAD")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(seeds: list[int]) -> dict:
    commit = git_commit()
    return {
        "commit": commit,
        "dirty": (
            bool(_git("status", "--porcelain", "--untracked-files=no"))
            if commit is not None
            else None
        ),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "seeds": seeds,
        "threads": THREADS,
    }
