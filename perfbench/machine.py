"""Environment record written into every results file."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str | None:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    """Level -> size for the data/unified caches of cpu0, e.g. {"L2": "4096K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else []:
        kind = _read(str(idx / "type")).strip()
        if kind == "Instruction":
            continue
        out[f"L{_read(str(idx / 'level')).strip()}"] = _read(str(idx / "size")).strip()
    return out


def _cache_bytes(size: str) -> int | None:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if not size:
        return None
    if size[-1] in units:
        return int(size[:-1]) * units[size[-1]]
    return int(size)


def _mem_total_bytes() -> int | None:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest(root: Path) -> str:
    """sha256 over src/**/*.py, which identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy

    caches = _caches()
    llc = max(caches, default=None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "llc": llc,
        "llc_bytes": _cache_bytes(caches[llc]) if llc else None,
        "mem_total_bytes": _mem_total_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
