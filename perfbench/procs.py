"""Process and file helpers shared by the workloads."""

from __future__ import annotations

import os
import signal
import subprocess
import time
from pathlib import Path
from typing import List


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: Path, pattern: str = "*") -> int:
    """Bytes in the regular files under ``path`` matching ``pattern``."""
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


def live_members(pgid: int) -> List[int]:
    """Pids in process group ``pgid`` that have not exited (zombies,
    already dead and waiting to be reaped, do not count)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text(encoding="ascii", errors="replace")
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = text[text.rfind(")") + 2 :].split()
        if len(fields) > 2 and int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def stop_all(children: List[subprocess.Popen], grace_s: float = 10.0) -> None:
    """Kill every started process group and wait until each is gone.

    Each child was started in a session of its own, so its group holds
    it and everything it spawned (cluster workers, the multiprocessing
    resource tracker).  Groups still alive after ``grace_s`` are killed.
    """
    for proc in children:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
    deadline = time.monotonic() + grace_s
    for proc in children:
        while live_members(proc.pid):
            if time.monotonic() > deadline:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                deadline = time.monotonic() + grace_s
            time.sleep(0.01)
