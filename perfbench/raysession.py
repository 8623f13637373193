"""A local Ray session sized to this machine's CPUs, owned by the benchmark.

Workers import ``engine`` from the checkout whatever the caller's working
directory: the checkout root is put on ``PYTHONPATH`` before ``ray.init``
starts the local cluster, and every Ray process inherits it. Ray's session
directory lives in the benchmark's work directory. ``stop`` shuts the
session down and waits until every process it started has exited.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import time

# Ray's internal Ray Data actors; the benchmark reports the task workers
_RAY_DATA_ACTORS = (b"ray::_StatsActor", b"ray::AutoscalingRequester")
# a Unix socket path is at most 107 bytes; Ray appends up to ~65 to its
# temp dir
_MAX_TEMP_DIR = 40


def num_cpus() -> int:
    """The CPU count ``nproc`` reports, which honours OMP_NUM_THREADS."""
    out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    return int(out.stdout)


def pin_to_cpus() -> None:
    """Keep this process, and every process it starts afterwards, on the
    first ``num_cpus()`` CPUs it may run on. Where ``nproc`` reports fewer
    CPUs than the machine has (OMP_NUM_THREADS), Ray's own processes would
    otherwise spread over all of them; on a virtual machine whose host
    takes back the CPU time it gives beyond that share, each run then
    measures how much it took back."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[:num_cpus()])


def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: the fields after it start at ')'
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z":
            out[int(name)] = int(fields[1])
    return out


def descendants(pid: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for child, parent in _ppid_map().items():
        children.setdefault(parent, []).append(child)
    out, todo = set(), [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read()
    except OSError:
        return b""


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RaySession:
    def __init__(self, root: str, temp_dir: str):
        self.root = root
        # too deep for Ray's socket paths: fall back to Ray's default
        self.temp_dir = temp_dir if len(temp_dir) <= _MAX_TEMP_DIR else None

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p and p != self.root]
        os.environ["PYTHONPATH"] = os.pathsep.join([self.root] + paths)
        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        kwargs = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(address="local", num_cpus=num_cpus(),
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False,
                 object_store_memory=512 * 1024 * 1024, **kwargs)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def worker_peak_rss_mib(self) -> float:
        """Largest VmHWM of the session's task worker processes."""
        peak = 0
        for pid in descendants(os.getpid()):
            cmd = _cmdline(pid)
            if cmd.startswith(b"ray::") and not cmd.startswith(_RAY_DATA_ACTORS):
                peak = max(peak, _vm_hwm_kib(pid))
        return peak / 1024

    def stop(self, timeout_s: float = 30.0) -> None:
        import ray

        started = descendants(os.getpid())
        ray.shutdown()
        deadline = time.monotonic() + timeout_s
        alive = started
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = started & set(_ppid_map())
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while started & set(_ppid_map()) and time.monotonic() < deadline + 5:
            time.sleep(0.05)
