"""Run one child process and account for it from its own rusage.

stdout and stderr go straight to files, so a chatty child can never fill a
pipe and block while the parent waits for it to exit. Peak RSS and CPU time
come from `os.wait4` on that child alone; RUSAGE_CHILDREN would carry the
maximum of an earlier, larger child into every later one.

Children are started by a `Spawner`, a small helper process running this
file. Linux carries the spawning process's resident size into a child's
`ru_maxrss` across fork and exec, so a child started straight from the
benchmark (which has loaded predictions and numpy) would report at least
the benchmark's own size; started from the helper, it reports at least
only the helper's ~10 MB.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class ChildResult:
    argv: Sequence[str]
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float  # decimal megabytes
    stdout_path: str
    stderr_path: str

    @classmethod
    def from_dict(cls, doc: dict) -> "ChildResult":
        return cls(**{**doc, "argv": tuple(doc["argv"])})

    def stdout(self) -> str:
        with open(self.stdout_path, encoding="utf-8") as fh:
            return fh.read()

    def stderr_lines(self) -> int:
        with open(self.stderr_path, "rb") as fh:
            return sum(1 for _ in fh)


def child_env() -> Dict[str, str]:
    """The environment of every child: the checkout's `src` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(
    argv: Sequence[str], log_prefix: str, timeout_s: float = CHILD_TIMEOUT_S
) -> ChildResult:
    """Run argv to completion with output in `<log_prefix>.out` / `.err`.

    A child still running after timeout_s is killed and reaped, and its
    result carries returncode -9.
    """
    stdout_path, stderr_path = f"{log_prefix}.out", f"{log_prefix}.err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=child_env()
        )
        # The watchdog may kill only while the child is unreaped, so its pid
        # cannot have been reused: wait for the exit without reaping first.
        lock = threading.Lock()
        exited = False

        def watchdog():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, watchdog)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                exited = True
        finally:
            timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    # wait4 reaped the child; tell Popen so it never waits on it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        argv=tuple(argv),
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        stdout_path=stdout_path,
        stderr_path=stderr_path,
    )


def cli_argv(stage: str, *args: str) -> list:
    """`python -m trajpredict <stage> ...` with the benchmark's interpreter."""
    return [sys.executable, "-m", "trajpredict", stage, *args]


class Spawner:
    """Starts children from a small helper process; see the module docstring.

    Use as a context manager; `run_child` then behaves like the module-level
    function of the same name.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run_child(
        self, argv: Sequence[str], log_prefix: str, timeout_s: float = CHILD_TIMEOUT_S
    ) -> ChildResult:
        request = {"argv": list(argv), "log_prefix": log_prefix, "timeout_s": timeout_s}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        return ChildResult.from_dict(json.loads(reply))

    def close(self):
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)
        self._proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc):
        self.close()


def _serve():
    """The helper's loop: one JSON request per line in, one result per line out."""
    for line in sys.stdin:
        request = json.loads(line)
        result = run_child(request["argv"], request["log_prefix"], request["timeout_s"])
        sys.stdout.write(json.dumps(result.__dict__) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
