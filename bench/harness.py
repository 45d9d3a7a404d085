"""Processes and HTTP clients the benchmark drives.

`flagless serve` and `flagless audit` always run as child processes of the
one load-generator process, from the checkout's own `src/`.  With a trace
file they start through `traced.py`, which records spans at each layer
boundary; without one they run the CLI directly.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "traced.py"

# Header that tags a request so the server's spans can be matched to the
# client's timing; the server ignores unknown headers.
REQUEST_ID_HEADER = "X-Bench-Id"
TIMEOUT_S = 60


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def flagless_argv(args: list[str], trace_out: Path | None) -> list[str]:
    """Interpreter command line for `flagless <args>`, traced or not.  `-u`
    because `serve` prints its bound port without flushing."""
    if trace_out is None:
        return [sys.executable, "-u", "-m", "flagless.cli", *args]
    return [sys.executable, "-u", str(LAUNCHER), str(trace_out), *args]


class Server:
    """One `flagless serve` child on an ephemeral port.

    `ready_s` is the time from spawn to the first 200 answer.  Stop it with
    `stop()`, which sends SIGINT: that is the only path on which serve
    writes its ledger back.  Once ended, `exit_cpu_s` holds the CPU time it
    used over its whole life.
    """

    def __init__(self, ledger_path: Path, stderr_path: Path, trace_out: Path | None = None):
        self.exit_cpu_s = 0.0
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                flagless_argv(
                    ["serve", "--ledger", str(ledger_path), "--listen", "127.0.0.1:0"],
                    trace_out,
                ),
                stdout=subprocess.PIPE,
                stderr=err,
                env=child_env(),
                cwd=ROOT,
            )
        try:
            line = self.proc.stdout.readline().decode("ascii", "replace")
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"serve did not start: {line!r}, see {stderr_path}")
            self.port = int(line.rsplit(":", 1)[1])
            status, _, _ = fresh(self.port, "GET", "/challenges")
            if status != 200:
                raise RuntimeError(f"first GET /challenges answered {status}")
            self.ready_s = time.perf_counter() - start
        except BaseException:
            self.kill()
            raise

    def peak_rss_mb(self) -> float:
        """VmHWM of the live child, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU time of the live child so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def _reap(self) -> int:
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_cpu_s = usage.ru_utime + usage.ru_stime
        self.proc.stdout.close()
        return self.proc.returncode

    def stop(self) -> int:
        """SIGINT, then wait for the exit code."""
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + TIMEOUT_S
        while os.waitid(os.P_PID, self.proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            if time.monotonic() > deadline:
                self.kill()
                raise TimeoutError("serve did not stop within its timeout after SIGINT")
            time.sleep(0.01)
        return self._reap()

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self._reap()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


def run_cli(args: list[str], stdout_path: Path, stderr_path: Path,
            trace_out: Path | None = None) -> int:
    """Run `flagless <args>` to completion and return its exit code."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        return subprocess.run(
            flagless_argv(args, trace_out), stdout=out, stderr=err, env=child_env(), cwd=ROOT
        ).returncode


def _exchange(conn: http.client.HTTPConnection, method: str, path: str,
              body: bytes | None, headers: dict[str, str]) -> tuple[int, bytes, float]:
    start = time.perf_counter()
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    data = resp.read()
    return resp.status, data, time.perf_counter() - start


def fresh(port: int, method: str, path: str, body: bytes | None = None,
          req_id: str | None = None) -> tuple[int, bytes, float]:
    """One request on a new connection closed after the answer, as urllib
    sends it: (status, body, seconds including the connect)."""
    headers = {"Connection": "close", "Content-Type": "application/json"}
    if req_id is not None:
        headers[REQUEST_ID_HEADER] = req_id
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        return _exchange(conn, method, path, body, headers)
    finally:
        conn.close()


class KeepAlive:
    """One persistent HTTP/1.1 connection for GETs."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)

    def get(self, path: str, req_id: str) -> tuple[int, bytes, float]:
        return _exchange(self.conn, "GET", path, None, {REQUEST_ID_HEADER: req_id})

    def close(self) -> None:
        self.conn.close()
