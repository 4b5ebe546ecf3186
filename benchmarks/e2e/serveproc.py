"""``python -m repro.serve`` as a subprocess, and the one-connection client."""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")

#: The server must announce its port within this long (it recovers first).
START_TIMEOUT_S = 60.0


class Server:
    """One server process and one keep-alive connection to it."""

    def __init__(self, src_dir: str, extra_args: List[str]):
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve", "--port", "0",
             "--workers", "2", *extra_args],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        self.port = self._await_port()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))
        self.stop(kill=True)
        raise RuntimeError("repro.serve did not announce a port")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, Dict[str, Any], int]:
        """``(status, decoded JSON body, body bytes)`` of one round trip."""
        self.conn.request(method, path, body)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, json.loads(data), len(data)

    def stop(self, kill: bool = False) -> None:
        """SIGKILL (a crash) or SIGTERM (a drain); either way, wait."""
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            if kill:
                self.proc.kill()
            else:
                self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def rows_of(payload: Dict[str, Any]) -> Dict[tuple, Any]:
    """A relation response as ``{value tuple: annotation}``."""
    return {tuple(r["values"]): r["annotation"] for r in payload["rows"]}
