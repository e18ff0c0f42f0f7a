"""A small TCP endpoint standing in for the remote collector.

Each connection carries a stream of relay frames.  Well-formed frames are
stored and acknowledged.  A frame with a bad magic gets a negative
acknowledgement and its declared payload is read and thrown away, so nothing
inside a rejected frame is ever taken for a frame of its own.  A length over
`MAX_PAYLOAD` gets a negative acknowledgement and the connection is closed,
because no frame boundary is left to trust.
"""

from __future__ import annotations

import socketserver
import threading
from pathlib import Path

from .relay import (
    ACK_MALFORMED,
    ACK_OK,
    FRAME_MAGIC,
    RelayPacket,
    FRAME_HEADER,
    encode_ack,
)

MAX_PAYLOAD = 1 << 20


class BindError(OSError):
    pass


def _read_exact(rfile, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = rfile.read(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


class MockCloud:
    """Threaded collector; use as a context manager or via start/stop."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        dump_path: str | Path | None = None,
    ):
        self._host = host
        self._port = port
        self._dump_path = dump_path
        self._server: socketserver.ThreadingTCPServer | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._packets: list[RelayPacket] = []
        self._naks = 0
        self._dump_file = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("already started")
        cloud = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                while True:
                    header = _read_exact(self.rfile, FRAME_HEADER.size)
                    if header is None:
                        return
                    magic, sequence, flags, length = FRAME_HEADER.unpack(header)
                    if magic != FRAME_MAGIC or length > MAX_PAYLOAD:
                        cloud._record_nak()
                        self.wfile.write(encode_ack(0, ACK_MALFORMED))
                        if length > MAX_PAYLOAD or _read_exact(self.rfile, length) is None:
                            return
                        continue
                    payload = _read_exact(self.rfile, length)
                    if payload is None:
                        return
                    cloud._record(RelayPacket(sequence, flags, payload))
                    self.wfile.write(encode_ack(sequence, ACK_OK))

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        try:
            server = Server((self._host, self._port), Handler)
        except OSError as exc:
            raise BindError(f"cannot bind {self._host}:{self._port}: {exc}") from None
        if self._dump_path is not None:
            try:
                self._dump_file = open(self._dump_path, "w", encoding="utf-8")
            except OSError:
                # No serve_forever runs yet, so stop() could never shut it down.
                server.server_close()
                raise
        self._server = server
        self._thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._dump_file is not None:
            self._dump_file.close()
            self._dump_file = None

    def __enter__(self) -> "MockCloud":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- state -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("not started")
        host, port = self._server.server_address[:2]
        return host, port

    def _record(self, packet: RelayPacket) -> None:
        with self._lock:
            self._packets.append(packet)
            if self._dump_file is not None:
                text = packet.payload.decode("utf-8", errors="replace")
                self._dump_file.write(text + "\n")
                self._dump_file.flush()

    def _record_nak(self) -> None:
        with self._lock:
            self._naks += 1

    def received(self) -> list[RelayPacket]:
        with self._lock:
            return list(self._packets)

    @property
    def nak_count(self) -> int:
        with self._lock:
            return self._naks
