"""A small TCP endpoint standing in for the remote collector.

Each connection carries a stream of relay frames, judged by
`relay.decode_header`; good ones are stored and acknowledged.  A bad magic
gets a negative acknowledgement and its declared payload is read and thrown
away, so nothing inside a rejected frame is ever taken for a frame of its
own.  A length over `relay.MAX_PAYLOAD` gets a negative acknowledgement and
the connection is closed, because no frame boundary is left to trust.
"""

from __future__ import annotations

import socketserver
import threading
from pathlib import Path

from .relay import (
    ACK_MALFORMED,
    ACK_OK,
    FRAME_HEADER,
    HeaderError,
    RelayPacket,
    decode_header,
    encode_ack,
)


class BindError(OSError):
    pass


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
                # The buffered rfile's read(n) returns fewer than n bytes only at EOF.
                while True:
                    header = self.rfile.read(FRAME_HEADER.size)
                    if len(header) < FRAME_HEADER.size:
                        return
                    try:
                        sequence, flags, length = decode_header(header)
                    except HeaderError as exc:
                        cloud._record_nak()
                        self.wfile.write(encode_ack(0, ACK_MALFORMED))
                        skip = exc.resync
                        if skip is None or len(self.rfile.read(skip)) < skip:
                            return
                        continue
                    payload = self.rfile.read(length)
                    if len(payload) < length:
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
