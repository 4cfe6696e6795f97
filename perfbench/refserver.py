"""Reference server: the allocation service's per-request work minus placement.

Usage: ``python3 perfbench/refserver.py LOG_PATH``

It answers the same line-delimited JSON requests as ``repro serve --wal``
and does the same kind of work for each one, with nothing from the program:
parse the line, append a length- and crc32-framed JSON record to a log,
flush and fsync it, and send a JSON reply.  ``serve_wal`` alternates its
load between this server and the real one, second by second, and reports
the real server's numbers relative to this one's, so a host that slows
both does not move the result while a change to the program does.  Stops
on SIGINT; prints ``reference service on HOST:PORT`` when ready.
"""

import asyncio
import json
import os
import signal
import sys
import zlib


async def handle(reader, writer, log) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            msg = json.loads(line)
            if msg.get("op") == "ping":
                reply = {"ok": True, "pong": True}
            else:
                record = json.dumps({"k": msg.get("key"), "c": msg.get("client"),
                                     "s": msg.get("seq")}, separators=(",", ":")).encode()
                log.write(len(record).to_bytes(4, "little")
                          + zlib.crc32(record).to_bytes(4, "little") + record)
                log.flush()
                os.fsync(log.fileno())
                reply = {"ok": True, "peer": "reference", "seq": msg.get("seq")}
            writer.write((json.dumps(reply, separators=(",", ":")) + "\n").encode())
            await writer.drain()
    finally:
        writer.close()


async def serve(path: str) -> None:
    with open(path, "ab") as log:
        server = await asyncio.start_server(
            lambda r, w: handle(r, w, log), "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"reference service on {host}:{port}", flush=True)
        async with server:
            await server.serve_forever()


if __name__ == "__main__":
    # A parent without job control may pass SIGINT on as ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        asyncio.run(serve(sys.argv[1]))
    except KeyboardInterrupt:
        pass
