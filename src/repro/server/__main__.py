"""``python -m repro.server`` — serve a database over TCP.

Starts an empty database (or a generated TPC-H instance with
``--tpch``) and listens until interrupted; Ctrl-C drains in-flight
queries before exiting.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.api import Database
from repro.server.server import QueryServer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a repro database over newline-delimited "
        "JSON on TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7719)
    parser.add_argument(
        "--tpch",
        type=float,
        default=None,
        metavar="SF",
        help="load a TPC-H instance at this scale factor first",
    )
    parser.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        help="per-query deadline in seconds (typed 'timeout' response)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=8,
        help="session pool size (concurrent queries)",
    )
    args = parser.parse_args(argv)

    db = Database(max_workers=args.max_workers)
    if args.tpch is not None:
        from repro.bench.tpch import generate_tpch

        print(f"loading TPC-H sf={args.tpch} ...", flush=True)
        generate_tpch(db.catalog, scale_factor=args.tpch)

    server = QueryServer(
        db,
        host=args.host,
        port=args.port,
        query_timeout=args.query_timeout,
    )

    async def run() -> None:
        host, port = await server.start()
        print(f"serving on {host}:{port} (Ctrl-C to drain and exit)",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("drained; bye")
    finally:
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
