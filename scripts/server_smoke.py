#!/usr/bin/env python3
"""End-to-end smoke test for `stps_cli serve`.

Launches the server on an ephemeral port with an empty database, drives
it with concurrent socket clients (inserts, publish, joins, top-k,
probes), checks every response, then shuts it down gracefully and
verifies a clean exit.

Usage: scripts/server_smoke.py path/to/stps_cli
"""

import socket
import subprocess
import sys
import threading

CLIENTS = 8
TIMEOUT_S = 30


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self.buf = b""

    def close(self):
        self.sock.close()

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise RuntimeError("server closed connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def request(self, line, has_rows=False):
        """Sends one request; returns [header] plus, for query commands
        (has_rows), the "<n> <epoch>" header's n result rows. INSERT and
        DELETE answer "OK <live> <epoch>" — same shape, no rows — so the
        caller must say which protocol it expects."""
        self.sock.sendall((line + "\n").encode())
        header = self.read_line()
        lines = [header]
        parts = header.split()
        if has_rows and len(parts) == 3 and parts[0] == "OK" and parts[1].isdigit():
            for _ in range(int(parts[1])):
                lines.append(self.read_line())
        return lines


def expect(cond, message):
    if not cond:
        raise RuntimeError("smoke check failed: " + message)


def client_workload(port, client_id, errors):
    try:
        c = LineClient(port)
        expect(c.request("PING")[0] == "OK pong", "PING")
        # Everyone inserts a user in the shared hotspot plus a private one.
        user = f"smoke{client_id}"
        r = c.request(f"INSERT {user} 0.50 0.50 coffee,park,smoke")[0]
        expect(r.startswith("OK "), f"INSERT shared: {r}")
        r = c.request(f"INSERT {user} 0.9{client_id} 0.1 solo{client_id}")[0]
        expect(r.startswith("OK "), f"INSERT solo: {r}")
        # Queries are valid on whatever epoch is current (including 0).
        rows = c.request("JOIN 0.05 0.3 0.3", has_rows=True)
        expect(rows[0].startswith("OK "), f"JOIN: {rows[0]}")
        rows = c.request("TOPK 0.05 0.3 5 THREADS 2", has_rows=True)
        expect(rows[0].startswith("OK "), f"TOPK: {rows[0]}")
        c.request("BOGUS")[0].startswith("ERR") or errors.append("BOGUS accepted")
        expect(c.request("QUIT")[0] == "OK bye", "QUIT")
        c.close()
    except Exception as exc:  # noqa: BLE001 - report into the main thread
        errors.append(f"client {client_id}: {exc}")


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    cli = sys.argv[1]
    proc = subprocess.Popen(
        [cli, "serve", "-", "0", "--workers", "4", "--queue", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        expect(banner.startswith("LISTENING "), f"banner: {banner!r}")
        port = int(banner.split()[1])

        # Phase 1: concurrent clients inserting and querying.
        errors = []
        threads = [
            threading.Thread(target=client_workload, args=(port, i, errors))
            for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT_S)
        expect(not errors, "; ".join(errors))

        # Phase 2: publish and verify the inserted data is queryable.
        c = LineClient(port)
        epoch = c.request("PUBLISH")[0]
        expect(epoch.startswith("OK "), f"PUBLISH: {epoch}")
        join = c.request("JOIN 0.05 0.3 0.3", has_rows=True)
        # All CLIENTS users share an identical hotspot object: every pair
        # matches, so the join returns at least C(CLIENTS, 2) pairs.
        n_pairs = int(join[0].split()[1])
        expect(
            n_pairs >= CLIENTS * (CLIENTS - 1) // 2,
            f"expected >= {CLIENTS * (CLIENTS - 1) // 2} pairs, got {n_pairs}",
        )
        # A probe answers exactly the user's rows of the join on the same
        # epoch, best first.
        probe = c.request("PROBE smoke0 0.05 0.3 0.3", has_rows=True)
        expect(probe[0].split()[2:] == join[0].split()[2:],
               f"PROBE epoch: {probe[0]} vs JOIN {join[0]}")
        expected = sorted(r for r in join[1:] if "smoke0" in r.split()[:2])
        expect(len(expected) >= CLIENTS - 1, f"smoke0 join rows: {expected}")
        expect(sorted(probe[1:]) == expected,
               f"PROBE rows {probe[1:]} != smoke0 join rows {expected}")
        scores = [float(r.split()[2]) for r in probe[1:]]
        expect(scores == sorted(scores, reverse=True),
               f"PROBE rows not best first: {probe[1:]}")
        stats = c.request("STATS")[0]
        expect("publishes=" in stats, f"STATS: {stats}")

        # Phase 3: graceful shutdown.
        expect(c.request("SHUTDOWN")[0] == "OK shutting down", "SHUTDOWN")
        c.close()
        code = proc.wait(timeout=TIMEOUT_S)
        expect(code == 0, f"server exit code {code}")
    except Exception as exc:  # noqa: BLE001
        proc.kill()
        proc.wait()
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print(f"server smoke passed: {CLIENTS} concurrent clients, "
          "publish visibility, graceful shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
