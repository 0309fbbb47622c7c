#!/usr/bin/env python3
"""Crash-recovery smoke test for fdm_serve: ingest, kill -9, restart.

Usage:

    python3 tools/crash_recovery_smoke.py --server build/fdm_serve \
        [--points 200000] [--seed 7]

Starts `fdm_serve` on a fresh root, creates one SFDM-2 session (dim 2,
quotas 2,2), and sends the points over stdin as 1000-point OBSERVEB batches
(each batch ends in a WAL fsync, so every acknowledged point is in the log).
It records the SOLVE reply, kills the server with SIGKILL, restarts it on the
same root and asks SOLVE and STATS again. It exits 1 unless:

  * SOLVE answers byte for byte as before the kill;
  * STATS' `replayed=` equals the points past the newest snapshot
    (`observed - snapshot_seq`), i.e. recovery replayed only the WAL tail;
  * that count stays under the checkpoint rule's bound,
    4 * max(newest snapshot payload, 1 MiB) / (36 + 8 * dim) records.
"""

import argparse
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

DIM = 2
BATCH = 1000
SPEC = "algo=sfdm2 dim=2 quotas=2,2 dmin=0.01 dmax=150"
SNAPSHOT_FRAMING_BYTES = 28  # magic, version, size, checksum


class Server:
    """One fdm_serve process driven line by line over stdin/stdout."""

    def __init__(self, binary, root):
        self.proc = subprocess.Popen(
            [binary, f"--root={root}"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        ready = self.proc.stdout.readline()
        if not ready.startswith("READY"):
            sys.exit(f"crash smoke: server did not start: {ready!r}")

    def ask(self, text):
        """Sends one request (which may span lines) and returns its reply."""
        self.proc.stdin.write(text)
        self.proc.stdin.flush()
        return self.proc.stdout.readline().rstrip("\n")


def expect_ok(reply, what):
    if not reply.startswith("OK"):
        sys.exit(f"crash smoke: {what} failed: {reply}")
    return reply


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--server", required=True)
    parser.add_argument("--points", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    root = tempfile.mkdtemp(prefix="fdm_crash_smoke_")
    try:
        server = Server(args.server, root)
        expect_ok(server.ask(f"CREATE s {SPEC}\n"), "CREATE")
        for begin in range(0, args.points, BATCH):
            count = min(BATCH, args.points - begin)
            lines = [f"OBSERVEB s {count}\n"]
            for i in range(begin, begin + count):
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                lines.append(f"{i} {i % 2} {x:.6f} {y:.6f}\n")
            expect_ok(server.ask("".join(lines)), "OBSERVEB")
        before = expect_ok(server.ask("SOLVE s\n"), "SOLVE before the kill")
        server.proc.kill()
        server.proc.wait()

        server = Server(args.server, root)
        after = server.ask("SOLVE s\n")
        stats = expect_ok(server.ask("STATS s\n"), "STATS")
        fields = {}
        for key in ("observed", "snapshot_seq", "replayed"):
            match = re.search(rf" {key}=(\d+)", stats)
            if match is None:
                sys.exit(f"crash smoke: STATS lacks {key}: {stats}")
            fields[key] = int(match.group(1))
        # The snapshot recovery started from (QUIT writes a newer one).
        payload = 0
        if fields["snapshot_seq"] > 0:
            snapshot = os.path.join(
                root, "s", "snap", f"snap-{fields['snapshot_seq']:020d}.snap")
            payload = os.path.getsize(snapshot) - SNAPSHOT_FRAMING_BYTES
        server.ask("QUIT\n")
        server.proc.wait()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    bound = 4 * max(payload, 1 << 20) // (36 + 8 * DIM)
    tail = fields["observed"] - fields["snapshot_seq"]
    print(f"crash smoke: observed={fields['observed']} "
          f"snapshot_seq={fields['snapshot_seq']} "
          f"replayed={fields['replayed']} bound={bound}")
    failures = []
    if after != before:
        failures.append(f"SOLVE changed across the crash:\n  {before}\n  {after}")
    if fields["observed"] != args.points:
        failures.append(f"recovered {fields['observed']} of {args.points} points")
    if fields["replayed"] != tail:
        failures.append(f"replayed {fields['replayed']}, tail is {tail}")
    if fields["replayed"] > bound:
        failures.append(f"replayed {fields['replayed']} > bound {bound}")
    for failure in failures:
        print(f"crash smoke: FAIL: {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
