"""Durability check that discards the operating system's help.

Killing a process leaves the page cache intact, so a plain kill-and-recover
proves nothing about what was flushed.  Here the serve-durable stream runs in
a child whose ``os.fsync`` reports each file's inode and length at every call;
the parent ``SIGKILL``s it mid-stream, truncates every WAL and checkpoint file
to the last length it was synced at (never-synced files to nothing), recovers,
and requires ``sg`` to be the oracle's answer for the base plus the
acknowledged batches — or plus the single batch that was in flight.

    python bench/durability.py --child DIR --seed N [--quick]   (the child)
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys

import env
import oracle
import workloads


def parts(directory: str):
    """A ``(checkpoint store, WAL)`` pair over ``directory``, reopening what is there."""
    from repro.relational import DiskCheckpointStore
    from repro.serving import DiskWal

    return DiskCheckpointStore(os.path.join(directory, "ckpt")), DiskWal(os.path.join(directory, "wal.jsonl"))


class FsyncLog:
    """The benchmark's own ``os.fsync``: records, per call, the file's path,
    inode and length, which is what is durable if the machine stops now.

    Each file seen is kept open (a ``dup`` of the descriptor) until
    ``uninstall``, so a deleted file's inode cannot be handed to a new file
    and an inode names one file for as long as the log lives."""

    def __init__(self, sink=None) -> None:
        self.records: list[tuple[str, int, int]] = []
        self._sink = sink
        self._original = None
        self._held: dict[int, int] = {}

    def install(self) -> None:
        self._original = os.fsync

        def fsync(fd):
            self._original(fd)
            status = os.fstat(fd)
            if status.st_ino not in self._held:
                self._held[status.st_ino] = os.dup(fd)
            record = (os.readlink(f"/proc/self/fd/{fd}"), status.st_ino, status.st_size)
            self.records.append(record)
            if self._sink is not None:
                self._sink(record)

        os.fsync = fsync

    def uninstall(self) -> None:
        os.fsync = self._original
        for held in self._held.values():
            os.close(held)
        self._held = {}

    def calls_under(self, part: str) -> int:
        return sum(1 for path, _, _ in self.records if part in path)

    def bytes_under(self, part: str) -> int:
        """Bytes made durable: each fsync counts the file's growth since the
        previous fsync of the same file."""
        seen: dict[int, int] = {}
        total = 0
        for path, inode, size in self.records:
            if part in path:
                total += max(0, size - seen.get(inode, 0))
                seen[inode] = size
        return total


def check(workload, seed: int, quick: bool, tally, directory: str) -> bool:
    from repro.serving import ServingEngine

    stream = workload.quick_stream if quick else workload.stream
    kill_after = max(1, stream.insert_epochs // 4)
    shutil.rmtree(directory, ignore_errors=True)
    command = [sys.executable, os.path.abspath(__file__), "--child", directory, "--seed", str(seed)]
    child = subprocess.Popen(command + (["--quick"] if quick else []), stdout=subprocess.PIPE, text=True)
    synced: dict[int, int] = {}
    acked = 0
    try:
        for line in child.stdout:
            kind, *numbers = line.split()
            if kind == "fsync":
                synced[int(numbers[0])] = int(numbers[1])
            elif kind == "acked":
                acked = int(numbers[0])
                if acked == kill_after:
                    child.send_signal(signal.SIGKILL)
    finally:
        child.kill()
        child.wait()
    tally.check(child.returncode == -signal.SIGKILL and acked >= kill_after,
                f"durability: child was to be killed after {kill_after} acks (exit {child.returncode}, {acked} acks)")

    for folder, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(folder, name)
            status = os.stat(path)
            os.truncate(path, min(status.st_size, synced.get(status.st_ino, 0)))

    inputs = workloads.build(workload, seed, quick)
    pinned = oracle.expected(workload.instance, quick)["stream"]["prefix"]
    engine = ServingEngine.recover(*parts(directory), **workloads.ENGINE)
    try:
        recovered = oracle.digest(inputs.canonical(engine.query("sg").rows))
    finally:
        engine.close()
    return tally.check(recovered in pinned[acked:acked + 2],
                       f"durability: sg recovered from synced bytes is neither {acked} nor {acked + 1} batches past the base")


def child_main(directory: str, seed: int, quick: bool) -> int:
    """Stream the workload's insert epochs, reporting every fsync and ack."""
    env.prepare()
    from repro.serving import ServingEngine

    def say(text: str) -> None:
        os.write(1, (text + "\n").encode())

    workload = workloads.WORKLOADS["serve-durable"]
    stream = workload.quick_stream if quick else workload.stream
    inputs = workloads.build(workload, seed, quick)
    FsyncLog(lambda record: say(f"fsync {record[1]} {record[2]}")).install()
    store, wal = parts(directory)
    engine = ServingEngine(workload.source, inputs.facts, checkpoint_store=store, wal=wal, **workloads.ENGINE)
    for epoch in range(stream.insert_epochs):
        engine.submit(inserts={"edge": inputs.held[epoch * stream.batch:(epoch + 1) * stream.batch]}).result()
        say(f"acked {epoch + 1}")
    engine.close()
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", metavar="DIR", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    arguments = parser.parse_args()
    sys.exit(child_main(arguments.child, arguments.seed, arguments.quick))
