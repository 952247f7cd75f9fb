#!/usr/bin/env python3
"""tools/telemetry_schema.py must hold each port of a flight dump to FIFO.

Records a small armed tfcsim run, checks that its run directory validates,
exports it with `tfcsim --export-trace` and checks that it still validates:
one trace.txt line per event, monotone Perfetto timestamps and balanced
flow spans. Then writes a copy of its flight.tfct with the first enqueue
('+') record removed and both header counts lowered to match. The copy is
well formed in every other respect, so it must fail on exactly the FIFO
check: its port's first transmit ('-') no longer carries the packet at the
head of its queue.

    python3 tests/flight_fifo_test.py TFCSIM tools/telemetry_schema.py WORKDIR
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path


def load_schema(path):
    spec = importlib.util.spec_from_file_location("telemetry_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def validate(schema_path, *args):
    return subprocess.run([sys.executable, str(schema_path), *map(str, args)],
                          capture_output=True, text=True)


def without_first_enqueue(schema, data):
    """`data` (a flight.tfct) with its first '+' record cut out."""
    header = schema.TFCT_HEADER
    magic, version, record_bytes, node_count, recorded, events = header.unpack_from(data)
    if recorded != events:
        raise SystemExit(f"the ring wrapped: {events} of {recorded} events kept")
    off = header.size
    for _ in range(node_count):
        off += 4 + int.from_bytes(data[off:off + 4], "little")
    for i in range(events):
        at = off + i * record_bytes
        if schema.TFCT_RECORD.unpack_from(data, at)[8] == schema.TFCT_ENQUEUE:
            cut = data[:at] + data[at + record_bytes:]
            return header.pack(magic, version, record_bytes, node_count,
                               recorded - 1, events - 1) + cut[header.size:]
    raise SystemExit("the dump holds no enqueue record")


def main(argv):
    tfcsim, schema_path, work = argv[1], Path(argv[2]), Path(argv[3])
    schema = load_schema(schema_path)
    shutil.rmtree(work, ignore_errors=True)
    run = work / "run"
    subprocess.run([tfcsim, "--workload=incast", "--topology=testbed", "--senders=4",
                    "--block_kb=64", "--rounds=2", "--trace-ring=65536",
                    f"--telemetry-dir={run}"], check=True, stdout=subprocess.DEVNULL)
    good = validate(schema_path, run)
    if good.returncode != 0:
        print(good.stdout + good.stderr)
        print("FAIL: the armed run's directory does not validate")
        return 1
    subprocess.run([tfcsim, f"--export-trace={run}"], check=True,
                   stdout=subprocess.DEVNULL)
    exported = validate(schema_path, run)
    written = all((run / f).exists() for f in ("trace.txt", "trace.perfetto.json"))
    if exported.returncode != 0 or not written:
        print(exported.stdout + exported.stderr)
        print("FAIL: the exported run's directory does not validate")
        return 1

    cut = work / "cut"
    cut.mkdir()
    (cut / "flight.tfct").write_bytes(
        without_first_enqueue(schema, (run / "flight.tfct").read_bytes()))
    bad = validate(schema_path, "--flight", cut)
    if bad.returncode == 0 or "transmit at node" not in bad.stdout:
        print(bad.stdout + bad.stderr)
        print("FAIL: a dump missing one enqueue passed the FIFO check")
        return 1
    print(bad.stdout.strip())
    print("OK: the intact dump and its export validate and the cut one fails "
          "the FIFO check")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
