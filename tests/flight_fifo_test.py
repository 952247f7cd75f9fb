#!/usr/bin/env python3
"""tools/telemetry_schema.py must hold each port of a flight dump to FIFO.

Records a small armed tfcsim run, checks that its run directory validates,
exports it with `tfcsim --export-trace` and checks that it still validates:
one trace.txt line per event, monotone Perfetto timestamps and balanced
flow spans. Records the run again through a 1,024-event ring, which wraps:
that dump must hold exactly the last 1,024 records of the first, and its
directory and export must validate too. Then writes a copy of the first
flight.tfct with the first enqueue ('+') record removed and both header
counts lowered to match. The copy is well formed in every other respect,
so it must fail on exactly the FIFO check: its port's first transmit ('-')
no longer carries the packet at the head of its queue.

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


RUN = ["--workload=incast", "--topology=testbed", "--senders=4", "--block_kb=64",
       "--rounds=2"]


def records_offset(schema, data):
    """Where the records of `data` (a flight.tfct) start."""
    off = schema.TFCT_HEADER.size
    for _ in range(schema.TFCT_HEADER.unpack_from(data)[3]):
        off += 4 + int.from_bytes(data[off:off + 4], "little")
    return off


def without_first_enqueue(schema, data):
    """`data` (a flight.tfct) with its first '+' record cut out."""
    header = schema.TFCT_HEADER
    magic, version, record_bytes, node_count, recorded, events = header.unpack_from(data)
    if recorded != events:
        raise SystemExit(f"the ring wrapped: {events} of {recorded} events kept")
    off = records_offset(schema, data)
    for i in range(events):
        at = off + i * record_bytes
        if schema.TFCT_RECORD.unpack_from(data, at)[8] == schema.TFCT_ENQUEUE:
            cut = data[:at] + data[at + record_bytes:]
            return header.pack(magic, version, record_bytes, node_count,
                               recorded - 1, events - 1) + cut[header.size:]
    raise SystemExit("the dump holds no enqueue record")


def record(tfcsim, schema_path, run, ring):
    """Records RUN through a `ring`-event ring into `run` and exports it.
    True when the directory validates before and after the export."""
    subprocess.run([tfcsim, *RUN, f"--trace-ring={ring}", f"--telemetry-dir={run}"],
                   check=True, stdout=subprocess.DEVNULL)
    good = validate(schema_path, run)
    if good.returncode != 0:
        print(good.stdout + good.stderr)
        print(f"FAIL: the {ring}-event ring's run directory does not validate")
        return False
    subprocess.run([tfcsim, f"--export-trace={run}"], check=True,
                   stdout=subprocess.DEVNULL)
    exported = validate(schema_path, run)
    written = all((run / f).exists() for f in ("trace.txt", "trace.perfetto.json"))
    if exported.returncode != 0 or not written:
        print(exported.stdout + exported.stderr)
        print(f"FAIL: the {ring}-event ring's exported directory does not validate")
        return False
    return True


def main(argv):
    tfcsim, schema_path, work = argv[1], Path(argv[2]), Path(argv[3])
    schema = load_schema(schema_path)
    shutil.rmtree(work, ignore_errors=True)
    run, wrapped = work / "run", work / "wrapped"
    if not record(tfcsim, schema_path, run, 65536) or \
            not record(tfcsim, schema_path, wrapped, 1024):
        return 1

    # The wrapped ring's dump joins its two pieces into the newest 1,024
    # records of the same run.
    full = (run / "flight.tfct").read_bytes()
    tail = (wrapped / "flight.tfct").read_bytes()
    _, _, record_bytes, _, recorded, events = schema.TFCT_HEADER.unpack_from(tail)
    kept = tail[records_offset(schema, tail):]
    if (recorded, events) != (6245, 1024) or \
            kept != full[len(full) - events * record_bytes:]:
        print(f"FAIL: the 1024-event ring kept {events} of {recorded} events, "
              "not the last 1024 records of the run's 6245")
        return 1

    cut = work / "cut"
    cut.mkdir()
    (cut / "flight.tfct").write_bytes(without_first_enqueue(schema, full))
    bad = validate(schema_path, "--flight", cut)
    if bad.returncode == 0 or "transmit at node" not in bad.stdout:
        print(bad.stdout + bad.stderr)
        print("FAIL: a dump missing one enqueue passed the FIFO check")
        return 1
    print(bad.stdout.strip())
    print("OK: the intact and the wrapped dump and their exports validate, the "
          "wrapped one keeps the newest records, and the cut one fails the FIFO check")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
