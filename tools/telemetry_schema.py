#!/usr/bin/env python3
"""Validator for telemetry run directories (stdlib only; used by ci.sh).

Usage: telemetry_schema.py RUN_DIR [RUN_DIR ...]
       telemetry_schema.py --flight DIR [DIR ...]
       telemetry_schema.py --sweep SWEEP_DIR [SWEEP_DIR ...]
       telemetry_schema.py --compare RUN_A RUN_B [--ignore NAME ...]

Checks the files the exporter (src/sim/telemetry.cc) writes per run:

  manifest.json   object with schema_version == 3, git_describe,
                  created_unix / created_utc, and a "run" object.
  metrics.tfcb    the recorder's change-only log, spilled verbatim (all
                  little-endian): "TFCB" magic, u32 version (=2),
                  u32 series_count, u32 epoch_count, u64 tick_count,
                  u64 change_count; a name table ({u32 len, bytes} per
                  series, position = series id); epochs ({u64 first_tick,
                  u32 width, width x u32 series id}); ticks ({i64 t_ns,
                  u64 change_end}); change_count x u32 series ids; then
                  change_count x f64 values. Names must be unique, epochs
                  must start at tick 0 and move forward, ticks must not go
                  back in time, their change ranges must tile the changes,
                  every change must belong to a series its tick samples,
                  and every sampled series must have a value by then.
                  check_metrics_tfcb also returns the series names, for
                  scripts that import this module.
  summary.json    exactly three keys: schema_version == 3, a "gauges"
                  object of name -> number (or null), and a "profile"
                  object of site -> {hits, sim_ns, wall_ns}, as
                  docs/observability.md documents.

All three files must exist.

Flight-recorder artifacts (src/sim/flight.cc) are validated when present in
a run directory, or standalone via `--flight DIR`:

  flight.tfct           binary ring dump: "TFCT" magic, u32 version (=1),
                        u32 record_bytes (=40), u32 node_count,
                        u64 recorded_total, u64 event_count, a name table
                        ({u32 len, bytes} per node), then fixed 40-byte
                        little-endian records {i64 time_ns, u64 seq, i32 a,
                        i32 b, i32 c, i32 flow, i16 node, i16 port, u8 type,
                        u8 ptype, u8 flags, u8 weight}. Timestamps must be
                        non-decreasing (the ring preserves record order),
                        types in range, and event_count <= recorded_total.
                        In a dump that did not wrap (event_count ==
                        recorded_total) of a ring armed before the first
                        packet, each port is a FIFO: the k-th transmit
                        ('-') at a (node, port) carries the packet of its
                        k-th enqueue ('+') (flow, seq, payload, window,
                        type, flags, weight) and is stamped no earlier.
  trace.txt             text export (`tfcsim --export-trace`): one line per
                        dumped event, so exactly event_count lines, each
                        led by a time in seconds no smaller than the
                        previous line's.
  trace.perfetto.json   Chrome trace-event export (`tfcsim --export-trace`):
                        a traceEvents array whose non-metadata events have
                        non-decreasing ts, whose "X" slices have dur >= 0,
                        and whose async "b"/"e" span pairs balance per
                        (cat, id).

Sweep directories (`tfcsim --sweep N --telemetry-dir=DIR`) are validated
via `--sweep DIR`:

  sweep.json      object with schema_version == 3, git_describe, a "sweep"
                  config object, and a "runs" list with one row per run:
                  {index, name, status, exit_code, signal, wall_seconds}
                  plus an optional "salvaged" list of the files a failed
                  run left in its run directory.
                  status is one of ok / failed / timeout / skipped-cached;
                  every completed run's directory must itself validate as a
                  full run directory (a degraded sweep may carry failed
                  rows, but never corrupt completed ones).

Two run directories are compared via `--compare A B`: both metrics.tfcb
files are validated and decoded into one change stream per series (the
(t_ns, value) pairs at which the series takes a new value), and both
summary.json files are read. Every series, gauge or profile site that
differs (present on one side only, or with another stream or value) is
printed as `series NAME`, `gauge NAME` or `profile SITE`. `--ignore NAME`
(repeatable; fnmatch patterns) leaves matching names out.

Exit status: 0 when every directory validates (with --compare: when the
two runs do not differ), 1 otherwise.
"""

import collections
import fnmatch
import json
import struct
import sys
from pathlib import Path

SCHEMA_VERSION = 3
TFCB_MAGIC = b"TFCB"
TFCB_VERSION = 2
TFCB_HEADER = struct.Struct("<4sIIIQQ")  # magic, version, series, epochs,
                                         # ticks, changes
TFCB_EPOCH = struct.Struct("<QI")        # first_tick, width
TFCB_TICK = struct.Struct("<qQ")         # t_ns, change_end
TFCB_CHANGE_BYTES = 4 + 8                # u32 series id + f64 value

TFCT_MAGIC = b"TFCT"
TFCT_VERSION = 1
TFCT_HEADER = struct.Struct("<4sIIIQQ")  # magic, version, record_bytes,
                                         # node_count, recorded_total, events
TFCT_RECORD = struct.Struct("<qQiiiihhBBBB")
TFCT_EVENT_TYPE_COUNT = 23  # kFlightEventTypeCount (src/sim/flight.h)
TFCT_ENQUEUE = 0   # FlightEventType::kEnqueue, rendered '+'
TFCT_TRANSMIT = 1  # FlightEventType::kTransmit, rendered '-'


class Checker:
    def __init__(self):
        self.errors = []

    def error(self, where: str, msg: str) -> None:
        self.errors.append(f"{where}: {msg}")

    def expect(self, cond: bool, where: str, msg: str) -> bool:
        if not cond:
            self.error(where, msg)
        return cond


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_uint(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def load_json(path: Path, ck: Checker):
    try:
        with path.open() as f:
            return json.load(f)
    except FileNotFoundError:
        ck.error(str(path), "missing")
    except json.JSONDecodeError as e:
        ck.error(str(path), f"invalid JSON: {e}")
    return None


def check_manifest(path: Path, ck: Checker) -> None:
    doc = load_json(path, ck)
    if doc is None:
        return
    where = str(path)
    if not ck.expect(isinstance(doc, dict), where, "top level must be an object"):
        return
    ck.expect(doc.get("schema_version") == SCHEMA_VERSION, where,
              f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    ck.expect(isinstance(doc.get("git_describe"), str) and doc.get("git_describe"),
              where, "git_describe must be a non-empty string")
    ck.expect(is_uint(doc.get("created_unix")), where,
              "created_unix must be a non-negative integer")
    created_utc = doc.get("created_utc")
    ck.expect(isinstance(created_utc, str) and created_utc.endswith("Z"),
              where, "created_utc must be an ISO-8601 UTC string ending in Z")
    ck.expect(isinstance(doc.get("run"), dict), where, '"run" must be an object')


def check_metrics_tfcb(path: Path, ck: Checker, streams=None) -> tuple[list[str], int]:
    """Validates the spilled log; returns its series names (in series-id
    order) and the number of samples it stands for (([], 0) on error).
    Given `streams`, also fills it with name -> change stream: the
    (t_ns, value) pairs at which the series takes a new value, values as
    their f64 bytes so NaN compares equal to itself."""
    where = str(path)
    if not path.exists():
        ck.error(where, "missing")
        return [], 0
    data = path.read_bytes()
    if len(data) < TFCB_HEADER.size:
        ck.error(where, f"truncated header ({len(data)} bytes)")
        return [], 0
    magic, version, series_count, epoch_count, tick_count, change_count = \
        TFCB_HEADER.unpack_from(data)
    if not ck.expect(magic == TFCB_MAGIC, where, f"bad magic {magic!r}"):
        return [], 0
    if not ck.expect(version == TFCB_VERSION, where,
                     f"version must be {TFCB_VERSION}, got {version}"):
        return [], 0
    off = TFCB_HEADER.size
    names = []
    for i in range(series_count):
        if off + 4 > len(data):
            ck.error(where, f"truncated name table at entry {i}")
            return [], 0
        (length,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + length > len(data):
            ck.error(where, f"truncated name table at entry {i}")
            return [], 0
        try:
            name = data[off:off + length].decode("utf-8")
        except UnicodeDecodeError:
            ck.error(where, f"name {i} is not valid UTF-8")
            name = ""
        ck.expect(bool(name), where, f"name {i} must be non-empty")
        names.append(name)
        off += length
    ck.expect(len(set(names)) == len(names), where, "series names must be unique")

    epochs = []  # (first_tick, series ids)
    for e in range(epoch_count):
        if off + TFCB_EPOCH.size > len(data):
            ck.error(where, f"truncated epoch table at epoch {e}")
            return [], 0
        first, width = TFCB_EPOCH.unpack_from(data, off)
        off += TFCB_EPOCH.size
        if off + 4 * width > len(data):
            ck.error(where, f"truncated epoch table at epoch {e}")
            return [], 0
        sids = struct.unpack_from(f"<{width}I", data, off)
        off += 4 * width
        prev = epochs[-1][0] if epochs else None
        if not ck.expect(first < tick_count and (first == 0 if prev is None else first > prev),
                         where, f"epoch {e} starts at tick {first} of {tick_count}"):
            return [], 0
        if not ck.expect(all(s < series_count for s in sids) and len(set(sids)) == width,
                         where, f"epoch {e} samples an unknown series or one twice"):
            return [], 0
        epochs.append((first, sids))
    if not ck.expect(tick_count == 0 or epochs, where, "ticks without an epoch"):
        return [], 0

    body = len(data) - off
    want = tick_count * TFCB_TICK.size + change_count * TFCB_CHANGE_BYTES
    if not ck.expect(body == want, where,
                     f"log sections are {body} bytes, header promises {want}"):
        return [], 0
    ticks = [TFCB_TICK.unpack_from(data, off + i * TFCB_TICK.size)
             for i in range(tick_count)]
    change_sids = struct.unpack_from(f"<{change_count}I", data,
                                     off + tick_count * TFCB_TICK.size)
    begin = 0
    for i, (t_ns, end) in enumerate(ticks):
        if i > 0 and not ck.expect(t_ns >= ticks[i - 1][0], where,
                                   f"tick {i} goes back in time"):
            return [], 0
        if not ck.expect(begin <= end <= change_count, where,
                         f"tick {i} ends its changes at {end}"):
            return [], 0
        begin = end
    if not ck.expect(begin == change_count, where,
                     f"{change_count} changes, but the last tick ends at {begin}"):
        return [], 0

    # Replay: each change belongs to a series its tick samples, and each
    # sampled series has a value by the first tick of its epoch.
    values = off + tick_count * TFCB_TICK.size + 4 * change_count
    has_value = [False] * series_count
    samples = 0
    c = 0
    for e, (first, sids) in enumerate(epochs):
        end = epochs[e + 1][0] if e + 1 < len(epochs) else tick_count
        members = set(sids)
        samples += (end - first) * len(sids)
        for i in range(first, end):
            for k in range(c, ticks[i][1]):
                sid = change_sids[k]
                if not ck.expect(sid in members, where,
                                 f"tick {i} stores series {sid}, which it does not sample"):
                    return [], 0
                has_value[sid] = True
                if streams is not None:
                    value = data[values + 8 * k:values + 8 * k + 8]
                    stream = streams.setdefault(names[sid], [])
                    if not stream or stream[-1][1] != value:
                        stream.append((ticks[i][0], value))
            c = ticks[i][1]
            if i == first:
                missing = [names[s] for s in sids if not has_value[s]]
                if not ck.expect(not missing, where,
                                 f"series {missing[:3]} sampled at tick {i} before "
                                 "they have a value"):
                    return [], 0
    return names, samples


def check_flight_tfct(path: Path, ck: Checker) -> int:
    """Validates a flight-recorder dump; returns its event count (0 on error)."""
    where = str(path)
    data = path.read_bytes()
    if len(data) < TFCT_HEADER.size:
        ck.error(where, f"truncated header ({len(data)} bytes)")
        return 0
    magic, version, record_bytes, node_count, recorded_total, event_count = \
        TFCT_HEADER.unpack_from(data)
    if not ck.expect(magic == TFCT_MAGIC, where, f"bad magic {magic!r}"):
        return 0
    if not ck.expect(version == TFCT_VERSION, where,
                     f"version must be {TFCT_VERSION}, got {version}"):
        return 0
    if not ck.expect(record_bytes == TFCT_RECORD.size, where,
                     f"record size must be {TFCT_RECORD.size}, got {record_bytes}"):
        return 0
    ck.expect(event_count <= recorded_total, where,
              f"ring holds {event_count} events but only {recorded_total} "
              "were ever recorded")
    off = TFCT_HEADER.size
    for i in range(node_count):
        if off + 4 > len(data):
            ck.error(where, f"truncated node-name table at entry {i}")
            return 0
        (length,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + length > len(data):
            ck.error(where, f"truncated node-name table at entry {i}")
            return 0
        try:
            data[off:off + length].decode("utf-8")
        except UnicodeDecodeError:
            ck.error(where, f"node name {i} is not valid UTF-8")
        off += length
    body = len(data) - off
    if not ck.expect(body == event_count * TFCT_RECORD.size, where,
                     f"event section is {body} bytes, header promises "
                     f"{event_count * TFCT_RECORD.size}"):
        return 0
    prev_time = None
    # A wrapped ring lost its oldest enqueues. After the first FIFO
    # violation the rest of the check stops: every later transmit at that
    # port would repeat it.
    fifo = event_count == recorded_total
    queues = {}  # (node, port) -> deque of (time_ns, packet) not yet sent
    for i in range(event_count):
        time_ns, seq, a, b, _c, flow, node, port, etype, ptype, flags, weight = \
            TFCT_RECORD.unpack_from(data, off)
        off += TFCT_RECORD.size
        loc = f"{where} event[{i}]"
        ck.expect(time_ns >= 0, loc, f"negative timestamp {time_ns}")
        ck.expect(prev_time is None or time_ns >= prev_time, loc,
                  f"time went backwards: {prev_time} -> {time_ns}")
        prev_time = time_ns
        if not ck.expect(etype < TFCT_EVENT_TYPE_COUNT, loc,
                         f"unknown event type {etype}"):
            return 0
        ck.expect(flow >= -1, loc, f"bad flow id {flow}")
        ck.expect(node >= -1, loc, f"bad node id {node}")
        ck.expect(port >= -1, loc, f"bad port index {port}")
        if fifo and etype in (TFCT_ENQUEUE, TFCT_TRANSMIT):
            queue = queues.setdefault((node, port), collections.deque())
            packet = (flow, seq, a, b, ptype, flags, weight)
            if etype == TFCT_ENQUEUE:
                queue.append((time_ns, packet))
                continue
            if not queue:
                ck.error(loc, f"transmit at node {node} port {port} of "
                         f"{packet_name(packet)} with nothing enqueued there")
                fifo = False
                continue
            enqueued_at, head = queue.popleft()
            fifo = ck.expect(
                packet == head and time_ns >= enqueued_at, loc,
                f"transmit at node {node} port {port} of {packet_name(packet)} "
                f"at {time_ns} ns, but the queue's head is "
                f"{packet_name(head)}, enqueued at {enqueued_at} ns")
    return event_count


def packet_name(packet: tuple) -> str:
    """A flight record's packet fields, as check_flight_tfct compares them."""
    flow, seq, payload, window, ptype, flags, weight = packet
    return (f"flow {flow} seq {seq} (len {payload}, window {window}, "
            f"type {ptype}, flags {flags}, weight {weight})")


def check_perfetto_json(path: Path, ck: Checker) -> int:
    """Validates a Chrome trace-event export; returns its event count."""
    doc = load_json(path, ck)
    if doc is None:
        return 0
    where = str(path)
    if not ck.expect(isinstance(doc, dict), where, "top level must be an object"):
        return 0
    events = doc.get("traceEvents")
    if not ck.expect(isinstance(events, list), where,
                     '"traceEvents" must be a list'):
        return 0
    prev_ts = None
    open_spans = {}  # (cat, id) -> open-begin depth
    for i, ev in enumerate(events):
        loc = f"{where} traceEvents[{i}]"
        if not ck.expect(isinstance(ev, dict), loc, "event must be an object"):
            continue
        ph = ev.get("ph")
        if not ck.expect(isinstance(ph, str) and ph, loc,
                         '"ph" must be a non-empty string'):
            continue
        if ph == "M":
            ck.expect(isinstance(ev.get("name"), str), loc,
                      "metadata needs a name")
            continue
        ts = ev.get("ts")
        if not ck.expect(is_number(ts), loc, '"ts" must be a number'):
            continue
        ck.expect(prev_ts is None or ts >= prev_ts - 1e-9, loc,
                  f"ts went backwards: {prev_ts} -> {ts}")
        prev_ts = ts
        if ph == "X":
            ck.expect(is_number(ev.get("dur")) and ev.get("dur") >= 0, loc,
                      'slice "dur" must be a non-negative number')
        elif ph == "b":
            key = (ev.get("cat"), ev.get("id"))
            open_spans[key] = open_spans.get(key, 0) + 1
        elif ph == "e":
            key = (ev.get("cat"), ev.get("id"))
            if not ck.expect(open_spans.get(key, 0) > 0, loc,
                             f"span end without begin for {key}"):
                continue
            open_spans[key] -= 1
    for key, depth in open_spans.items():
        ck.expect(depth == 0, where, f"unclosed async span {key}")
    return len(events)


def check_trace_txt(path: Path, event_count: int, ck: Checker) -> None:
    """Validates the text export: one line per dumped event, in time order."""
    where = str(path)
    lines = path.read_text().splitlines()
    ck.expect(len(lines) == event_count, where,
              f"{len(lines)} lines for {event_count} dumped events")
    prev_time = None
    for i, line in enumerate(lines):
        loc = f"{where} line {i + 1}"
        try:
            time_s = float(line.split(" ", 1)[0])
        except ValueError:
            ck.error(loc, f"does not start with a time: {line!r}")
            return
        if not ck.expect(prev_time is None or time_s >= prev_time, loc,
                         f"time went backwards: {prev_time} -> {time_s}"):
            return
        prev_time = time_s


def check_flight_dir(run_dir: Path, ck: Checker) -> int:
    """Validates a directory's flight artifacts; returns the event count."""
    tfct = run_dir / "flight.tfct"
    if not tfct.exists():
        ck.error(str(tfct), "missing")
        return 0
    events = check_flight_tfct(tfct, ck)
    trace_txt = run_dir / "trace.txt"
    if trace_txt.exists():
        check_trace_txt(trace_txt, events, ck)
    perfetto = run_dir / "trace.perfetto.json"
    if perfetto.exists():
        check_perfetto_json(perfetto, ck)
    return events


def check_summary(path: Path, ck: Checker) -> None:
    doc = load_json(path, ck)
    if doc is None:
        return
    where = str(path)
    if not ck.expect(isinstance(doc, dict), where, "top level must be an object"):
        return
    ck.expect(doc.get("schema_version") == SCHEMA_VERSION, where,
              f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    keys = sorted(doc)
    ck.expect(keys == ["gauges", "profile", "schema_version"], where,
              f"keys must be exactly schema_version, gauges and profile, got {keys}")
    for section in ("gauges", "profile"):
        ck.expect(isinstance(doc.get(section), dict), where,
                  f'"{section}" must be an object')
    for name, v in (doc.get("gauges") or {}).items():
        ck.expect(v is None or is_number(v), f"{where} gauges[{name!r}]",
                  "gauge must be a number or null")
    for name, site in (doc.get("profile") or {}).items():
        loc = f"{where} profile[{name!r}]"
        if ck.expect(isinstance(site, dict), loc, "site must be an object"):
            for key in ("hits", "sim_ns", "wall_ns"):
                ck.expect(is_uint(site.get(key)), loc,
                          f"{key} must be a non-negative integer")


def check_run_dir(run_dir: Path, ck: Checker) -> int:
    check_manifest(run_dir / "manifest.json", ck)
    _, samples = check_metrics_tfcb(run_dir / "metrics.tfcb", ck)
    check_summary(run_dir / "summary.json", ck)
    # Flight-recorder artifacts ride along when the run was armed.
    if (run_dir / "flight.tfct").exists():
        check_flight_dir(run_dir, ck)
    return samples


SWEEP_SCHEMA_VERSION = 3
RUN_STATUSES = {"ok", "failed", "timeout", "skipped-cached"}


def check_sweep_dir(sweep_dir: Path, ck: Checker) -> int:
    """Validates sweep.json and every completed run's directory; returns the
    number of run rows."""
    path = sweep_dir / "sweep.json"
    doc = load_json(path, ck)
    if doc is None:
        return 0
    where = str(path)
    if not ck.expect(isinstance(doc, dict), where, "top level must be an object"):
        return 0
    ck.expect(doc.get("schema_version") == SWEEP_SCHEMA_VERSION, where,
              f"schema_version must be {SWEEP_SCHEMA_VERSION}, "
              f"got {doc.get('schema_version')!r}")
    ck.expect(isinstance(doc.get("git_describe"), str) and doc.get("git_describe"),
              where, "git_describe must be a non-empty string")
    ck.expect(isinstance(doc.get("sweep"), dict), where, '"sweep" must be an object')
    runs = doc.get("runs")
    if not ck.expect(isinstance(runs, list) and runs, where,
                     '"runs" must be a non-empty list'):
        return 0
    for i, r in enumerate(runs):
        loc = f"{where} runs[{i}]"
        if not ck.expect(isinstance(r, dict), loc, "run must be an object"):
            continue
        ck.expect(r.get("index") == i, loc,
                  f'index must be {i}, got {r.get("index")!r}')
        name = r.get("name")
        ck.expect(isinstance(name, str) and name, loc,
                  "name must be a non-empty string")
        status = r.get("status")
        if not ck.expect(status in RUN_STATUSES, loc,
                         f"status must be one of {sorted(RUN_STATUSES)}, "
                         f"got {status!r}"):
            continue
        exit_code = r.get("exit_code")
        ck.expect(isinstance(exit_code, int) and not isinstance(exit_code, bool),
                  loc, "exit_code must be an integer")
        ck.expect(is_uint(r.get("signal")), loc,
                  "signal must be a non-negative integer")
        wall = r.get("wall_seconds")
        ck.expect(is_number(wall) and wall >= 0, loc,
                  "wall_seconds must be a non-negative number")
        salvaged = r.get("salvaged", [])
        ck.expect(isinstance(salvaged, list) and
                  all(isinstance(s, str) and s for s in salvaged), loc,
                  "salvaged must be a list of non-empty strings")
        # Status/field consistency.
        if status in ("ok", "skipped-cached"):
            ck.expect(exit_code == 0, loc, f"{status} run with exit_code {exit_code!r}")
            ck.expect(r.get("signal") == 0, loc, f"{status} run with a signal")
        else:
            ck.expect(exit_code != 0, loc, f"{status} run with exit_code 0")
        # A completed run must have left a fully valid run directory behind
        # (sweep.json lives in the telemetry dir, so run dirs are siblings).
        if status in ("ok", "skipped-cached") and isinstance(name, str) and name:
            run_dir = sweep_dir / name
            if ck.expect(run_dir.is_dir(), loc,
                         f"completed run has no run directory {run_dir}"):
                check_run_dir(run_dir, ck)
    return len(runs)


def compare_run_dirs(a: Path, b: Path, ignore: list[str]) -> int:
    """Prints every series, gauge and profile site that differs between two
    run directories; returns 1 if any does (or either fails to load)."""
    ck = Checker()
    series = []
    for d in (a, b):
        streams = {}
        names, _ = check_metrics_tfcb(d / "metrics.tfcb", ck, streams)
        series.append({name: streams.get(name, []) for name in names})
        check_summary(d / "summary.json", ck)
    if ck.errors:
        for e in ck.errors:
            print(e)
        return 1
    summaries = [load_json(d / "summary.json", ck) for d in (a, b)]

    def ignored(name: str) -> bool:
        return any(fnmatch.fnmatchcase(name, pattern) for pattern in ignore)

    def differing(x: dict, y: dict) -> list[str]:
        return sorted(n for n in set(x) | set(y)
                      if not ignored(n) and (n not in x or n not in y or x[n] != y[n]))

    diffs = [("series", n) for n in differing(*series)]
    for section, kind in (("gauges", "gauge"), ("profile", "profile")):
        diffs += [(kind, n) for n in differing(*(s.get(section, {}) for s in summaries))]
    for kind, name in diffs:
        print(f"{kind} {name}")
    print(f"telemetry_schema.py: {a} vs {b}: {len(diffs)} name(s) differ",
          file=sys.stderr)
    return 1 if diffs else 0


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1] == "--compare":
        rest = argv[2:]
        ignore = []
        dirs = []
        while rest:
            if rest[0] == "--ignore" and len(rest) > 1:
                ignore.append(rest[1])
                rest = rest[2:]
            else:
                dirs.append(Path(rest[0]))
                rest = rest[1:]
        if len(dirs) != 2:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return compare_run_dirs(dirs[0], dirs[1], ignore)
    ck = Checker()
    args = argv[1:]
    mode = "run"
    if args and args[0] in ("--flight", "--sweep"):
        mode = args[0][2:]
        args = args[1:]
        if not args:
            print(__doc__.strip(), file=sys.stderr)
            return 2
    for arg in args:
        run_dir = Path(arg)
        if not run_dir.is_dir():
            ck.error(arg, "not a directory")
            continue
        if mode == "flight":
            events = check_flight_dir(run_dir, ck)
            print(f"telemetry_schema.py: {run_dir}: {events} flight event(s)",
                  file=sys.stderr)
        elif mode == "sweep":
            runs = check_sweep_dir(run_dir, ck)
            print(f"telemetry_schema.py: {run_dir}: {runs} sweep run(s)",
                  file=sys.stderr)
        else:
            samples = check_run_dir(run_dir, ck)
            print(f"telemetry_schema.py: {run_dir}: {samples} samples",
                  file=sys.stderr)
    for e in ck.errors:
        print(e)
    print(f"telemetry_schema.py: {len(ck.errors)} violation(s)", file=sys.stderr)
    return 1 if ck.errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
