#!/usr/bin/env python3
"""Seeded-violation tests for the rules tools/lint.py alone owns.

Each case writes a small C++ snippet to a temp file and lints it under a
fake repo-relative path (the rules are path-scoped), then checks which
rule tags fire. A clean control proves the rules do not fire on the
sanctioned idioms.

Run: python3 tests/lint_test.py
"""

import importlib.util
import tempfile
import unittest
from pathlib import Path

LINT_PY = Path(__file__).resolve().parent.parent / "tools" / "lint.py"
_spec = importlib.util.spec_from_file_location("lint", LINT_PY)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def rules_fired(rel: str, code: str) -> list[str]:
    """Rule tags lint_file reports for `code` linted as repo path `rel`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / Path(rel).name
        path.write_text(code)
        errors = lint.lint_file(path, rel)
    return [e.split("[", 1)[1].split("]", 1)[0] for e in errors]


class BareAssertTest(unittest.TestCase):
    def test_assert_call_fires(self):
        code = "void F(int x) {\n  assert(x > 0);\n}\n"
        self.assertEqual(rules_fired("src/sim/fake.cc", code), ["bare-assert"])

    def test_fires_outside_src_too(self):
        code = "void F(int x) { assert(x); }\n"
        self.assertEqual(rules_fired("tests/fake_test.cc", code), ["bare-assert"])


class HotIoTest(unittest.TestCase):
    def test_printf_in_hot_layer_fires(self):
        code = 'void F() {\n  std::printf("t=%d\\n", 1);\n}\n'
        self.assertEqual(rules_fired("src/net/fake.cc", code), ["hot-io"])

    def test_stream_in_hot_layer_fires(self):
        code = "void F() { std::cout << 1; }\n"
        self.assertEqual(rules_fired("src/tfc/fake.cc", code), ["hot-io"])

    def test_cold_layer_is_exempt(self):
        code = 'void F() { std::printf("x"); }\n'
        self.assertEqual(rules_fired("src/workload/fake.cc", code), [])


class RecorderHotTest(unittest.TestCase):
    def test_lookup_in_recorder_tick_fires(self):
        code = (
            "void TimeSeriesRecorder::Tick() {\n"
            "  auto it = series_.find(name);\n"
            "}\n"
        )
        self.assertEqual(rules_fired("src/sim/telemetry.cc", code),
                         ["recorder-hot"])

    def test_name_lookup_in_log_append_fires(self):
        code = (
            "void SeriesLog::AppendTick(TimeNs t) {\n"
            "  const uint32_t sid = sid_by_name_[name];\n"
            "}\n"
        )
        self.assertEqual(rules_fired("src/sim/telemetry.cc", code),
                         ["recorder-hot"])

    def test_growth_in_flight_append_fires(self):
        code = (
            "class FlightRecorder {\n"
            "  void Record(const FlightEvent& e) {\n"
            "    ring_.push_back(e);\n"
            "  }\n"
            "};\n"
        )
        self.assertEqual(rules_fired("src/sim/flight.h", code), ["recorder-hot"])

    def test_allocation_in_control_event_gate_fires(self):
        code = "void EmitFlight(const FlightEvent& e) {\n  auto* p = new FlightEvent(e);\n}\n"
        self.assertEqual(rules_fired("src/net/network.h", code),
                         ["recorder-hot"])

    def test_allocation_in_trace_gate_fires(self):
        code = "void EmitTrace(int t) {\n  auto* p = new int(t);\n}\n"
        self.assertEqual(rules_fired("src/net/network.h", code),
                         ["recorder-hot"])

    def test_cold_method_in_same_file_is_exempt(self):
        code = (
            "void TimeSeriesRecorder::RebuildPlan() {\n"
            "  auto it = series_.find(name);\n"
            "}\n"
        )
        self.assertEqual(rules_fired("src/sim/telemetry.cc", code), [])


class CleanControlTest(unittest.TestCase):
    def test_sanctioned_idioms_stay_clean(self):
        code = (
            '#include "src/sim/check.h"\n'
            "// Never assert() or printf() here; prose in comments is fine.\n"
            "static_assert(sizeof(int) == 4);\n"
            "void F(int x) {\n"
            "  TFC_CHECK_GT(x, 0);\n"
            '  std::printf("ok\\n");  // lint:allow hot-io\n'
            "}\n"
        )
        self.assertEqual(rules_fired("src/sim/fake.cc", code), [])


if __name__ == "__main__":
    unittest.main()
