"""A traced run: span profiles, a Perfetto timeline, and the hottest spans.

The telemetry layer observes the whole pipeline — workload, serving,
solver kernel, link layer, physical layer, timing, faults, guard,
records — without perturbing it: every produced table is byte-identical
whether tracing is ``off``, ``light`` or ``full``.  This example runs one
comparison at the ``full`` level, prints the aggregated per-span profile,
exports a Chrome-trace JSON you can open in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``, and renders the
Prometheus exposition of the same run.

Run it with::

    python examples/traced_run.py
"""

from __future__ import annotations

from repro import api


def main() -> None:
    scenario = (
        api.Scenario.small()
        .with_policies("oscar", "ma")
        .with_trials(2)
        .with_telemetry("full")       # "light": profiles only, no event ring
    )

    print("=== Traced comparison (telemetry level: full) ===")
    record = scenario.run(workers=2)  # spans keep their worker pid/tid lanes
    print(record.format_summary())

    print("=== Hottest spans ===")
    rows = api.summarize_spans(record.stats("telemetry"))
    for row in rows:
        print(
            f"  {row['name']:<22} {row['count']:>5.0f}x  "
            f"{row['wall_s'] * 1e3:8.2f} ms wall  "
            f"{row['mean_us']:8.1f} µs/call  {row['share'] * 100:5.1f}%"
        )

    spans = record.telemetry_spans()
    count = api.write_chrome_trace(spans, "traced_run.json", label="traced_run")
    pids = {span.get("pid") for span in spans}
    print(f"\n[trace] {count} span(s) from {len(pids)} process(es) "
          "written to traced_run.json — load it in Perfetto / chrome://tracing")

    print("\n=== Prometheus exposition (excerpt) ===")
    for line in api.render_prometheus(record.stats("telemetry")).splitlines()[:12]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
