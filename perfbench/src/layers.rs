//! Per-layer metrics from one traced run.

use crate::timed::{Span, Tick, Tracer};
use crate::workloads::SnapCost;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Host time of the cycle-loop partition: glue self time (loop time
/// outside `Controller::tick`, `Core::tick` and the decorated calls the
/// glue makes itself), the self time of `Controller::tick` and
/// `Core::tick`, and every decorated layer call wherever it was made. The
/// returned remainder is the loop's wall time minus the sum of the parts:
/// minus the time of decorated calls made outside the loops (scheduler
/// calls while a controller is built, `set_observing`, and so on).
#[must_use]
pub fn partition(t: &Tracer) -> (Vec<(&'static str, f64)>, f64) {
    let glue = t.loop_ns.get() as i128
        - i128::from(t.ctrl_tick_ns.get())
        - i128::from(t.core_tick_ns.get())
        - i128::from(t.glue_nested_ns());
    let parts = vec![
        ("sim.glue_self_s", glue as f64 / 1e9),
        ("dram.tick_self_s", secs(t.ctrl_tick_ns.get() - t.nested_ns(Tick::Ctrl))),
        ("cpu.tick_self_s", secs(t.core_tick_ns.get() - t.nested_ns(Tick::Core))),
        ("sched.key_s", secs(t.ns(Span::Key))),
        ("sched.pre_schedule_s", secs(t.ns(Span::PreSchedule))),
        ("sched.hooks_s", secs(t.ns(Span::Hook))),
        ("sched.other_s", secs(t.ns(Span::SchedOther))),
        ("workloads.next_instr_s", secs(t.ns(Span::NextInstr))),
        ("workloads.stream_other_s", secs(t.ns(Span::StreamOther))),
        ("workloads.flow_poll_s", secs(t.ns(Span::FlowPoll))),
        ("workloads.flow_complete_s", secs(t.ns(Span::FlowComplete))),
        ("workloads.source_other_s", secs(t.ns(Span::SourceOther))),
        ("monitor.record_s", secs(t.ns(Span::Record))),
    ];
    let remainder = secs(t.loop_ns.get()) - parts.iter().map(|(_, s)| s).sum::<f64>();
    (parts, remainder)
}

/// Every per-layer metric of one traced run. `snap` comes from the
/// untraced run (its save/resume calls are timed from outside either way)
/// and `overhead_ratio` is traced over untraced wall time.
#[must_use]
pub fn metrics(t: &Tracer, snap: &SnapCost, overhead_ratio: f64) -> Vec<Metric> {
    let (parts, _) = partition(t);
    let part = |name: &str| parts.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| *s);
    let m = |name, value, unit| Metric { name, value, unit };
    let cycles = t.cycles.get();
    let commands = t.commands.get();
    vec![
        m("sim.loop_s", secs(t.loop_ns.get()), "s"),
        m("sim.glue_self_s", part("sim.glue_self_s"), "s"),
        m("sim.ns_per_cycle", ratio(t.loop_ns.get(), cycles), "ns"),
        m("sim.quiet_cycle_frac", ratio(t.quiet_cycles.get(), cycles), "fraction"),
        m("dram.tick_self_s", part("dram.tick_self_s"), "s"),
        m("dram.ticks", t.ctrl_ticks.get() as f64, "count"),
        m("dram.commands", commands as f64, "count"),
        m("dram.refreshes", t.refreshes.get() as f64, "count"),
        m("dram.read_q_mean", ratio(t.read_q_sum.get(), t.read_q_samples.get()), "requests"),
        m("sched.key_s", part("sched.key_s"), "s"),
        m("sched.key_calls", t.calls(Span::Key) as f64, "count"),
        m("sched.keys_per_command", ratio(t.calls(Span::Key), commands), "ratio"),
        m("sched.pre_schedule_s", part("sched.pre_schedule_s"), "s"),
        m("sched.pre_schedule_calls", t.calls(Span::PreSchedule) as f64, "count"),
        m("sched.dirty_frac", ratio(t.dirty.get(), t.calls(Span::PreSchedule)), "fraction"),
        m("sched.hooks_s", part("sched.hooks_s"), "s"),
        m("cpu.tick_self_s", part("cpu.tick_self_s"), "s"),
        m("cpu.ticks", t.core_ticks.get() as f64, "count"),
        m("workloads.next_instr_s", part("workloads.next_instr_s"), "s"),
        m("workloads.next_instr_calls", t.calls(Span::NextInstr) as f64, "count"),
        m("workloads.flow_poll_s", part("workloads.flow_poll_s"), "s"),
        m("workloads.flow_complete_s", part("workloads.flow_complete_s"), "s"),
        m("monitor.record_s", part("monitor.record_s"), "s"),
        m("monitor.events", t.calls(Span::Record) as f64, "count"),
        m("monitor.ns_per_event", ratio(t.ns(Span::Record), t.calls(Span::Record)), "ns"),
        m("snap.save_s", secs(snap.save_ns), "s"),
        m("snap.resume_s", secs(snap.resume_ns), "s"),
        m("snap.bytes", snap.bytes as f64, "bytes"),
        m("trace.overhead_ratio", overhead_ratio, "ratio"),
    ]
}
