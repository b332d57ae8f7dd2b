//! Open-loop driver: couples any [`RequestSource`] to the DRAM controllers
//! without cores, windows, or instruction streams in the loop.
//!
//! Where [`crate::System`] interleaves cores and controllers cycle by cycle
//! (a core holds a miss back while the controller's buffer is full), this
//! driver implements the [`RequestSource`] backpressure contract: the
//! source emits on its own schedule and the driver buffers what the memory
//! system cannot yet accept, in per-channel FIFOs so one saturated channel
//! never blocks arrivals headed elsewhere. That is the behaviour an
//! open-loop experiment needs — arrival times are workload facts, not
//! consequences of memory performance — and `peak_backlog` reports how
//! deep the resulting queues got.
//!
//! Flow-level metrics need an "isolated FCT" per flow. Rather than run a
//! second simulation per flow (the closed-loop alone-baseline trick does
//! not scale to tens of thousands of requesters), the driver uses a
//! self-calibrating proxy: `(size - 1) * request_gap + min observed read
//! latency`, i.e. the flow's own issue schedule plus the best latency the
//! memory system demonstrated in this very run. The proxy is optimistic
//! (the minimum is near-unloaded latency), which makes slowdowns slight
//! over-estimates — consistent across schedulers, which is what a
//! comparison needs. See `DESIGN.md` for the full argument.

use std::collections::VecDeque;

use parbs::ThreadPriority;
use parbs_dram::LineAddr;
use parbs_metrics::{FlowMetrics, FlowSummary, LatencyHistogram};
use parbs_monitor::Spec;
use parbs_workloads::{FlowConfig, FlowSource, RequestSource, SourcedRequest};

use crate::executor::scope_map;
use crate::memory::{alarm_count, MemorySide};
use crate::{SchedulerKind, SimConfig};

/// Outcome of driving one [`RequestSource`] to exhaustion.
#[derive(Debug, Clone)]
pub struct SourceDriveResult {
    /// Cycles elapsed when the drive stopped.
    pub cycles: u64,
    /// True if `max_cycles` hit before the source drained.
    pub timed_out: bool,
    /// Reads the memory system completed.
    pub reads_completed: u64,
    /// Read latency distribution merged over all channels.
    pub read_latency: LatencyHistogram,
    /// Deepest total (all-channel) driver-side backlog observed.
    pub peak_backlog: usize,
    /// Alarms of the [`parbs_monitor::prelude::invariants`] monitor (always
    /// 0 unless invariant checking was requested).
    pub invariant_violations: usize,
    /// Monitor alarms observed (always 0 unless a spec was given).
    pub monitor_alarms: usize,
}

/// Drives `source` against fresh controllers built from `cfg` until the
/// source is exhausted and every buffered/in-flight request has completed,
/// or `cfg.max_cycles` elapses. It skips the cycles before the earlier of
/// the memory side's next DRAM edge or completion and the source's
/// [`RequestSource::next_event`]: nothing can happen in them.
///
/// With `check_invariants`, every controller runs the DRAM protocol
/// checker **and** a [`parbs_monitor::prelude::invariants`] monitor
/// auditing scheduler events; its alarm count lands in
/// `invariant_violations` (the protocol checker itself panics on
/// violation, as elsewhere in the crate). With `spec`, every controller
/// additionally runs a [`parbs_monitor`] monitor compiled from the spec and
/// the alarm count lands in `monitor_alarms`.
///
/// # Panics
///
/// Panics if the DRAM configuration is invalid, or on a protocol timing
/// violation when `check_invariants` is set.
pub fn drive_source(
    cfg: &SimConfig,
    scheduler: &SchedulerKind,
    source: &mut dyn RequestSource,
    check_invariants: bool,
    spec: Option<&Spec>,
) -> SourceDriveResult {
    // An in-flight read carries the source's token back; every requester
    // runs at the default priority.
    let mut memory: MemorySide<u64> = MemorySide::new(cfg, &|cfg| scheduler.build(cfg));
    let priority = ThreadPriority::default();
    memory.observe(check_invariants, spec, Vec::new());
    // Per channel, the requests it had no room for yet, with their address.
    let mut backlogs: Vec<VecDeque<(LineAddr, SourcedRequest)>> =
        (0..cfg.dram.channels()).map(|_| VecDeque::new()).collect();
    let mut emitted = Vec::new();
    let mut peak_backlog = 0usize;
    let mut now = 0u64;
    let mut timed_out = false;

    loop {
        memory.tick(now, |token, _| source.on_complete(token, now));
        source.poll(now, &mut emitted);
        for r in emitted.drain(..) {
            let addr = memory.decode(r.line);
            backlogs[addr.channel].push_back((addr, r));
        }
        for backlog in &mut backlogs {
            while let Some(&(addr, r)) = backlog.front() {
                if !memory.enqueue(r.thread, addr, r.kind, now, priority, Some(r.token)) {
                    break;
                }
                backlog.pop_front();
            }
        }
        peak_backlog = peak_backlog.max(backlogs.iter().map(VecDeque::len).sum());
        now += 1;
        let drained = backlogs.iter().all(VecDeque::is_empty) && !memory.reads_in_flight();
        if source.exhausted() && drained {
            break;
        }
        // No cycle before the source's next event or the memory side's can
        // change anything: a backlogged request finds room only at a DRAM
        // edge. Jump to the earlier one, but not past the cycle cap. A
        // source that asks to be polled every cycle costs one call.
        let source_next = source.next_event(now);
        if source_next > now {
            now = now.max(memory.next_event(now).min(source_next).min(cfg.max_cycles));
        }
        if now >= cfg.max_cycles {
            timed_out = true;
            break;
        }
    }

    let detached = memory.detach();
    SourceDriveResult {
        cycles: now,
        timed_out,
        reads_completed: memory.reads_completed(),
        read_latency: memory.read_latency(),
        peak_backlog,
        invariant_violations: alarm_count(&detached.invariants),
        monitor_alarms: alarm_count(&detached.monitors),
    }
}

/// Result of one open-loop flow experiment.
#[derive(Debug, Clone)]
pub struct FlowRunResult {
    /// Scheduler display name.
    pub scheduler: &'static str,
    /// Thread-id space / total flows spawned over the run.
    pub requesters: usize,
    /// Flows that fully completed (== `requesters` unless timed out).
    pub completed: usize,
    /// Flow-completion-time and slowdown distributions.
    pub summary: FlowSummary,
    /// Underlying drive outcome (cycles, read latency, backlog, checks).
    pub drive: SourceDriveResult,
}

/// Runs one scheduler against one [`FlowSource`] configuration and reduces
/// the completed flows to FCT/slowdown metrics.
///
/// # Panics
///
/// Propagates the panics of [`drive_source`].
#[must_use]
pub fn run_flow(
    cfg: &SimConfig,
    scheduler: &SchedulerKind,
    flows: &FlowConfig,
    check_invariants: bool,
    spec: Option<&Spec>,
) -> FlowRunResult {
    let mut source = FlowSource::new(*flows);
    let drive = drive_source(cfg, scheduler, &mut source, check_invariants, spec);
    let completed = source.take_completed();
    // Self-calibrating isolation proxy: the best read latency this run
    // demonstrated stands in for unloaded latency.
    let base_latency = if drive.read_latency.count() == 0 { 1 } else { drive.read_latency.min() };
    let mut metrics = FlowMetrics::default();
    for f in &completed {
        let isolated = (f.size - 1) * flows.request_gap.max(1) + base_latency;
        metrics.record(f.fct(), isolated);
    }
    FlowRunResult {
        scheduler: scheduler.name(),
        requesters: flows.requesters,
        completed: completed.len(),
        summary: metrics.summary(),
        drive,
    }
}

/// Runs the cross product of `schedulers` × `scales` (requester counts),
/// fanned over `jobs` worker threads. Each cell is fully independent —
/// fresh controllers, fresh source — so results are identical at every
/// `jobs` level.
///
/// # Panics
///
/// Propagates the panics of [`drive_source`].
#[must_use]
pub fn run_flow_sweep(
    cfg: &SimConfig,
    schedulers: &[SchedulerKind],
    scales: &[usize],
    flows: &FlowConfig,
    check_invariants: bool,
    spec: Option<&Spec>,
    jobs: usize,
) -> Vec<FlowRunResult> {
    let cells: Vec<(SchedulerKind, usize)> =
        schedulers.iter().flat_map(|s| scales.iter().map(move |&n| (s.clone(), n))).collect();
    scope_map(&cells, jobs, |(sched, n)| {
        let fc = FlowConfig { requesters: *n, ..*flows };
        run_flow(cfg, sched, &fc, check_invariants, spec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_workloads::BoundedPareto;

    fn tiny_flows(requesters: usize) -> FlowConfig {
        FlowConfig {
            requesters,
            arrival_rate: 0.05,
            size: BoundedPareto { alpha: 1.2, min: 2, max: 16 },
            request_gap: 4,
            line_space: 1 << 16,
            seed: 11,
        }
    }

    #[test]
    fn flow_run_completes_all_flows() {
        let cfg = SimConfig::for_cores(4);
        let r = run_flow(&cfg, &SchedulerKind::FrFcfs, &tiny_flows(48), false, None);
        assert!(!r.drive.timed_out);
        assert_eq!(r.completed, 48);
        assert_eq!(r.summary.flows, 48);
        assert!(r.summary.slowdown_p50 >= 1.0);
        assert!(r.drive.reads_completed >= 48 * 2, "every flow issued ≥ min-size reads");
    }

    #[test]
    fn invariant_checked_run_is_clean() {
        let cfg = SimConfig::for_cores(4);
        let spec = parbs_monitor::prelude::invariants();
        let r = run_flow(
            &cfg,
            &SchedulerKind::ParBs(Default::default()),
            &tiny_flows(24),
            true,
            Some(&spec),
        );
        assert!(!r.drive.timed_out);
        assert_eq!(r.drive.invariant_violations, 0);
        assert_eq!(r.drive.monitor_alarms, 0);
    }
}
