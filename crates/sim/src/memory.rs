//! The memory side of a simulation: one controller per DRAM channel, the
//! address mapping that routes requests to them, the in-flight read table,
//! the per-channel monitor stack and the run-level folds over the
//! controllers' statistics.
//!
//! Both cycle loops drive the same memory side: [`crate::System`] from
//! closed-loop cores and [`crate::drive_source`] from an open-loop
//! [`parbs_workloads::RequestSource`]. Each keeps only its requester side.
//! A read carries a value `T` from enqueue to completion: `(core, miss)`
//! for a system, the source's token for a flow.

use std::collections::HashMap;

use parbs::ThreadPriority;
use parbs_dram::{
    AddressMapper, Completion, Controller, LineAddr, MemoryScheduler, Request, RequestKind,
    ThreadId, DRAM_CYCLE,
};
use parbs_metrics::LatencyHistogram;
use parbs_monitor::{Monitor, Spec};
use parbs_obs::{downcast_sink, EventSink, FanoutSink};
use parbs_snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::{MonitorReport, SimConfig};

/// What [`MemorySide::detach`] takes off the controllers.
pub(crate) struct Detached {
    /// Per-channel invariants-monitor reports (empty unless requested).
    pub invariants: Vec<MonitorReport>,
    /// Per-channel spec-monitor reports (empty unless a spec was given).
    pub monitors: Vec<MonitorReport>,
    /// Channel 0's other sinks, in the order `observe` got them.
    pub channel0: Vec<Box<dyn EventSink>>,
}

/// Total alarms over `reports`.
pub(crate) fn alarm_count(reports: &[MonitorReport]) -> usize {
    reports.iter().map(|r| r.alarms.len()).sum()
}

/// The controllers of every channel and the routing between them and the
/// requesters.
pub(crate) struct MemorySide<T> {
    controllers: Vec<Controller>,
    mapper: AddressMapper,
    next_request: u64,
    /// In-flight reads: request id → what the read carries back.
    inflight: HashMap<u64, T>,
    /// Completions of the cycle being ticked (empty between cycles).
    completions: Vec<Completion>,
    /// Which monitors [`MemorySide::observe`] put at the head of every
    /// channel's fan-out: the invariants monitor, then the spec monitor.
    monitors: (bool, bool),
}

impl<T> MemorySide<T> {
    /// One controller per channel of `cfg.dram`, each driven by a fresh
    /// scheduler from `factory`, and with the protocol checker when
    /// `cfg.check_protocol` asks for it.
    ///
    /// # Panics
    ///
    /// Panics if the DRAM configuration is invalid.
    pub(crate) fn new(
        cfg: &SimConfig,
        factory: &dyn Fn(&SimConfig) -> Box<dyn MemoryScheduler>,
    ) -> Self {
        let controllers = (0..cfg.dram.channels())
            .map(|_| {
                let mut ctrl = Controller::new(cfg.dram.clone(), factory(cfg));
                if cfg.check_protocol {
                    ctrl.attach_checker();
                }
                ctrl
            })
            .collect();
        MemorySide {
            controllers,
            mapper: cfg.dram.mapper(),
            next_request: 0,
            inflight: HashMap::new(),
            completions: Vec::new(),
            monitors: (false, false),
        }
    }

    /// Attaches the observers of one run, before its first cycle. Invariant
    /// checking runs the DRAM protocol checker (which panics on a timing
    /// violation) and a [`parbs_monitor::prelude::invariants`] monitor on
    /// every channel; a `spec` adds a monitor compiled from it on every
    /// channel; `channel0`'s sinks follow the monitors on channel 0.
    pub(crate) fn observe(
        &mut self,
        check_invariants: bool,
        spec: Option<&Spec>,
        channel0: Vec<Box<dyn EventSink>>,
    ) {
        let invariants = check_invariants.then(parbs_monitor::prelude::invariants);
        let mut channel0 = Some(channel0);
        for ctrl in &mut self.controllers {
            if check_invariants {
                ctrl.attach_checker();
            }
            let mut fan = FanoutSink::new();
            if let Some(invariants) = &invariants {
                fan.push(Box::new(invariants.monitor()));
            }
            if let Some(spec) = spec {
                fan.push(Box::new(spec.monitor()));
            }
            for sink in channel0.take().into_iter().flatten() {
                fan.push(sink);
            }
            if !fan.is_empty() {
                ctrl.set_event_sink(Box::new(fan));
            }
        }
        self.monitors = (check_invariants, spec.is_some());
    }

    /// Takes off what [`MemorySide::observe`] attached: every channel's
    /// monitor reports and channel 0's other sinks.
    pub(crate) fn detach(&mut self) -> Detached {
        let (invariants, spec) = std::mem::take(&mut self.monitors);
        let mut out =
            Detached { invariants: Vec::new(), monitors: Vec::new(), channel0: Vec::new() };
        for (channel, ctrl) in self.controllers.iter_mut().enumerate() {
            let Some(sink) = ctrl.take_event_sink() else { continue };
            let Ok(fan) = downcast_sink::<FanoutSink>(sink) else {
                unreachable!("observe attaches a fan-out")
            };
            let mut sinks = fan.into_sinks().into_iter();
            if invariants {
                out.invariants.push(report(channel, sinks.next()));
            }
            if spec {
                out.monitors.push(report(channel, sinks.next()));
            }
            out.channel0.extend(sinks);
        }
        out
    }

    /// Ticks every controller to cycle `now`, handing each read that
    /// completes its carried value and its completion.
    pub(crate) fn tick(&mut self, now: u64, mut deliver: impl FnMut(T, &Completion)) {
        for ctrl in &mut self.controllers {
            ctrl.tick(now, &mut self.completions);
        }
        for c in self.completions.drain(..) {
            if c.kind == RequestKind::Read {
                if let Some(carry) = self.inflight.remove(&c.request.0) {
                    deliver(carry, &c);
                }
            }
        }
    }

    /// The channel, bank, row and column of cache line `line`.
    pub(crate) fn decode(&self, line: u64) -> LineAddr {
        self.mapper.decode(line)
    }

    /// Enqueues a request at `addr` from a thread of `priority` if its
    /// channel has room, and returns whether it did. A read hands `carry`
    /// back through [`MemorySide::tick`] when it completes; writes complete
    /// silently.
    // Inlined into the cycle loops, which call it every cycle a request
    // waits, mostly to find its channel full.
    #[must_use]
    #[inline]
    pub(crate) fn enqueue(
        &mut self,
        thread: ThreadId,
        addr: LineAddr,
        kind: RequestKind,
        now: u64,
        priority: ThreadPriority,
        carry: Option<T>,
    ) -> bool {
        let ctrl = &mut self.controllers[addr.channel];
        let room = match kind {
            RequestKind::Read => ctrl.can_accept_read(),
            RequestKind::Write => ctrl.can_accept_write(),
        };
        if !room {
            return false;
        }
        let id = self.next_request;
        let mut req = Request::new(id, thread, addr, kind, now);
        req.priority_level = priority.period().map(|p| p as u8);
        ctrl.try_enqueue(req).expect("capacity was checked");
        if let (RequestKind::Read, Some(carry)) = (kind, carry) {
            self.inflight.insert(id, carry);
        }
        self.next_request += 1;
        true
    }

    /// The first cycle at or after `from` at which ticking the memory side
    /// can change anything: the next DRAM edge, where the controllers
    /// schedule and a full queue can make room, or the earliest pending
    /// completion, whichever comes first. A cycle loop whose requesters
    /// have nothing to do before then may jump straight to it.
    pub(crate) fn next_event(&self, from: u64) -> u64 {
        let edge = from.next_multiple_of(DRAM_CYCLE);
        self.controllers.iter().filter_map(Controller::next_completion).fold(edge, u64::min)
    }

    /// True while a read is in flight.
    pub(crate) fn reads_in_flight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// What every in-flight read carries, in no particular order.
    pub(crate) fn carried(&self) -> impl Iterator<Item = &T> {
        self.inflight.values()
    }

    /// Forwards per-thread stall-cycle increments to every channel's
    /// scheduler (see [`Controller::report_stall_cycles`]).
    pub(crate) fn report_stall_cycles(&mut self, stalls: &[u64], now: u64) {
        for ctrl in &mut self.controllers {
            ctrl.report_stall_cycles(stalls, now);
        }
    }

    /// Per channel, the packed priority key of every queued read at `now`.
    pub(crate) fn priority_keys(&mut self, now: u64) -> Vec<Vec<u128>> {
        self.controllers.iter_mut().map(|c| c.priority_keys(now)).collect()
    }

    /// Read latencies merged over every channel.
    pub(crate) fn read_latency(&self) -> LatencyHistogram {
        let mut read_latency = LatencyHistogram::new();
        for c in &self.controllers {
            read_latency.merge(&c.stats().read_latency);
        }
        read_latency
    }

    /// Reads completed over every channel.
    pub(crate) fn reads_completed(&self) -> u64 {
        self.controllers.iter().map(|c| c.stats().reads_completed).sum()
    }

    /// Row-buffer hit rate over every serviced request of every channel.
    pub(crate) fn row_hit_rate(&self) -> f64 {
        hit_rate(self.controllers.iter().map(|c| {
            let s = c.stats();
            (s.row_hits, s.row_hits + s.row_closed + s.row_conflicts)
        }))
    }

    /// Read row-buffer hit rate of `thread` over every channel.
    pub(crate) fn read_hit_rate_of(&self, thread: ThreadId) -> f64 {
        hit_rate(self.controllers.iter().map(|c| {
            let (hits, closed, conflicts) =
                c.stats().thread_read_categories.get(thread.0).copied().unwrap_or_default();
            (hits, hits + closed + conflicts)
        }))
    }

    /// Average bank-level parallelism of `thread`: the unweighted mean of
    /// the per-channel means over the channels that saw it. Each channel's
    /// tracker keeps its own sum and sample count, but the channels are not
    /// weighted by their sample counts.
    pub(crate) fn blp_of(&self, thread: ThreadId) -> f64 {
        let seen: Vec<f64> = self
            .controllers
            .iter()
            .map(|c| c.stats().thread_blp_average(thread))
            .filter(|v| *v > 0.0)
            .collect();
        let n = seen.len();
        if n == 0 {
            0.0
        } else {
            seen.iter().sum::<f64>() / n as f64
        }
    }

    /// Every channel's scheduler name, in channel order.
    pub(crate) fn scheduler_names(&self) -> impl Iterator<Item = &str> {
        self.controllers.iter().map(Controller::scheduler_name)
    }
}

impl<T: Snap> MemorySide<T> {
    /// Serializes the next request id, the in-flight reads (in request-id
    /// order) and every controller's state.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.next_request);
        w.put(&self.inflight);
        for ctrl in &self.controllers {
            ctrl.save_state(w)?;
        }
        Ok(())
    }

    /// Restores state saved by [`MemorySide::save_state`] into a memory side
    /// built from the same configuration and scheduler, whose requesters
    /// are threads `0..threads` (see [`Controller::restore_state`]).
    pub(crate) fn restore_state(
        &mut self,
        r: &mut SnapReader<'_>,
        threads: usize,
    ) -> Result<(), SnapError> {
        self.next_request = r.u64()?;
        self.inflight = r.get()?;
        for ctrl in &mut self.controllers {
            ctrl.restore_state(r, threads)?;
        }
        Ok(())
    }
}

/// Hits over total of the summed `(hits, total)` pairs.
fn hit_rate(pairs: impl Iterator<Item = (u64, u64)>) -> f64 {
    let (hits, total) = pairs.fold((0, 0), |(h, t), (h2, t2)| (h + h2, t + t2));
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// The report of the monitor [`MemorySide::observe`] put in this slot of
/// `channel`'s fan-out.
fn report(channel: usize, sink: Option<Box<dyn EventSink>>) -> MonitorReport {
    let Some(Ok(mon)) = sink.map(downcast_sink::<Monitor>) else {
        unreachable!("observe pushes a monitor into this slot");
    };
    MonitorReport {
        channel,
        summary: mon.summary(),
        alarms: mon.alarms().iter().map(ToString::to_string).collect(),
        trigger_counts: mon
            .trigger_counts()
            .into_iter()
            .map(|(n, s, k)| (n.to_owned(), s, k))
            .collect(),
        events: mon.events,
        ok: mon.ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedulerKind;

    fn memory(cfg: &SimConfig) -> MemorySide<u64> {
        MemorySide::new(cfg, &|cfg| SchedulerKind::FrFcfs.build(cfg))
    }

    /// Per channel, whether the controller checks the DRAM protocol: with
    /// the observers detached, a checker is the only attachment that makes
    /// a controller refuse to snapshot.
    fn checks_protocol(mut memory: MemorySide<u64>) -> Vec<bool> {
        let _ = memory.detach();
        memory.controllers.iter().map(|c| !c.snapshot_supported()).collect()
    }

    #[test]
    fn invariant_checking_attaches_the_protocol_checker() {
        let cfg = SimConfig::for_cores(16);
        let mut spec_only = memory(&cfg);
        spec_only.observe(false, Some(&parbs_monitor::prelude::invariants()), Vec::new());
        assert_eq!(checks_protocol(spec_only), [false; 4], "a spec is a monitor only");

        let mut checked = memory(&cfg);
        checked.observe(true, None, Vec::new());
        let detached = checked.detach();
        assert_eq!(detached.invariants.len(), 4, "an invariants monitor per channel");
        assert!(detached.monitors.is_empty() && detached.channel0.is_empty());
        assert_eq!(checks_protocol(checked), [true; 4], "and the protocol checker");

        let configured = memory(&SimConfig { check_protocol: true, ..cfg });
        assert_eq!(checks_protocol(configured), [true; 4]);
    }

    #[test]
    fn reads_carry_their_value_to_completion() {
        let mut memory = memory(&SimConfig::for_cores(4));
        for (thread, line, kind) in [(0, 7, RequestKind::Read), (1, 9, RequestKind::Write)] {
            let (addr, carry) = (memory.decode(line), Some(line * 10));
            assert!(memory.enqueue(ThreadId(thread), addr, kind, 0, Default::default(), carry));
        }
        assert_eq!(memory.inflight.len(), 1, "only the read is tracked");
        let mut delivered = Vec::new();
        let mut now = 0;
        while memory.reads_in_flight() {
            memory.tick(now, |carry, c| delivered.push((carry, c.thread)));
            now += 1;
        }
        assert_eq!(delivered, [(70, ThreadId(0))]);
        assert_eq!(memory.reads_completed(), 1);
        assert_eq!(memory.read_latency().count(), 1);
    }
}
