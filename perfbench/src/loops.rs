//! Bench-side copies of the two cycle loops, `System::tick` (with
//! `begin_run`/`step_cycle`/`finish_run`) and `drive_source`, rebuilt from
//! public calls only. They produce the same results as the originals (the
//! identity guard checks this on every traced run) while timing each call
//! into `Controller::tick` and `Core::tick` and counting per-cycle work,
//! which splits host time between the controller, the core model and the
//! routing code that connects them.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use parbs_cpu::{Core, InstructionStream, MissId};
use parbs_dram::{
    AddressMapper, BlpTracker, Completion, Controller, LineAddr, Request, RequestKind, ThreadId,
    DRAM_CYCLE,
};
use parbs_metrics::LatencyHistogram;
use parbs_monitor::{Monitor, Severity, Spec};
use parbs_obs::{downcast_sink, FanoutSink};
use parbs_sim::{RunResult, SchedulerKind, SimConfig, SourceDriveResult, ThreadRunStats};
use parbs_workloads::RequestSource;

use crate::timed::{Tick, TimedScheduler, TimedSink, TimedStream, Tracer};

fn timed_controller(cfg: &SimConfig, kind: &SchedulerKind, tracer: &Rc<Tracer>) -> Controller {
    let sched = Box::new(TimedScheduler::new(kind.build(cfg), Rc::clone(tracer)));
    if cfg.check_protocol {
        Controller::with_checker(cfg.dram.clone(), sched)
    } else {
        Controller::new(cfg.dram.clone(), sched)
    }
}

/// Per-cycle counters shared by both loops: DRAM-cycle read-queue samples
/// and the command count a quiet cycle must leave unchanged.
fn after_ctrl_ticks(controllers: &[Controller], now: u64, tracer: &Tracer) -> u64 {
    if now.is_multiple_of(DRAM_CYCLE) {
        let queued: usize = controllers.iter().map(|c| c.reads().len()).sum();
        Tracer::count(&tracer.read_q_sum, queued as u64);
        Tracer::count(&tracer.read_q_samples, controllers.len() as u64);
    }
    controllers.iter().map(|c| c.stats().commands_issued).sum()
}

fn finish_counters(controllers: &[Controller], tracer: &Tracer) {
    for c in controllers {
        Tracer::count(&tracer.commands, c.stats().commands_issued);
        Tracer::count(&tracer.refreshes, c.stats().refreshes);
    }
}

/// The closed-loop CMP system of `parbs_sim::System`, with decorated
/// schedulers and instruction streams and a timed cycle loop.
pub struct TracedSystem {
    cfg: SimConfig,
    cores: Vec<Core>,
    controllers: Vec<Controller>,
    mapper: AddressMapper,
    next_request: u64,
    inflight: HashMap<u64, (usize, MissId)>,
    prev_stall: Vec<u64>,
    blp: Vec<BlpTracker>,
    thread_worst_case: Vec<u64>,
    completions: Vec<Completion>,
    tracer: Rc<Tracer>,
}

impl TracedSystem {
    /// Builds the system `System::new(cfg, streams, kind)` would, with every
    /// stream and every channel's scheduler wrapped in a timing decorator.
    #[must_use]
    pub fn new(
        cfg: SimConfig,
        streams: Vec<Box<dyn InstructionStream>>,
        kind: &SchedulerKind,
        tracer: &Rc<Tracer>,
    ) -> Self {
        assert_eq!(streams.len(), cfg.cores, "one stream per core");
        let cores = streams
            .into_iter()
            .map(|s| Core::new(cfg.core, Box::new(TimedStream::new(s, Rc::clone(tracer)))))
            .collect();
        let controllers =
            (0..cfg.dram.channels()).map(|_| timed_controller(&cfg, kind, tracer)).collect();
        let n = cfg.cores;
        TracedSystem {
            cores,
            controllers,
            mapper: cfg.dram.mapper(),
            next_request: 0,
            inflight: HashMap::new(),
            prev_stall: vec![0; n],
            blp: vec![BlpTracker::new(); n],
            thread_worst_case: vec![0; n],
            completions: Vec::new(),
            tracer: Rc::clone(tracer),
            cfg,
        }
    }

    /// Runs until every thread has committed the target instruction count
    /// (or `max_cycles` elapse), as `System::run` does.
    pub fn run(&mut self) -> RunResult {
        let n = self.cores.len();
        let target = self.cfg.target_instructions;
        let mut snapshots: Vec<Option<ThreadRunStats>> = vec![None; n];
        let mut remaining = n;
        let mut now = 0u64;
        let mut timed_out = false;
        let t0 = self.tracer.enter_loop();
        while remaining > 0 {
            if now >= self.cfg.max_cycles {
                timed_out = true;
                break;
            }
            self.tick(now);
            for (t, slot) in snapshots.iter_mut().enumerate() {
                if slot.is_none() && self.cores[t].stats().committed >= target {
                    *slot = Some(self.snapshot_at(t, now + 1));
                    remaining -= 1;
                }
            }
            now += 1;
        }
        self.tracer.leave_loop(t0);
        Tracer::count(&self.tracer.cycles, now);
        finish_counters(&self.controllers, &self.tracer);
        let threads: Vec<ThreadRunStats> = (0..n)
            .map(|t| snapshots[t].take().unwrap_or_else(|| self.snapshot_at(t, now.max(1))))
            .collect();
        let (hits, total) = self
            .controllers
            .iter()
            .map(|c| {
                let s = c.stats();
                (s.row_hits, s.row_hits + s.row_closed + s.row_conflicts)
            })
            .fold((0, 0), |(h, t), (h2, t2)| (h + h2, t + t2));
        let mut read_latency = LatencyHistogram::new();
        for c in &self.controllers {
            read_latency.merge(&c.stats().read_latency);
        }
        RunResult {
            worst_case_latency: self.thread_worst_case.iter().copied().max().unwrap_or(0),
            threads,
            cycles: now,
            row_hit_rate: if total == 0 { 0.0 } else { hits as f64 / total as f64 },
            timed_out,
            read_latency,
        }
    }

    fn snapshot_at(&self, t: usize, cycles: u64) -> ThreadRunStats {
        let s = self.cores[t].stats();
        let (hits, total) = self
            .controllers
            .iter()
            .map(|c| {
                let cat = c.stats().thread_read_categories.get(t).copied().unwrap_or((0, 0, 0));
                (cat.0, cat.0 + cat.1 + cat.2)
            })
            .fold((0u64, 0u64), |(h, n), (h2, n2)| (h + h2, n + n2));
        let vals: Vec<f64> = self
            .controllers
            .iter()
            .map(|c| c.stats().thread_blp_average(ThreadId(t)))
            .filter(|v| *v > 0.0)
            .collect();
        ThreadRunStats {
            instructions: s.committed,
            cycles,
            mem_stall_cycles: s.mem_stall_cycles,
            dram_reads: s.dram_reads,
            dram_writes: s.dram_writes,
            blp: if vals.is_empty() { 0.0 } else { vals.iter().sum::<f64>() / vals.len() as f64 },
            read_hit_rate: if total == 0 { 0.0 } else { hits as f64 / total as f64 },
            worst_case_latency: self.thread_worst_case[t],
        }
    }

    fn tick(&mut self, now: u64) {
        let tracer = &*self.tracer;
        let commands_before: u64 = self.controllers.iter().map(|c| c.stats().commands_issued).sum();
        for ctrl in &mut self.controllers {
            tracer.tick(Tick::Ctrl, || ctrl.tick(now, &mut self.completions));
        }
        let commands_after = after_ctrl_ticks(&self.controllers, now, tracer);
        for c in self.completions.drain(..) {
            if c.kind == RequestKind::Read {
                if let Some((core, miss)) = self.inflight.remove(&c.request.0) {
                    self.cores[core].complete_read(miss);
                    let wc = &mut self.thread_worst_case[c.thread.0];
                    *wc = (*wc).max(c.latency());
                }
            }
        }
        let committed_before: u64 = self.cores.iter().map(|c| c.stats().committed).sum();
        for core in &mut self.cores {
            tracer.tick(Tick::Core, || core.tick(now));
        }
        let committed_after: u64 = self.cores.iter().map(|c| c.stats().committed).sum();
        let requests_before = self.next_request;
        for t in 0..self.cores.len() {
            self.issue_memory_ops(t, now);
        }
        if commands_after == commands_before
            && committed_after == committed_before
            && self.next_request == requests_before
        {
            Tracer::count(&self.tracer.quiet_cycles, 1);
        }
        if now.is_multiple_of(DRAM_CYCLE) {
            let stalls: Vec<u64> = self
                .cores
                .iter()
                .enumerate()
                .map(|(t, c)| {
                    let total = c.stats().mem_stall_cycles;
                    let delta = total - self.prev_stall[t];
                    self.prev_stall[t] = total;
                    delta
                })
                .collect();
            for ctrl in &mut self.controllers {
                ctrl.report_stall_cycles(&stalls, now);
            }
            for t in 0..self.cores.len() {
                let busy: usize = self
                    .controllers
                    .iter()
                    .map(|c| c.channel().banks_servicing_thread(ThreadId(t), now))
                    .sum();
                self.blp[t].record(busy);
            }
        }
    }

    fn issue_memory_ops(&mut self, t: usize, now: u64) {
        while let Some((line, miss)) = self.cores[t].pending_read() {
            let addr = self.mapper.decode(line);
            let ctrl = &mut self.controllers[addr.channel];
            if !ctrl.can_accept_read() {
                break;
            }
            let mut req =
                Request::new(self.next_request, ThreadId(t), addr, RequestKind::Read, now);
            req.priority_level = self.cfg.priority_of(t).period().map(|p| p as u8);
            ctrl.try_enqueue(req).expect("capacity was checked");
            self.inflight.insert(self.next_request, (t, miss));
            self.next_request += 1;
            self.cores[t].read_issued(miss);
        }
        while let Some(line) = self.cores[t].pending_write() {
            let addr = self.mapper.decode(line);
            let ctrl = &mut self.controllers[addr.channel];
            if !ctrl.can_accept_write() {
                break;
            }
            let mut req =
                Request::new(self.next_request, ThreadId(t), addr, RequestKind::Write, now);
            req.priority_level = self.cfg.priority_of(t).period().map(|p| p as u8);
            ctrl.try_enqueue(req).expect("capacity was checked");
            self.next_request += 1;
            self.cores[t].write_issued();
        }
    }
}

/// One request the open-loop drive holds back for a full channel.
struct Buffered {
    thread: ThreadId,
    addr: LineAddr,
    kind: RequestKind,
    token: u64,
}

/// `parbs_sim::drive_source` without invariant checking, with decorated
/// schedulers, the `spec` monitor wrapped in a timing decorator, and a
/// timed cycle loop. Also returns the number of error-severity alarms.
pub fn traced_drive(
    cfg: &SimConfig,
    kind: &SchedulerKind,
    source: &mut dyn RequestSource,
    spec: Option<&Spec>,
    tracer: &Rc<Tracer>,
) -> (SourceDriveResult, usize) {
    let mut controllers: Vec<Controller> =
        (0..cfg.dram.channels()).map(|_| timed_controller(cfg, kind, tracer)).collect();
    if let Some(spec) = spec {
        for ctrl in &mut controllers {
            ctrl.scheduler_mut().set_observing(true);
            let mut fan = FanoutSink::new();
            fan.push(Box::new(TimedSink::new(spec.monitor(), Rc::clone(tracer))));
            ctrl.set_event_sink(Box::new(fan));
        }
    }
    let mapper = cfg.dram.mapper();
    let mut backlogs: Vec<VecDeque<Buffered>> =
        (0..controllers.len()).map(|_| VecDeque::new()).collect();
    let mut inflight: HashMap<u64, u64> = HashMap::new();
    let mut completions = Vec::new();
    let mut emitted = Vec::new();
    let mut next_request: u64 = 0;
    let mut peak_backlog = 0usize;
    let mut now = 0u64;
    let mut timed_out = false;

    let t0 = tracer.enter_loop();
    loop {
        let commands_before: u64 = controllers.iter().map(|c| c.stats().commands_issued).sum();
        for ctrl in &mut controllers {
            tracer.tick(Tick::Ctrl, || ctrl.tick(now, &mut completions));
        }
        let commands_after = after_ctrl_ticks(&controllers, now, tracer);
        for c in completions.drain(..) {
            if c.kind == RequestKind::Read {
                if let Some(token) = inflight.remove(&c.request.0) {
                    source.on_complete(token, now);
                }
            }
        }
        source.poll(now, &mut emitted);
        for r in emitted.drain(..) {
            let addr = mapper.decode(r.line);
            backlogs[addr.channel].push_back(Buffered {
                thread: r.thread,
                addr,
                kind: r.kind,
                token: r.token,
            });
        }
        let requests_before = next_request;
        for (ch, backlog) in backlogs.iter_mut().enumerate() {
            let ctrl = &mut controllers[ch];
            while let Some(front) = backlog.front() {
                let ok = match front.kind {
                    RequestKind::Read => ctrl.can_accept_read(),
                    RequestKind::Write => ctrl.can_accept_write(),
                };
                if !ok {
                    break;
                }
                let b = backlog.pop_front().expect("front exists");
                let req = Request::new(next_request, b.thread, b.addr, b.kind, now);
                ctrl.try_enqueue(req).expect("capacity was checked");
                if b.kind == RequestKind::Read {
                    inflight.insert(next_request, b.token);
                }
                next_request += 1;
            }
        }
        if commands_after == commands_before && next_request == requests_before {
            Tracer::count(&tracer.quiet_cycles, 1);
        }
        peak_backlog = peak_backlog.max(backlogs.iter().map(VecDeque::len).sum());
        now += 1;
        let drained = backlogs.iter().all(VecDeque::is_empty) && inflight.is_empty();
        if source.exhausted() && drained {
            break;
        }
        if now >= cfg.max_cycles {
            timed_out = true;
            break;
        }
    }
    tracer.leave_loop(t0);
    Tracer::count(&tracer.cycles, now);
    finish_counters(&controllers, tracer);

    let mut read_latency = LatencyHistogram::new();
    let mut reads_completed = 0;
    for ctrl in &controllers {
        read_latency.merge(&ctrl.stats().read_latency);
        reads_completed += ctrl.stats().reads_completed;
    }
    let mut monitor_alarms = 0;
    let mut error_alarms = 0;
    for ctrl in &mut controllers {
        let Some(sink) = ctrl.take_event_sink() else { continue };
        let Ok(fan) = downcast_sink::<FanoutSink>(sink) else { continue };
        for child in fan.into_sinks() {
            if let Ok(mon) = downcast_sink::<TimedSink<Monitor>>(child) {
                let alarms = mon.inner.alarms();
                monitor_alarms += alarms.len();
                error_alarms += alarms.iter().filter(|a| a.severity == Severity::Error).count();
            }
        }
    }
    let drive = SourceDriveResult {
        cycles: now,
        timed_out,
        reads_completed,
        read_latency,
        peak_backlog,
        invariant_violations: 0,
        monitor_alarms,
    };
    (drive, error_alarms)
}
