//! Open-loop datacenter-flow frontend: a [`FlowSource`] emits requests for
//! tens of thousands of short-lived requesters instead of a handful of
//! long-lived cores.
//!
//! The model follows the standard flow-level traffic shape used in
//! datacenter network and storage studies: flows arrive by a Poisson
//! process, flow sizes are bounded-Pareto (heavy-tailed — most flows tiny,
//! a few huge), and each flow issues its requests back-to-back at a fixed
//! per-request gap. A flow maps to one DRAM **thread id**, so flow size
//! plays the role of per-thread bank load and the scheduler's fairness
//! machinery sees each flow as a distinct (usually short-lived) thread.
//!
//! Determinism: every random draw (size, base address, inter-arrival gap)
//! happens at **spawn time**, in arrival order, from one seeded generator.
//! The emitted request sequence therefore depends only on the config — not
//! on poll cadence, memory latency, or worker-thread count.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use parbs_dram::{RequestKind, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::source::{RequestSource, SourcedRequest};

/// A bounded-Pareto distribution over `min..=max` with shape `alpha`.
///
/// Heavy-tailed but with a hard cap, so a single elephant flow cannot make
/// a bounded experiment unbounded. Sampling is by inverse CDF:
/// `x = L * (1 - u * (1 - (L/H)^alpha))^(-1/alpha)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    /// Tail shape; smaller means heavier tail. Typical flow-size fits use
    /// 1.1–1.3.
    pub alpha: f64,
    /// Smallest value (inclusive), in requests.
    pub min: u64,
    /// Largest value (inclusive), in requests.
    pub max: u64,
}

impl BoundedPareto {
    /// Maps a uniform draw `u` in `[0, 1)` to a flow size. Monotone in `u`.
    #[must_use]
    pub fn sample(&self, u: f64) -> u64 {
        let l = self.min.max(1) as f64;
        let h = self.max.max(self.min.max(1)) as f64;
        let ratio = (l / h).powf(self.alpha);
        let x = l * (1.0 - u * (1.0 - ratio)).powf(-1.0 / self.alpha);
        (x.round() as u64).clamp(self.min.max(1), self.max.max(self.min.max(1)))
    }
}

/// Parameters of a [`FlowSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// Total number of flows the source spawns over its lifetime. Each flow
    /// gets its own thread id in `0..requesters`, so this is also the
    /// thread-id space the memory system must tolerate.
    pub requesters: usize,
    /// Mean flow arrivals per DRAM cycle (Poisson process). `0.002` means
    /// one new flow every 500 cycles on average — about half the service
    /// capacity of one DDR2-800 channel at the default size distribution,
    /// the moderate-load regime an open-loop comparison wants.
    pub arrival_rate: f64,
    /// Flow size distribution, in requests per flow.
    pub size: BoundedPareto,
    /// Cycles between consecutive request issues within one flow.
    pub request_gap: u64,
    /// Number of distinct cache lines flows draw base addresses from.
    /// Consecutive requests of a flow walk consecutive lines from its base,
    /// which the address mapper spreads across banks — flow size ≈ the bank
    /// load that flow presents.
    pub line_space: u64,
    /// RNG seed; two sources with equal configs emit identical traffic.
    pub seed: u64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            requesters: 1024,
            arrival_rate: 0.002,
            size: BoundedPareto { alpha: 1.2, min: 2, max: 256 },
            request_gap: 4,
            line_space: 1 << 24,
            seed: 1,
        }
    }
}

/// A flow that finished: everything needed for flow-completion-time and
/// slowdown metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedFlow {
    /// The thread id the flow ran under.
    pub thread: ThreadId,
    /// Cycle the flow arrived (first request became issuable).
    pub arrival: u64,
    /// Cycle the flow's last read completed.
    pub finish: u64,
    /// Requests the flow issued.
    pub size: u64,
}

impl CompletedFlow {
    /// Flow completion time in cycles.
    #[must_use]
    pub fn fct(&self) -> u64 {
        self.finish.saturating_sub(self.arrival)
    }
}

/// Per-flow live state. Removed from [`FlowSource`]'s map the moment the
/// flow's last read completes, so the map tracks *concurrent* flows, not
/// every flow that ever ran.
#[derive(Debug, Clone, Copy)]
struct FlowState {
    /// Requests not yet emitted.
    remaining: u64,
    /// Emitted reads whose completions are still outstanding.
    outstanding: u64,
    /// Line address of the next request.
    next_line: u64,
    /// Spawn cycle.
    arrival: u64,
    /// Total size, for the completion record.
    size: u64,
}

/// Open-loop Poisson/bounded-Pareto flow generator implementing
/// [`RequestSource`].
pub struct FlowSource {
    cfg: FlowConfig,
    rng: StdRng,
    /// Live flows, keyed by thread id: the same sparse per-thread map the
    /// schedulers keep for this population. Only point lookups reach it;
    /// the issue heap orders the work.
    flows: HashMap<ThreadId, FlowState>,
    /// Pending request-issue events: `(cycle, flow id)`, min-first. One
    /// entry per live flow that still has requests to emit, so each emit is
    /// `O(log concurrent-flows)` regardless of `requesters`.
    issue: BinaryHeap<Reverse<(u64, usize)>>,
    /// Arrival cycle of the next unspawned flow.
    next_arrival: u64,
    /// Flows spawned so far; also the next flow's thread id.
    spawned: usize,
    /// Flows finished, awaiting [`FlowSource::take_completed`].
    completed: Vec<CompletedFlow>,
    /// Running count of all finished flows (survives `take_completed`).
    finished: usize,
}

impl FlowSource {
    /// Builds the source; the first flow arrives after one exponential
    /// inter-arrival gap from cycle 0.
    #[must_use]
    pub fn new(cfg: FlowConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let first = exp_gap(&mut rng, cfg.arrival_rate);
        FlowSource {
            cfg,
            rng,
            flows: HashMap::new(),
            issue: BinaryHeap::new(),
            next_arrival: first,
            spawned: 0,
            completed: Vec::new(),
            finished: 0,
        }
    }

    /// Flows currently in flight (spawned, not yet fully completed).
    #[must_use]
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Flows spawned so far.
    #[must_use]
    pub fn spawned(&self) -> usize {
        self.spawned
    }

    /// Flows fully completed so far.
    #[must_use]
    pub fn finished(&self) -> usize {
        self.finished
    }

    /// Drains the records of flows that completed since the last call.
    pub fn take_completed(&mut self) -> Vec<CompletedFlow> {
        std::mem::take(&mut self.completed)
    }

    fn spawn_flow(&mut self, arrival: u64) {
        let id = self.spawned;
        self.spawned += 1;
        let size = self.cfg.size.sample(self.rng.gen::<f64>());
        let base = self.rng.gen::<f64>();
        let next_line = (base * self.cfg.line_space.max(1) as f64) as u64;
        self.flows.insert(
            ThreadId(id),
            FlowState { remaining: size, outstanding: 0, next_line, arrival, size },
        );
        self.issue.push(Reverse((arrival, id)));
        // Draw the next inter-arrival now, in arrival order, so the spawn
        // schedule never depends on when the driver polls.
        self.next_arrival = arrival + exp_gap(&mut self.rng, self.cfg.arrival_rate);
    }
}

/// One exponential inter-arrival gap in whole cycles (at least 1).
fn exp_gap(rng: &mut StdRng, rate: f64) -> u64 {
    let rate = rate.max(1e-12);
    let u: f64 = rng.gen();
    let gap = (-(1.0 - u).ln() / rate).ceil();
    (gap as u64).max(1)
}

impl RequestSource for FlowSource {
    fn requesters(&self) -> usize {
        self.cfg.requesters
    }

    fn poll(&mut self, now: u64, out: &mut Vec<SourcedRequest>) {
        while self.spawned < self.cfg.requesters && self.next_arrival <= now {
            let at = self.next_arrival;
            self.spawn_flow(at);
        }
        while let Some(&Reverse((when, id))) = self.issue.peek() {
            if when > now {
                break;
            }
            self.issue.pop();
            let cfg_gap = self.cfg.request_gap;
            let Some(flow) = self.flows.get_mut(&ThreadId(id)) else { continue };
            debug_assert!(flow.remaining > 0, "issue events exist only while requests remain");
            out.push(SourcedRequest {
                thread: ThreadId(id),
                line: flow.next_line,
                kind: RequestKind::Read,
                token: id as u64,
            });
            flow.next_line += 1;
            flow.remaining -= 1;
            flow.outstanding += 1;
            if flow.remaining > 0 {
                self.issue.push(Reverse((when + cfg_gap.max(1), id)));
            }
        }
    }

    /// The earlier of the next flow arrival and the next request issue.
    fn next_event(&self, now: u64) -> u64 {
        let arrival = if self.spawned < self.cfg.requesters { self.next_arrival } else { u64::MAX };
        let issue = self.issue.peek().map_or(u64::MAX, |&Reverse((when, _))| when);
        arrival.min(issue).max(now)
    }

    fn on_complete(&mut self, token: u64, now: u64) {
        let id = ThreadId(token as usize);
        let done = {
            let Some(flow) = self.flows.get_mut(&id) else { return };
            flow.outstanding = flow.outstanding.saturating_sub(1);
            flow.outstanding == 0 && flow.remaining == 0
        };
        if done {
            if let Some(flow) = self.flows.remove(&id) {
                self.completed.push(CompletedFlow {
                    thread: id,
                    arrival: flow.arrival,
                    finish: now,
                    size: flow.size,
                });
                self.finished += 1;
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.spawned == self.cfg.requesters && self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FlowConfig {
        FlowConfig {
            requesters: 64,
            arrival_rate: 0.05,
            size: BoundedPareto { alpha: 1.2, min: 2, max: 32 },
            request_gap: 2,
            line_space: 1 << 16,
            seed: 7,
        }
    }

    /// Runs the source against an immediate-completion memory, returning
    /// the full emission trace.
    fn drain(cfg: FlowConfig, poll_stride: u64) -> (Vec<SourcedRequest>, Vec<CompletedFlow>) {
        let mut src = FlowSource::new(cfg);
        let mut trace = Vec::new();
        let mut out = Vec::new();
        let mut now = 0;
        while !src.exhausted() {
            assert!(now < 10_000_000, "source must terminate");
            src.poll(now, &mut out);
            for r in out.drain(..) {
                trace.push(r);
                src.on_complete(r.token, now);
            }
            now += poll_stride;
        }
        let completed = src.take_completed();
        (trace, completed)
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_tail() {
        let d = BoundedPareto { alpha: 1.2, min: 2, max: 256 };
        assert_eq!(d.sample(0.0), 2);
        assert_eq!(d.sample(0.999_999_9), 256);
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<u64> = (0..4_000).map(|_| d.sample(rng.gen())).collect();
        assert!(samples.iter().all(|&s| (2..=256).contains(&s)));
        let small = samples.iter().filter(|&&s| s <= 8).count();
        let huge = samples.iter().filter(|&&s| s >= 128).count();
        assert!(small > samples.len() / 2, "most flows are mice: {small}");
        assert!(huge > 0, "the tail produces elephants");
    }

    #[test]
    fn flows_complete_and_cover_the_id_space() {
        let cfg = small_cfg();
        let (trace, completed) = drain(cfg, 1);
        assert_eq!(completed.len(), cfg.requesters);
        let total: u64 = completed.iter().map(|f| f.size).sum();
        assert_eq!(trace.len() as u64, total, "one request per unit of flow size");
        // Thread ids are exactly 0..requesters, each finishing once.
        let mut ids: Vec<usize> = completed.iter().map(|f| f.thread.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..cfg.requesters).collect::<Vec<_>>());
        for f in &completed {
            assert!(f.finish >= f.arrival);
            assert!(f.fct() >= (f.size - 1) * cfg.request_gap, "gap bounds the best-case FCT");
        }
    }

    #[test]
    fn emission_is_independent_of_poll_cadence() {
        let cfg = small_cfg();
        let (a, _) = drain(cfg, 1);
        let (b, _) = drain(cfg, 7);
        assert_eq!(a, b, "coarser polling reorders nothing");
    }

    #[test]
    fn seeds_change_traffic_but_configs_reproduce_it() {
        let cfg = small_cfg();
        let (a, _) = drain(cfg, 1);
        let (same, _) = drain(cfg, 1);
        assert_eq!(a, same);
        let (other, _) = drain(FlowConfig { seed: 8, ..cfg }, 1);
        assert_ne!(a, other);
    }

    #[test]
    fn live_state_tracks_concurrent_flows_only() {
        let mut src = FlowSource::new(FlowConfig { requesters: 10_000, ..small_cfg() });
        let mut out = Vec::new();
        // Let arrivals pile up without completing anything for a while...
        for now in 0..2_000 {
            src.poll(now, &mut out);
        }
        let live = src.active_flows();
        assert!(live > 0 && live <= src.spawned());
        // ...then complete everything emitted so far: the table shrinks to
        // just the flows still holding unemitted requests.
        for r in out.drain(..) {
            src.on_complete(r.token, 2_000);
        }
        assert!(src.active_flows() <= live);
        assert_eq!(src.finished() + src.active_flows(), src.spawned());
    }
}
