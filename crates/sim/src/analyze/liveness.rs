//! Liveness model checking: per-scheduler starvation bounds.
//!
//! Where the differential checker ([`super::run_differential`]) proves
//! *safety* (no illegal command ever issues), this module decides a
//! *liveness* question: **can a request starve forever?** For each
//! scheduler's declared [`LivenessContract`] it exhaustively explores a
//! small abstract model of the controller + scheduling policy and either
//!
//! - proves a concrete bound — "every enqueued request is serviced within
//!   `K` other services" (and reports the tightest such `K`, plus a
//!   conservative conversion to DRAM cycles) — or
//! - emits a minimal *lasso* witness (a stem reaching a starvation state
//!   plus a cycle that repeats forever, up to a relabeling of banks, rows
//!   and adversary threads, while the victim stays queued), demonstrating
//!   unbounded starvation.
//!
//! # The abstract model
//!
//! The model is victim-centric: one distinguished *victim* request (thread
//! 0) is injected once, adversary threads inject freely, and the scheduler
//! serves one request per `Serve` step. A state is the ordered request
//! queue (thread, bank, row, marked), the per-bank open rows, the victim's
//! phase, and the policy's bookkeeping (streaks, blacklists, attained /
//! wait counters — all saturating, which closes the state space). The
//! queue capacity bounds the space, so a breadth-first fixpoint is an
//! *exhaustive* exploration. With the space closed, one Tarjan pass over
//! the victim-queued subgraph decides: an acyclic subgraph proves
//! boundedness (the longest `Serve`-counting path is the tight bound), and
//! any cycle is a genuine infinite starvation. A cycle of canonical states
//! returns to its entry up to a relabeling of banks, rows and adversary
//! threads, and relabelings never move the victim's queue slot, so the
//! same request stays queued forever.
//!
//! Service order inside each policy is decided only by *relations* (row
//! hit against the open row, marked bit, per-thread saturating counters)
//! and by age — never by raw bank/row/thread ids. That label-equivariance
//! is what makes the symmetry quotient of [`super::symmetry`] sound: states
//! are deduplicated by canonical form, and the raw state count is
//! recovered exactly from orbit sizes.
//!
//! Witness traces replay as [`parbs_obs::Event`] streams
//! ([`Witness::to_events`]) so the `prelude:invariants` monitor spec can
//! cross-validate them: the model's batching policy must satisfy the same
//! four PAR-BS invariants the simulator is held to.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use parbs_dram::{LivenessPolicy, MemoryScheduler, StarvationClaim, TimingParams, DRAM_CYCLE};
use parbs_obs::{CmdKind, Event, ServiceClass};

use crate::analyze::symmetry::{canonicalize, NONE};

/// Hard cap on canonical states before an exploration gives up.
const MAX_STATES: usize = 4_000_000;

/// Geometry and exploration horizon for the liveness checker. Service
/// bounds convert to cycles at DDR2-800.
#[derive(Debug, Clone)]
pub struct LivenessConfig {
    /// Banks in the modeled channel (1..=8).
    pub banks: usize,
    /// Rows per bank (2..=8; two rows suffice to express hit vs conflict).
    pub rows: u8,
    /// Request-queue capacity; this closes the state space (2..=12).
    pub queue_capacity: usize,
    /// Adversary threads injecting alongside the victim (1..=4).
    pub adversary_threads: usize,
    /// Optional exploration-depth horizon (moves from the initial state).
    /// `None` runs to the fixpoint; boundedness proofs require the
    /// exploration to be closed, so horizons are for state-space surveys.
    pub max_depth: Option<u32>,
}

impl LivenessConfig {
    /// The default tiny geometry: 2 banks × 2 rows, queue capacity 3, two
    /// adversary threads, explored to the fixpoint. Two adversaries are the
    /// fewest that can take turns, which a claim about consecutive-service
    /// counting needs to be refutable.
    #[must_use]
    pub fn tiny() -> Self {
        LivenessConfig {
            banks: 2,
            rows: 2,
            queue_capacity: 3,
            adversary_threads: 2,
            max_depth: None,
        }
    }

    /// Rejects geometries outside the supported envelope.
    ///
    /// # Errors
    ///
    /// When any dimension is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=8).contains(&self.banks) {
            return Err(format!("banks must be 1..=8, got {}", self.banks));
        }
        if !(2..=8).contains(&self.rows) {
            return Err(format!("rows must be 2..=8, got {}", self.rows));
        }
        if !(2..=12).contains(&self.queue_capacity) {
            return Err(format!("queue capacity must be 2..=12, got {}", self.queue_capacity));
        }
        if !(1..=4).contains(&self.adversary_threads) {
            return Err(format!("adversary threads must be 1..=4, got {}", self.adversary_threads));
        }
        Ok(())
    }
}

/// One queued request in the abstract model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// Issuing thread (0 = victim).
    pub(crate) thread: u8,
    /// Target bank.
    pub(crate) bank: u8,
    /// Target row within the bank.
    pub(crate) row: u8,
    /// Marked into the current batch (batch-marking policies only).
    pub(crate) marked: bool,
}

/// Where the victim request is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VictimPhase {
    /// Not yet injected.
    NotArrived,
    /// In the queue, waiting — the phase starvation is decided over.
    Queued,
    /// Serviced; the state is terminal for the victim-centric question.
    Served,
}

/// Per-policy bookkeeping, saturating so the state space stays finite.
/// Unused fields stay at their zero values for policies that do not read
/// them, keeping the canonical encoding uniform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PolicyState {
    /// Thread served by the most recent `Serve` (blacklisting only;
    /// `NONE` = no service yet).
    pub(crate) last_served: u8,
    /// Consecutive services of `last_served` (saturating at the
    /// blacklist threshold).
    pub(crate) streak: u8,
    /// Per-thread boolean state (blacklisted bit).
    pub(crate) flags: Vec<bool>,
    /// Per-thread saturating counters (attained service or wait time).
    pub(crate) counters: Vec<u8>,
}

impl PolicyState {
    /// Fresh bookkeeping for `threads` threads.
    pub(crate) fn new(threads: usize) -> Self {
        PolicyState {
            last_served: NONE,
            streak: 0,
            flags: vec![false; threads],
            counters: vec![0; threads],
        }
    }
}

/// A full abstract controller state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ModelState {
    /// Queued requests in arrival order (age = index).
    pub(crate) queue: Vec<Slot>,
    /// Per-bank open row (`NONE` = precharged).
    pub(crate) open: Vec<u8>,
    /// The victim's phase.
    pub(crate) victim: VictimPhase,
    /// Policy bookkeeping.
    pub(crate) pol: PolicyState,
}

/// One transition of the abstract model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// An adversary thread enqueues a read.
    Inject {
        /// Injecting thread (1-based; 0 is the victim).
        thread: u8,
        /// Target bank.
        bank: u8,
        /// Target row.
        row: u8,
    },
    /// The victim's single request enqueues.
    InjectVictim {
        /// Target bank.
        bank: u8,
        /// Target row.
        row: u8,
    },
    /// The scheduler services one request (deterministic per policy).
    Serve,
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Move::Inject { thread, bank, row } => {
                write!(f, "inject t{thread} bank{bank} row{row}")
            }
            Move::InjectVictim { bank, row } => write!(f, "inject-victim bank{bank} row{row}"),
            Move::Serve => write!(f, "serve"),
        }
    }
}

fn initial(cfg: &LivenessConfig) -> ModelState {
    ModelState {
        queue: Vec::new(),
        open: vec![NONE; cfg.banks],
        victim: VictimPhase::NotArrived,
        pol: PolicyState::new(cfg.adversary_threads + 1),
    }
}

/// Clamps a contract parameter into the u8 counter range.
fn sat_u8(v: u32) -> u8 {
    v.min(250) as u8
}

/// The priority key of queue slot `i` — lexicographically larger wins, and
/// ties fall back to age (the scan keeps the earliest maximum). Keys only
/// read relations and counters, never raw ids: this is the
/// label-equivariance the symmetry quotient relies on.
fn slot_key(s: &ModelState, policy: &LivenessPolicy, i: usize) -> (u8, u8, u8) {
    let slot = &s.queue[i];
    let hit = u8::from(s.open[slot.bank as usize] == slot.row);
    let t = slot.thread as usize;
    match *policy {
        LivenessPolicy::Fifo => (0, 0, 0),
        LivenessPolicy::FrFcfs => (0, 0, hit),
        LivenessPolicy::BatchMarking { .. } => (u8::from(slot.marked), 0, hit),
        LivenessPolicy::Blacklist { .. } => (u8::from(!s.pol.flags[t]), 0, hit),
        LivenessPolicy::LeastAttained { saturation } => {
            (0, sat_u8(saturation) - s.pol.counters[t], hit)
        }
        LivenessPolicy::FairnessThreshold { threshold } => {
            let boosted = s.pol.counters[t] >= sat_u8(threshold);
            (u8::from(boosted), if boosted { s.pol.counters[t] } else { 0 }, hit)
        }
    }
}

/// What one `Serve` step did, for witness replay.
pub(crate) struct ServeOutcome {
    /// The state after the service.
    pub(crate) next: ModelState,
    /// Index of the served slot in the post-marking, pre-removal queue.
    pub(crate) index: usize,
    /// The served slot (with its post-marking `marked` bit).
    pub(crate) slot: Slot,
    /// Indices (same queue view) marked at this step's batch formation.
    pub(crate) newly_marked: Vec<usize>,
}

/// Applies one deterministic `Serve`: batch formation if the policy
/// batches and no marks remain, then highest-priority-oldest selection,
/// then policy bookkeeping.
pub(crate) fn serve_step(s: &ModelState, policy: &LivenessPolicy) -> Option<ServeOutcome> {
    if s.queue.is_empty() {
        return None;
    }
    let mut st = s.clone();
    let mut newly_marked = Vec::new();
    if let LivenessPolicy::BatchMarking { cap } = *policy {
        if !st.queue.iter().any(|x| x.marked) {
            // Form a batch: mark the oldest `cap` requests per
            // (thread, bank) — PAR-BS Rule 1.
            let mut counts: HashMap<(u8, u8), u32> = HashMap::new();
            for (i, slot) in st.queue.iter_mut().enumerate() {
                let c = counts.entry((slot.thread, slot.bank)).or_insert(0);
                if *c < cap {
                    *c += 1;
                    slot.marked = true;
                    newly_marked.push(i);
                }
            }
        }
    }
    let mut best = 0usize;
    for i in 1..st.queue.len() {
        if slot_key(&st, policy, i) > slot_key(&st, policy, best) {
            best = i;
        }
    }
    let slot = st.queue.remove(best);
    st.open[slot.bank as usize] = slot.row;
    let t = slot.thread as usize;
    match *policy {
        LivenessPolicy::Blacklist { threshold } => {
            let thr = sat_u8(threshold);
            if st.pol.last_served == slot.thread {
                st.pol.streak = st.pol.streak.saturating_add(1).min(thr);
            } else {
                st.pol.last_served = slot.thread;
                st.pol.streak = 1;
            }
            if st.pol.streak >= thr {
                st.pol.flags[t] = true;
            }
        }
        LivenessPolicy::LeastAttained { saturation } => {
            st.pol.counters[t] = st.pol.counters[t].saturating_add(1).min(sat_u8(saturation));
        }
        LivenessPolicy::FairnessThreshold { threshold } => {
            let thr = sat_u8(threshold);
            let mut queued = vec![false; st.pol.counters.len()];
            for q in &st.queue {
                queued[q.thread as usize] = true;
            }
            for (u, c) in st.pol.counters.iter_mut().enumerate() {
                if u != t && queued[u] {
                    *c = c.saturating_add(1).min(thr);
                }
            }
            st.pol.counters[t] = 0;
        }
        LivenessPolicy::Fifo | LivenessPolicy::FrFcfs | LivenessPolicy::BatchMarking { .. } => {}
    }
    if slot.thread == 0 {
        st.victim = VictimPhase::Served;
    }
    Some(ServeOutcome { next: st, index: best, slot, newly_marked })
}

/// All enabled transitions of `s`. Victim-served states are terminal: the
/// starvation question is settled there.
fn successors(
    s: &ModelState,
    cfg: &LivenessConfig,
    policy: &LivenessPolicy,
) -> Vec<(Move, ModelState)> {
    let mut out = Vec::new();
    if s.victim == VictimPhase::Served {
        return out;
    }
    if s.queue.len() < cfg.queue_capacity {
        for thread in 1..=cfg.adversary_threads as u8 {
            for bank in 0..cfg.banks as u8 {
                for row in 0..cfg.rows {
                    let mut n = s.clone();
                    n.queue.push(Slot { thread, bank, row, marked: false });
                    out.push((Move::Inject { thread, bank, row }, n));
                }
            }
        }
        if s.victim == VictimPhase::NotArrived {
            for bank in 0..cfg.banks as u8 {
                for row in 0..cfg.rows {
                    let mut n = s.clone();
                    n.queue.push(Slot { thread: 0, bank, row, marked: false });
                    n.victim = VictimPhase::Queued;
                    out.push((Move::InjectVictim { bank, row }, n));
                }
            }
        }
    }
    if let Some(o) = serve_step(s, policy) {
        out.push((Move::Serve, o.next));
    }
    out
}

/// The explored quotient graph: one representative member per canonical
/// state, with BFS parents for minimal-stem reconstruction. A stored
/// representative is always the exact member produced by its parent edge,
/// so parent chains replay concretely from the initial state.
pub(crate) struct Exploration {
    pub(crate) reps: Vec<ModelState>,
    pub(crate) index: HashMap<Vec<u8>, u32>,
    pub(crate) parent: Vec<u32>,
    pub(crate) parent_move: Vec<Move>,
    pub(crate) depth: Vec<u32>,
    pub(crate) raw_states: u64,
    pub(crate) closed: bool,
}

/// Breadth-first fixpoint over canonical states.
pub(crate) fn explore(policy: &LivenessPolicy, cfg: &LivenessConfig) -> Exploration {
    let init = initial(cfg);
    let (key, orbit) = canonicalize(&init, cfg);
    let mut ex = Exploration {
        reps: vec![init],
        index: HashMap::new(),
        parent: vec![u32::MAX],
        parent_move: vec![Move::Serve],
        depth: vec![0],
        raw_states: orbit,
        closed: true,
    };
    ex.index.insert(key, 0);
    let mut frontier: VecDeque<u32> = VecDeque::from([0]);
    while let Some(i) = frontier.pop_front() {
        let state = ex.reps[i as usize].clone();
        let d = ex.depth[i as usize];
        let at_horizon = cfg.max_depth.is_some_and(|m| d >= m);
        for (mv, next) in successors(&state, cfg, policy) {
            let (key, orbit) = canonicalize(&next, cfg);
            if ex.index.contains_key(&key) {
                continue;
            }
            if at_horizon || ex.reps.len() >= MAX_STATES {
                ex.closed = false;
                continue;
            }
            let id = ex.reps.len() as u32;
            ex.index.insert(key, id);
            ex.reps.push(next);
            ex.parent.push(i);
            ex.parent_move.push(mv);
            ex.depth.push(d + 1);
            ex.raw_states += orbit;
            frontier.push_back(id);
        }
    }
    ex
}

fn victim_queued(s: &ModelState) -> bool {
    s.victim == VictimPhase::Queued
}

/// What one pass over the victim-queued subgraph decided.
enum Decision {
    /// No cycle: `memo[i]` is the most `Serve` steps from victim-queued
    /// state `i` up to and including the victim's own service, and
    /// `best[i]` the successor that realizes it (the first in move order).
    Bounded { memo: Vec<u32>, best: Vec<u32> },
    /// A starvation cycle: `entry` is the on-cycle state of least BFS
    /// depth (lowest id on ties), and `cycle` lists the states of the
    /// shortest cycle through it, from the first hop back to `entry`.
    Lasso { entry: u32, cycle: Vec<u32> },
}

/// Decides a closed exploration. Each victim-queued state's successor ids
/// are computed once, and one iterative Tarjan pass splits the
/// victim-queued subgraph into strongly connected components. A component
/// of two or more states is a starvation cycle (self-loops are impossible:
/// every move changes the queue). Tarjan completes components in reverse
/// topological order, so when a one-state component completes, every
/// successor's longest-path value is final and the state's own is read off
/// them.
fn decide(ex: &Exploration, cfg: &LivenessConfig, policy: &LivenessPolicy) -> Decision {
    let n = ex.reps.len();
    let queued = |i: usize| victim_queued(&ex.reps[i]);
    // `(Serve cost, successor id)` of each victim-queued state in move
    // order, state `i`'s at `edges[first[i]..first[i + 1]]`; a successor
    // outside the subgraph is the victim's service.
    let mut first = Vec::with_capacity(n + 1);
    let mut edges: Vec<(u32, usize)> = Vec::new();
    for s in &ex.reps {
        first.push(edges.len());
        if !victim_queued(s) {
            continue;
        }
        for (mv, next) in successors(s, cfg, policy) {
            let key = canonicalize(&next, cfg).0;
            let id = ex.index.get(&key).expect("a closed exploration has every successor");
            edges.push((u32::from(mv == Move::Serve), *id as usize));
        }
    }
    first.push(edges.len());
    let succ = |i: usize| &edges[first[i]..first[i + 1]];
    let mut memo = vec![0u32; n];
    let mut best = vec![u32::MAX; n];
    let mut on_cycle = vec![false; n];
    let mut order = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut next_order = 0u32;
    let mut stack: Vec<usize> = Vec::new();
    for root in 0..n {
        if !queued(root) || order[root] != u32::MAX {
            continue;
        }
        // (state, index of its next successor); a state is numbered when
        // it first reaches the top.
        let mut call = vec![(root, 0usize)];
        while let Some(&(v, cur)) = call.last() {
            if order[v] == u32::MAX {
                order[v] = next_order;
                low[v] = next_order;
                next_order += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&(_, w)) = succ(v).get(cur) {
                call.last_mut().expect("nonempty").1 += 1;
                if on_stack[w] {
                    low[v] = low[v].min(order[w]);
                } else if queued(w) && order[w] == u32::MAX {
                    call.push((w, 0));
                }
                continue;
            }
            call.pop();
            if let Some(&(p, _)) = call.last() {
                low[p] = low[p].min(low[v]);
            }
            if low[v] != order[v] {
                continue;
            }
            let start = stack.iter().rposition(|&w| w == v).expect("v roots its component");
            let size = stack.len() - start;
            for w in stack.drain(start..) {
                on_stack[w] = false;
                on_cycle[w] = size > 1;
            }
            if size == 1 {
                for &(cost, t) in succ(v) {
                    let path = cost + memo[t];
                    if best[v] == u32::MAX || path > memo[v] {
                        memo[v] = path;
                        best[v] = t as u32;
                    }
                }
            }
        }
    }
    let Some(entry) = (0..n).filter(|&i| on_cycle[i]).min_by_key(|&i| ex.depth[i]) else {
        return Decision::Bounded { memo, best };
    };
    // Shortest cycle through `entry`: BFS within the subgraph, then close
    // the loop over the nearest state with an edge back into `entry`.
    let mut dist = vec![u32::MAX; n];
    let mut pred = vec![usize::MAX; n];
    dist[entry] = 0;
    let mut q = VecDeque::from([entry]);
    while let Some(u) = q.pop_front() {
        for &(_, w) in succ(u) {
            if queued(w) && dist[w] == u32::MAX {
                dist[w] = dist[u] + 1;
                pred[w] = u;
                q.push_back(w);
            }
        }
    }
    let back = (0..n)
        .filter(|&u| dist[u] != u32::MAX && succ(u).iter().any(|&(_, w)| w == entry))
        .min_by_key(|&u| dist[u])
        .expect("entry lies on a cycle");
    let mut cycle = vec![entry as u32];
    let mut cur = back;
    while cur != entry {
        cycle.push(cur as u32);
        cur = pred[cur];
    }
    cycle.reverse();
    Decision::Lasso { entry: entry as u32, cycle }
}

/// The canonical-state index path from the initial state to `i` along BFS
/// parents (excluding the initial state itself).
fn path_to(ex: &Exploration, i: u32) -> Vec<u32> {
    let mut path = Vec::new();
    let mut cur = i;
    while cur != 0 {
        path.push(cur);
        cur = ex.parent[cur as usize];
    }
    path.reverse();
    path
}

/// Replays a canonical index path concretely: starting from `start`, picks
/// at each step the successor whose canonical form matches the next path
/// state (one always exists, by equivariance). Returns the concrete moves
/// and the final concrete state.
fn follow(
    ex: &Exploration,
    cfg: &LivenessConfig,
    policy: &LivenessPolicy,
    start: ModelState,
    targets: &[u32],
) -> (Vec<Move>, ModelState) {
    let mut c = start;
    let mut moves = Vec::with_capacity(targets.len());
    for &t in targets {
        let tkey = canonicalize(&ex.reps[t as usize], cfg).0;
        let (mv, next) = successors(&c, cfg, policy)
            .into_iter()
            .find(|(_, s2)| canonicalize(s2, cfg).0 == tkey)
            .expect("equivariance: a matching successor exists");
        moves.push(mv);
        c = next;
    }
    (moves, c)
}

/// A concrete witness trace.
///
/// For an unbounded verdict this is a *lasso*: after the `stem`, repeating
/// the `cycle` forever leaves the victim's request queued at every step.
/// The cycle returns to the same state up to a relabeling of banks, rows
/// and adversary threads, and relabelings fix the victim's slot, so each
/// repetition is the printed one relabeled: BLISS's cycle injects for
/// `t2`, the adversary not served last, and the next repetition injects
/// for `t1`. For a bounded verdict the `cycle` is empty and the `stem` is
/// an extremal trace realizing the bound.
#[derive(Debug, Clone)]
pub struct Witness {
    /// Moves from the empty initial state to the decisive state.
    pub stem: Vec<Move>,
    /// The infinitely repeatable starvation loop (empty when bounded).
    pub cycle: Vec<Move>,
}

impl Witness {
    /// Renders the witness as one line per move.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for mv in &self.stem {
            out.push_str(&format!("  stem : {mv}\n"));
        }
        for mv in &self.cycle {
            out.push_str(&format!("  cycle: {mv}\n"));
        }
        out
    }

    /// Replays the witness as an observability event stream, suitable for
    /// cross-validation by the `prelude:invariants` monitor spec: the stem,
    /// then the cycle's moves twice, literally. The second pass names the
    /// same banks, rows and threads as the first, not the relabeled ones
    /// of the lasso's own next repetition; where those differ (BLISS's
    /// lasso), the second pass need not keep the victim queued.
    #[must_use]
    pub fn to_events(&self, policy: &LivenessPolicy, cfg: &LivenessConfig) -> Vec<Event> {
        let mut rp = Replay::new(cfg);
        for mv in &self.stem {
            rp.apply(*mv, policy);
        }
        for _ in 0..2 {
            for mv in &self.cycle {
                rp.apply(*mv, policy);
            }
        }
        rp.events
    }
}

/// Concrete re-execution of a move sequence with event emission.
struct Replay {
    state: ModelState,
    ids: Vec<u64>,
    arrivals: Vec<u64>,
    next_id: u64,
    batch_no: u64,
    now: u64,
    events: Vec<Event>,
}

impl Replay {
    fn new(cfg: &LivenessConfig) -> Replay {
        Replay {
            state: initial(cfg),
            ids: Vec::new(),
            arrivals: Vec::new(),
            next_id: 0,
            batch_no: 0,
            now: 0,
            events: Vec::new(),
        }
    }

    fn enqueue(&mut self, thread: u8, bank: u8, row: u8) {
        self.events.push(Event::Enqueued {
            at: self.now,
            request: self.next_id,
            thread: thread as usize,
            write: false,
            rank: 0,
            bank: bank as usize,
            row: u64::from(row),
        });
        self.state.queue.push(Slot { thread, bank, row, marked: false });
        self.ids.push(self.next_id);
        self.arrivals.push(self.now);
        self.next_id += 1;
    }

    fn apply(&mut self, mv: Move, policy: &LivenessPolicy) {
        match mv {
            Move::Inject { thread, bank, row } => self.enqueue(thread, bank, row),
            Move::InjectVictim { bank, row } => {
                self.enqueue(0, bank, row);
                self.state.victim = VictimPhase::Queued;
            }
            Move::Serve => {
                let out = serve_step(&self.state, policy).expect("serve on a nonempty queue");
                if !out.newly_marked.is_empty() {
                    self.batch_no += 1;
                    let mut per_thread: BTreeMap<usize, u32> = BTreeMap::new();
                    for &i in &out.newly_marked {
                        *per_thread.entry(self.state.queue[i].thread as usize).or_insert(0) += 1;
                    }
                    let cap = match *policy {
                        LivenessPolicy::BatchMarking { cap } if cap != u32::MAX => Some(cap),
                        _ => None,
                    };
                    self.events.push(Event::BatchFormed {
                        at: self.now,
                        id: self.batch_no,
                        marked: out.newly_marked.len() as u32,
                        cap,
                        exclusive: true,
                        per_thread: per_thread.into_iter().collect(),
                    });
                    for &i in &out.newly_marked {
                        let slot = self.state.queue[i];
                        self.events.push(Event::Marked {
                            at: self.now,
                            request: self.ids[i],
                            thread: slot.thread as usize,
                            rank: 0,
                            bank: slot.bank as usize,
                        });
                    }
                }
                let slot = out.slot;
                let before = self.state.open[slot.bank as usize];
                let service = if before == slot.row {
                    ServiceClass::Hit
                } else if before == NONE {
                    ServiceClass::Closed
                } else {
                    ServiceClass::Conflict
                };
                let timing = TimingParams::ddr2_800();
                let data_end = self.now + timing.t_cl + timing.t_burst;
                let request = self.ids[out.index];
                self.events.push(Event::CommandIssued {
                    at: self.now,
                    request,
                    thread: slot.thread as usize,
                    kind: CmdKind::Read,
                    rank: 0,
                    bank: slot.bank as usize,
                    row: u64::from(slot.row),
                    col: 0,
                    marked: slot.marked,
                    service: Some(service),
                    data_end: Some(data_end),
                });
                self.events.push(Event::Completed {
                    at: self.now,
                    request,
                    thread: slot.thread as usize,
                    write: false,
                    arrival: self.arrivals[out.index],
                    finish: data_end,
                });
                self.ids.remove(out.index);
                self.arrivals.remove(out.index);
                self.state = out.next;
            }
        }
        self.now += 4 * DRAM_CYCLE;
    }
}

/// The checker's answer for one scheduler.
#[derive(Debug, Clone)]
pub enum LivenessVerdict {
    /// Starvation is bounded: at most `services` other requests are
    /// serviced before any enqueued request, which takes at most `cycles`
    /// DRAM cycles under the conservative per-service worst case.
    Bounded {
        /// Tightest bound on services before the victim is served.
        services: u32,
        /// Conservative cycle conversion of `services`.
        cycles: u64,
    },
    /// A reachable starvation loop exists: the witness lasso starves the
    /// victim forever.
    Unbounded,
    /// The exploration was truncated (depth horizon or state cap); no
    /// claim can be decided.
    Inconclusive,
}

/// A full liveness-check result for one scheduler.
#[derive(Debug, Clone)]
pub struct LivenessReport {
    /// Scheduler name ([`MemoryScheduler::name`]).
    pub scheduler: String,
    /// The policy class that was model-checked.
    pub policy: LivenessPolicy,
    /// The starvation claim the scheduler declared.
    pub claim: StarvationClaim,
    /// What the exhaustive exploration decided.
    pub verdict: LivenessVerdict,
    /// Extremal trace (bounded) or minimal lasso (unbounded).
    pub witness: Option<Witness>,
    /// Canonical (symmetry-reduced) states explored.
    pub canonical_states: u64,
    /// Raw states represented, recovered exactly from orbit sizes.
    pub raw_states: u64,
    /// True when the exploration reached its fixpoint (required for a
    /// bounded verdict to be a proof).
    pub closed: bool,
}

impl LivenessReport {
    /// Whether the exploration's verdict confirms the declared claim.
    #[must_use]
    pub fn claim_verified(&self) -> bool {
        matches!(
            (&self.claim, &self.verdict),
            (StarvationClaim::Bounded, LivenessVerdict::Bounded { .. })
                | (StarvationClaim::Unbounded, LivenessVerdict::Unbounded)
        )
    }

    /// Raw-to-canonical state-count reduction factor.
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.canonical_states == 0 {
            return 1.0;
        }
        self.raw_states as f64 / self.canonical_states as f64
    }
}

impl fmt::Display for LivenessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} — ", self.scheduler, self.policy)?;
        match self.verdict {
            LivenessVerdict::Bounded { services, cycles } => {
                write!(f, "bounded: ≤ {services} services (≤ {cycles} cycles)")?;
            }
            LivenessVerdict::Unbounded => write!(f, "UNBOUNDED starvation")?,
            LivenessVerdict::Inconclusive => write!(f, "inconclusive (truncated)")?,
        }
        write!(
            f,
            "; {} canonical / {} raw states ({:.1}x){}",
            self.canonical_states,
            self.raw_states,
            self.reduction(),
            if self.closed { ", closed" } else { ", truncated" }
        )
    }
}

/// Conservative conversion of a service count into DDR2-800 cycles: each
/// service costs at most a full conflict turnaround (precharge + activate
/// + CAS + burst), plus the refresh share of the window.
fn services_to_cycles(services: u32) -> u64 {
    let t = TimingParams::ddr2_800();
    let per = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
    let base = u64::from(services) * per;
    let refreshes = base.checked_div(t.t_refi).map_or(0, |n| n + 1);
    base + refreshes * t.t_rfc
}

/// Model-checks `sched`'s declared liveness contract on the given
/// geometry.
///
/// # Errors
///
/// On a scheduler with no declared contract, an invalid contract, or an
/// invalid geometry. A truncated exploration is not an error — it yields an
/// [`LivenessVerdict::Inconclusive`] report.
pub fn check_scheduler_liveness(
    sched: &dyn MemoryScheduler,
    cfg: &LivenessConfig,
) -> Result<LivenessReport, String> {
    let name = sched.name();
    let contract = sched
        .liveness_contract()
        .ok_or_else(|| format!("scheduler '{name}' declares no liveness contract"))?;
    cfg.validate()?;
    contract.validate().map_err(|e| format!("{name}: {e}"))?;
    let policy = contract.policy;
    let ex = explore(&policy, cfg);
    let mut report = LivenessReport {
        scheduler: name.to_owned(),
        policy,
        claim: contract.claim,
        verdict: LivenessVerdict::Inconclusive,
        witness: None,
        canonical_states: ex.reps.len() as u64,
        raw_states: ex.raw_states,
        closed: ex.closed,
    };
    if !ex.closed {
        return Ok(report);
    }
    match decide(&ex, cfg, &policy) {
        Decision::Bounded { memo, best } => {
            // Bounded. The tight bound is attained at a victim-arrival
            // state (any deeper maximum has an arrival ancestor at least
            // as large).
            let entry = (0..ex.reps.len())
                .filter(|&i| {
                    ex.parent[i] != u32::MAX
                        && matches!(ex.parent_move[i], Move::InjectVictim { .. })
                })
                .max_by_key(|&i| memo[i]);
            let Some(entry) = entry else {
                // Degenerate geometry: the victim can never arrive.
                return Err("victim arrival is unreachable in this geometry".into());
            };
            // `memo` counts every Serve on the path including the one that
            // services the victim; the starvation bound excludes it.
            let services = memo[entry] - 1;
            let mut targets = path_to(&ex, entry as u32);
            let mut cur = entry as u32;
            loop {
                let nxt = best[cur as usize];
                targets.push(nxt);
                if ex.reps[nxt as usize].victim == VictimPhase::Served {
                    break;
                }
                cur = nxt;
            }
            let (stem, _) = follow(&ex, cfg, &policy, initial(cfg), &targets);
            report.verdict =
                LivenessVerdict::Bounded { services, cycles: services_to_cycles(services) };
            report.witness = Some(Witness { stem, cycle: Vec::new() });
        }
        Decision::Lasso { entry, cycle } => {
            let (stem, at_entry) = follow(&ex, cfg, &policy, initial(cfg), &path_to(&ex, entry));
            let (cycle, _) = follow(&ex, cfg, &policy, at_entry, &cycle);
            report.verdict = LivenessVerdict::Unbounded;
            report.witness = Some(Witness { stem, cycle });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchedulerKind, SimConfig};
    use parbs_monitor::prelude;
    use parbs_obs::EventSink;

    /// Model-checks the contract of `kind`.
    fn check(kind: &SchedulerKind, cfg: &LivenessConfig) -> Result<LivenessReport, String> {
        check_scheduler_liveness(&*kind.build(&SimConfig::for_cores(4)), cfg)
    }

    #[test]
    fn frfcfs_emits_a_minimal_starvation_lasso() {
        let r = check(&SchedulerKind::FrFcfs, &LivenessConfig::tiny()).unwrap();
        assert!(matches!(r.verdict, LivenessVerdict::Unbounded), "{r}");
        assert!(r.claim_verified(), "FR-FCFS declares unbounded starvation");
        assert!(r.closed);
        let w = r.witness.expect("lasso witness");
        // The analytically minimal lasso: open a row for the adversary
        // (inject + serve), enqueue the victim on a conflicting row, then
        // hammer forever (inject row-hit, serve it).
        assert_eq!(w.stem.len(), 3, "minimal stem:\n{}", w.describe());
        assert_eq!(w.cycle.len(), 2, "minimal cycle:\n{}", w.describe());
        assert!(w.stem.iter().any(|m| matches!(m, Move::InjectVictim { .. })));
        assert!(w.cycle.contains(&Move::Serve));
        assert!(w.cycle.iter().any(|m| matches!(m, Move::Inject { .. })));
    }

    #[test]
    fn bliss_lasso_alternates_two_adversaries() {
        // The blacklist counts consecutive services of one thread, so two
        // adversaries that take turns hitting the open row never reach the
        // threshold. The cycle injects for the adversary that was not
        // served last; the next repetition swaps the two.
        let cfg = LivenessConfig::tiny();
        let r = check(&SchedulerKind::Bliss, &cfg).unwrap();
        assert!(matches!(r.verdict, LivenessVerdict::Unbounded), "{r}");
        assert!(r.claim_verified(), "BLISS declares unbounded starvation");
        let w = r.witness.as_ref().expect("lasso witness");
        assert_eq!(w.stem.len(), 3, "minimal stem:\n{}", w.describe());
        assert_eq!(w.cycle.len(), 2, "minimal cycle:\n{}", w.describe());
        let Move::Inject { thread: injector, .. } = w.cycle[0] else {
            panic!("the cycle starts with an adversary's inject:\n{}", w.describe())
        };
        let served: Vec<usize> = w
            .to_events(&r.policy, &cfg)
            .into_iter()
            .filter_map(|e| match e {
                Event::CommandIssued { thread, .. } => Some(thread),
                _ => None,
            })
            .collect();
        let served_last = served[w.stem.iter().filter(|m| **m == Move::Serve).count() - 1];
        assert_ne!(usize::from(injector), served_last, "{}", w.describe());
    }

    #[test]
    fn bounded_schedulers_prove_their_claims() {
        let bounded: Vec<SchedulerKind> = SchedulerKind::all()
            .into_iter()
            .filter(|k| {
                let contract = k.build(&SimConfig::for_cores(4)).liveness_contract();
                contract.is_some_and(|c| c.claim == StarvationClaim::Bounded)
            })
            .collect();
        assert!(!bounded.is_empty(), "some scheduler declares a bound");
        for kind in bounded {
            let name = kind.name();
            let r = check(&kind, &LivenessConfig::tiny()).unwrap();
            assert!(r.closed, "{name} exploration must reach its fixpoint");
            let LivenessVerdict::Bounded { services, cycles } = r.verdict else {
                panic!("{name} must prove a finite starvation bound: {r}");
            };
            assert!(services > 0 && cycles > 0, "{r}");
            assert!(r.claim_verified(), "{name} claims bounded: {r}");
            let w = r.witness.expect("extremal trace");
            assert!(w.cycle.is_empty());
            // Serves before the victim arrives (setting up worst-case
            // policy state) are not starvation; the bound is realized by
            // the serves after `inject-victim`, ending with the victim's
            // own service.
            let after_arrival = w
                .stem
                .iter()
                .skip_while(|m| !matches!(m, Move::InjectVictim { .. }))
                .filter(|m| matches!(m, Move::Serve))
                .count() as u32;
            assert_eq!(
                after_arrival,
                services + 1,
                "extremal trace realizes the bound plus the victim's own service"
            );
        }
    }

    #[test]
    fn fcfs_bound_is_the_queue_backlog() {
        // Under FCFS the worst case is arriving behind a full queue:
        // capacity - 1 older requests.
        let cfg = LivenessConfig::tiny();
        let r = check(&SchedulerKind::Fcfs, &cfg).unwrap();
        let LivenessVerdict::Bounded { services, .. } = r.verdict else {
            panic!("FCFS is bounded")
        };
        assert_eq!(services as usize, cfg.queue_capacity - 1);
    }

    #[test]
    fn symmetry_reduction_exceeds_10x_on_4_bank_depth_8() {
        let cfg = LivenessConfig {
            banks: 4,
            rows: 2,
            queue_capacity: 8,
            adversary_threads: 1,
            max_depth: Some(8),
        };
        let r = check(&SchedulerKind::FrFcfs, &cfg).unwrap();
        assert!(r.canonical_states > 1_000, "nontrivial exploration: {r}");
        assert!(
            r.raw_states >= 10 * r.canonical_states,
            "symmetry reduction must be at least 10x: {r}"
        );
    }

    #[test]
    fn parbs_witness_replays_clean_through_the_invariant_monitor() {
        let cfg = LivenessConfig::tiny();
        let r = check(&SchedulerKind::ParBs(Default::default()), &cfg).unwrap();
        let w = r.witness.expect("extremal trace");
        let events = w.to_events(&r.policy, &cfg);
        assert!(
            events.iter().any(|e| matches!(e, Event::BatchFormed { .. })),
            "the batching policy must form batches in the witness"
        );
        assert!(events.iter().any(|e| matches!(e, Event::Marked { .. })));
        let spec = prelude::invariants();
        let mut mon = spec.monitor();
        for e in &events {
            mon.record(e);
        }
        assert!(mon.ok(), "PAR-BS witness must satisfy the batching invariants: {}", mon.summary());
    }

    #[test]
    fn frfcfs_lasso_replays_through_the_invariant_monitor() {
        // The starvation lasso is unfair but not a *batching*-invariant
        // violation: it must replay clean too (there are no marks at all).
        let cfg = LivenessConfig::tiny();
        let r = check(&SchedulerKind::FrFcfs, &cfg).unwrap();
        let w = r.witness.expect("lasso");
        let events = w.to_events(&r.policy, &cfg);
        assert!(!events.is_empty());
        let spec = prelude::invariants();
        let mut mon = spec.monitor();
        for e in &events {
            mon.record(e);
        }
        assert!(mon.ok(), "{}", mon.summary());
    }

    #[test]
    fn a_missing_contract_and_a_bad_geometry_error() {
        struct NoContract;
        impl MemoryScheduler for NoContract {
            fn name(&self) -> &str {
                "bare"
            }
            fn priority_key(
                &self,
                req: &parbs_dram::Request,
                _: &parbs_dram::SchedView<'_>,
            ) -> u128 {
                u128::from(u64::MAX - req.id.0)
            }
        }
        let err = check_scheduler_liveness(&NoContract, &LivenessConfig::tiny()).unwrap_err();
        assert!(err.contains("declares no liveness contract"), "{err}");
        let cfg = LivenessConfig { banks: 0, ..LivenessConfig::tiny() };
        assert!(check(&SchedulerKind::Fcfs, &cfg).is_err());
    }

    #[test]
    fn truncated_exploration_is_inconclusive() {
        let cfg = LivenessConfig { max_depth: Some(2), ..LivenessConfig::tiny() };
        let r = check(&SchedulerKind::Fcfs, &cfg).unwrap();
        assert!(!r.closed);
        assert!(matches!(r.verdict, LivenessVerdict::Inconclusive));
        assert!(!r.claim_verified());
    }
}
