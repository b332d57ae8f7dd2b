//! Property tests: `priority_key` ordering equals the documented pairwise
//! comparator for PAR-BS, FR-FCFS, BLISS and ATLAS across randomized
//! channel states and request queues.
//!
//! The reference comparators below are written out from the papers' rule
//! statements (FR-FCFS: row-hit first, then oldest first; PAR-BS Rule 3.2
//! with ranking disabled: marked first, then the higher thread priority
//! (Section 5), then row-hit, then oldest first;
//! BLISS: non-blacklisted first, then row-hit, then oldest; ATLAS: lower
//! attained-service rank first, then row-hit, then oldest) — *not* from
//! the schedulers' own `compare`, so a shared packing bug cannot hide.

use std::cmp::Ordering;

use parbs::{ParBsConfig, ParBsScheduler, Ranking};
use parbs_baselines::{AtlasScheduler, BlissScheduler, FrFcfsScheduler};
use parbs_dram::{
    Channel, Command, CommandKind, LineAddr, MemoryScheduler, Request, RequestId, RequestKind,
    SchedView, ThreadId, TimingParams,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct OpenSpec {
    bank: u8,
    row: u8,
}

#[derive(Debug, Clone, Copy)]
struct ReqSpec {
    thread: u8,
    bank: u8,
    row: u8,
}

fn open_spec() -> impl Strategy<Value = OpenSpec> {
    (0u8..8, 0u8..4).prop_map(|(bank, row)| OpenSpec { bank, row })
}

fn req_spec() -> impl Strategy<Value = ReqSpec> {
    (0u8..4, 0u8..8, 0u8..4).prop_map(|(thread, bank, row)| ReqSpec { thread, bank, row })
}

/// Builds a channel with the requested rows opened (skipping activates the
/// timing rejects) and the request queue; returns the queue and channel.
fn build_state(opens: &[OpenSpec], reqs: &[ReqSpec]) -> (Channel, Vec<Request>, u64) {
    let t = TimingParams::ddr2_800();
    let mut ch = Channel::new(8, t);
    let mut now = 0;
    for o in opens {
        let cmd = Command {
            kind: CommandKind::Activate,
            rank: 0,
            bank: o.bank as usize,
            row: o.row as u64,
            col: 0,
            request: RequestId(0),
        };
        if ch.can_issue(&cmd, now) {
            ch.issue(&cmd, ThreadId(0), now);
        }
        now += t.t_rrd.max(10);
    }
    let queue: Vec<Request> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Request::new(
                i as u64,
                ThreadId(r.thread as usize),
                LineAddr { channel: 0, bank: r.bank as usize, row: r.row as u64, col: 0 },
                RequestKind::Read,
                now,
            )
        })
        .collect();
    (ch, queue, now + 100)
}

/// Checks that for every ordered pair, the packed keys sort exactly like
/// `reference` and like the scheduler's own `compare`.
fn assert_key_order_matches(
    sched: &dyn MemoryScheduler,
    queue: &[Request],
    view: &SchedView<'_>,
    reference: impl Fn(&Request, &Request) -> Ordering,
) {
    let keys: Vec<u128> = queue.iter().map(|r| sched.priority_key(r, view)).collect();
    for (i, a) in queue.iter().enumerate() {
        for (j, b) in queue.iter().enumerate() {
            if i == j {
                continue;
            }
            let want = reference(a, b);
            let by_key = keys[j].cmp(&keys[i]);
            assert_eq!(
                by_key, want,
                "key order diverges from the documented comparator for ids {} vs {}",
                a.id.0, b.id.0
            );
            assert_eq!(sched.compare(a, b, view), want, "compare() diverges for {i} vs {j}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frfcfs_key_order_matches_documented_comparator(
        opens in proptest::collection::vec(open_spec(), 0..6),
        reqs in proptest::collection::vec(req_spec(), 2..10),
    ) {
        let (ch, queue, now) = build_state(&opens, &reqs);
        let view = SchedView { channel: &ch, now };
        let sched = FrFcfsScheduler::new();
        assert_key_order_matches(&sched, &queue, &view, |a, b| {
            let hit_a = view.is_row_hit(a);
            let hit_b = view.is_row_hit(b);
            hit_b.cmp(&hit_a).then(a.id.cmp(&b.id))
        });
    }

    #[test]
    fn parbs_key_order_matches_documented_comparator(
        opens in proptest::collection::vec(open_spec(), 0..6),
        reqs in proptest::collection::vec(req_spec(), 2..10),
        // Per thread: 0 = level 1, 1 = level 2, 2 = opportunistic.
        picks in (0u8..3, 0u8..3, 0u8..3, 0u8..3),
    ) {
        let (ch, mut queue, now) = build_state(&opens, &reqs);
        let view = SchedView { channel: &ch, now };
        let picks = [picks.0, picks.1, picks.2, picks.3];
        for req in &mut queue {
            req.priority_level = [Some(1), Some(2), None][usize::from(picks[req.thread.0])];
        }
        let cfg = ParBsConfig { ranking: Ranking::None, ..ParBsConfig::default() };
        let row_hit_first = cfg.row_hit_first;
        let mut sched = ParBsScheduler::new(cfg);
        for req in &queue {
            sched.on_arrival(req, req.arrival);
        }
        // Batch formation sets the marked bits Rule 3.2 reads.
        sched.pre_schedule(&mut queue, &view);
        assert_key_order_matches(&sched, &queue, &view, |a, b| {
            // Rule 3.2 with ranking off: marked-first, then the PRIORITY
            // rule (lower level first, opportunistic last), then
            // row-hit-first (when configured), then oldest-first.
            let level = |r: &Request| r.priority_level.map_or(u16::MAX, u16::from);
            let hit = |r: &Request| row_hit_first && view.is_row_hit(r);
            b.marked
                .cmp(&a.marked)
                .then(level(a).cmp(&level(b)))
                .then(hit(b).cmp(&hit(a)))
                .then(a.id.cmp(&b.id))
        });
    }

    #[test]
    fn bliss_key_order_matches_documented_comparator(
        opens in proptest::collection::vec(open_spec(), 0..6),
        reqs in proptest::collection::vec(req_spec(), 2..10),
        // 0..4 blacklist that thread; 4 means "no thread blacklisted".
        blacklist_pick in 0u8..5,
    ) {
        let blacklist = (blacklist_pick < 4).then_some(blacklist_pick);
        let (ch, mut queue, now) = build_state(&opens, &reqs);
        let view = SchedView { channel: &ch, now };
        let mut sched = BlissScheduler::new();
        for req in &queue {
            sched.on_arrival(req, req.arrival);
        }
        // Drive one thread over the blacklisting threshold by servicing a
        // consecutive run of its column commands.
        if let Some(t) = blacklist {
            let victim = Request::new(
                1_000,
                ThreadId(t as usize),
                LineAddr { channel: 0, bank: 0, row: 0, col: 0 },
                RequestKind::Read,
                0,
            );
            let cmd = Command {
                kind: CommandKind::Read,
                rank: 0,
                bank: 0,
                row: 0,
                col: 0,
                request: victim.id,
            };
            for _ in 0..4 {
                sched.on_command(&cmd, &victim, now);
            }
            assert!(sched.is_blacklisted(ThreadId(t as usize)));
        }
        // Consume the dirty flag the way the controller does before reading
        // keys.
        sched.pre_schedule(&mut queue, &view);
        let blacklisted = |r: &Request| blacklist == Some(r.thread.0 as u8);
        assert_key_order_matches(&sched, &queue, &view, |a, b| {
            // BLISS: non-blacklisted first, then row-hit, then oldest.
            let ok = |r: &Request| !blacklisted(r);
            ok(b)
                .cmp(&ok(a))
                .then(view.is_row_hit(b).cmp(&view.is_row_hit(a)))
                .then(a.id.cmp(&b.id))
        });
    }

    #[test]
    fn atlas_key_order_matches_documented_comparator(
        opens in proptest::collection::vec(open_spec(), 0..6),
        reqs in proptest::collection::vec(req_spec(), 2..10),
        services in proptest::collection::vec(0u32..5, 4..5),
    ) {
        let (ch, mut queue, state_now) = build_state(&opens, &reqs);
        let mut sched = AtlasScheduler::new(&TimingParams::ddr2_800());
        for req in &queue {
            sched.on_arrival(req, req.arrival);
        }
        // Accrue a known amount of service per thread: each Read costs
        // t_cl + t_burst cycles of attained service.
        for (t, &count) in services.iter().enumerate() {
            let r = Request::new(
                2_000 + t as u64,
                ThreadId(t),
                LineAddr { channel: 0, bank: 0, row: 0, col: 0 },
                RequestKind::Read,
                0,
            );
            let cmd = Command {
                kind: CommandKind::Read,
                rank: 0,
                bank: 0,
                row: 0,
                col: 0,
                request: r.id,
            };
            for _ in 0..count {
                sched.on_command(&cmd, &r, state_now);
            }
        }
        // Roll the quantum so the accrued service becomes the ranking.
        let now = state_now + 20_000;
        let view = SchedView { channel: &ch, now };
        sched.pre_schedule(&mut queue, &view);
        // Expected ranks, recomputed independently: ascending by (attained
        // service, thread id); every thread 0..4 exists (service was fed
        // for all four).
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by_key(|&t| (services[t], t));
        let mut rank = [0usize; 4];
        for (pos, &t) in order.iter().enumerate() {
            rank[t] = pos;
        }
        assert_key_order_matches(&sched, &queue, &view, |a, b| {
            // ATLAS: least-attained-service rank first, then row-hit, then
            // oldest.
            rank[a.thread.0]
                .cmp(&rank[b.thread.0])
                .then(view.is_row_hit(b).cmp(&view.is_row_hit(a)))
                .then(a.id.cmp(&b.id))
        });
    }
}
