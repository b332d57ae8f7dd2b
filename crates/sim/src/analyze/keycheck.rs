//! Scheduler key-contract analysis.
//!
//! Every shipped [`MemoryScheduler`] declares a [`KeyLayout`]: the ordered,
//! named bit-fields its packed `priority_key` is built from. This module
//! checks the declaration two ways:
//!
//! 1. **Structurally** — [`KeyLayout::validate`]: unique names, MSB-first
//!    non-overlapping fields, an age tiebreaker in the low bits (which is
//!    what makes the packed order total and injective).
//! 2. **Against the implementation** — over a set of enumerated channel
//!    states and request mixes, every packed key must (a) stay inside the
//!    declared bit positions, (b) extract field values consistent with each
//!    field's declared semantic where that semantic is externally
//!    observable (`marked`, the priority level, row-hit status, the age
//!    encoding), and (c)
//!    order exactly like the scheduler's own pairwise
//!    [`MemoryScheduler::compare`] — the lexicographic field order the
//!    layout documents *is* the integer order of the packed key, so any
//!    swapped, shifted or mis-widthed field shows up as a violation of (a),
//!    (b) or (c).
//!
//! 3. **Against the controller's key scopes** — the controller re-keys
//!    only what an event can change (the key-caching contract on
//!    [`MemoryScheduler`]). From each state, a probe applies one event: a
//!    further arrival, an activate or precharge on one bank
//!    ([`Channel::issue`] plus [`MemoryScheduler::on_command`]), or a
//!    column command with its completion. When the following
//!    `pre_schedule` reports no change, every key the event does not
//!    re-key must be unchanged, keyed before and after at the event's
//!    cycle.
//!
//! The checks are state-driven rather than proof-based: they enumerate
//! channel states with open and closed rows, expired and live capture
//! windows, and marked and unmarked requests, which covers every branch the
//! shipped schedulers' packers have.

use parbs_dram::{
    Channel, Command, CommandKind, FieldSemantic, KeyLayout, LineAddr, MemoryScheduler, Request,
    RequestId, RequestKind, SchedView, ThreadId, TimingParams,
};

/// Outcome counters of one scheduler's key check.
#[derive(Debug, Clone)]
pub struct KeyReport {
    /// Scheduler display name.
    pub scheduler: String,
    /// Declared fields.
    pub fields: usize,
    /// Channel states enumerated.
    pub states: u64,
    /// Keys packed and semantically checked.
    pub keys: u64,
    /// Ordered pairs compared against `compare`.
    pub pairs: u64,
    /// Scope probes whose following `pre_schedule` reported no change, so
    /// that the keys out of the event's scope were compared.
    pub probes: u64,
}

/// The enumerated channel states: combinations of open rows and `now`
/// values chosen to flip every externally-visible priority input (row hits,
/// capture-window expiry, marking).
fn channel_states() -> Vec<(Channel, u64)> {
    let t = TimingParams::ddr2_800();
    let act = |ch: &mut Channel, bank: usize, row: u64, at: u64| {
        ch.issue(
            &Command {
                kind: CommandKind::Activate,
                rank: 0,
                bank,
                row,
                col: 0,
                request: RequestId(0),
            },
            ThreadId(0),
            at,
        );
    };
    let closed = Channel::new(4, t);
    let mut one_open = Channel::new(4, t);
    act(&mut one_open, 0, 1, 0);
    let mut two_open = Channel::new(4, t);
    act(&mut two_open, 0, 1, 0);
    act(&mut two_open, 1, 2, t.t_rrd);
    vec![
        (closed, 0),
        // Inside NFQ's capture window (now - activate < tRAS).
        (one_open.clone(), 70),
        (two_open.clone(), 100),
        // Long after: row hits persist, capture windows have expired.
        (one_open, 50_000),
        (two_open, 50_000),
    ]
}

/// A request mix spanning four threads, hit/conflict/closed banks, three
/// priority levels (1, 2 and opportunistic) and distinct ages. Ids are
/// deliberately non-contiguous.
fn request_mix() -> Vec<Request> {
    let spec: &[(u64, usize, usize, u64, Option<u8>)] = &[
        // (id, thread, bank, row, priority level)
        (0, 0, 0, 1, Some(1)),
        (1, 1, 0, 2, Some(1)),
        (2, 0, 1, 2, Some(1)),
        (3, 1, 1, 1, Some(1)),
        (5, 2, 1, 1, Some(2)),
        (7, 3, 0, 1, None),
        (9, 0, 2, 3, Some(1)),
        (100, 1, 3, 1, Some(1)),
    ];
    spec.iter()
        .map(|&(id, thread, bank, row, priority_level)| Request {
            priority_level,
            ..Request::new(
                id,
                ThreadId(thread),
                LineAddr { channel: 0, bank, row, col: 0 },
                RequestKind::Read,
                id, // arrival in id order — the age semantic's premise
            )
        })
        .collect()
}

/// Reads that arrive after [`request_mix`] at `now`: one of a thread with
/// nothing queued, and one of a queued thread to a bank it has not used.
fn late_arrivals(now: u64) -> [Request; 2] {
    [(200, 4, 0, 1), (201, 1, 2, 3)].map(|(id, thread, bank, row)| {
        let addr = LineAddr { channel: 0, bank, row, col: 0 };
        Request::new(id, ThreadId(thread), addr, RequestKind::Read, now)
    })
}

/// A fresh scheduler from `make` that has seen [`request_mix`] arrive and
/// one `pre_schedule` on `view`, with the queue it marked.
fn settled(
    make: &dyn Fn() -> Box<dyn MemoryScheduler>,
    view: &SchedView<'_>,
) -> (Box<dyn MemoryScheduler>, Vec<Request>) {
    let mut sched = make();
    let mut queue = request_mix();
    for req in &queue {
        sched.on_arrival(req, req.arrival);
    }
    // Let the policy mark/rank/recompute exactly as the controller would.
    sched.pre_schedule(&mut queue, view);
    (sched, queue)
}

/// The keys of `queue` under `view`.
fn keys_of(sched: &dyn MemoryScheduler, queue: &[Request], view: &SchedView<'_>) -> Vec<u128> {
    queue.iter().map(|r| sched.priority_key(r, view)).collect()
}

/// The first cycle from `now` at which `cmd` can issue on `channel`.
fn issue_cycle(channel: &Channel, cmd: &Command, now: u64) -> u64 {
    (now..).find(|&t| channel.can_issue(cmd, t)).expect("a command issues eventually")
}

/// One scope probe after its `event`: unless the following `pre_schedule`
/// reports a change, every request of `queue` that `kept` selects keeps
/// its key in `before` (aligned with `queue`; requests past its end are
/// not compared). Returns whether the keys were compared.
fn scope_holds(
    sched: &mut dyn MemoryScheduler,
    queue: &mut [Request],
    before: &[u128],
    view: &SchedView<'_>,
    kept: impl Fn(&Request) -> bool,
    event: &str,
) -> Result<bool, String> {
    if sched.pre_schedule(queue, view) {
        return Ok(false);
    }
    for (req, &old) in queue.iter().zip(before).filter(|(r, _)| kept(r)) {
        let new = sched.priority_key(req, view);
        if new != old {
            return Err(format!(
                "{}: {event} moved the key of request {} from {old:#x} to {new:#x}, out of \
                 the event's re-key scope, and the next pre_schedule reported no change \
                 (cycle {})",
                sched.name(),
                req.id.0,
                view.now
            ));
        }
    }
    Ok(true)
}

/// The scope probes from one channel state: each late arrival, an
/// activate or precharge on every bank, and a column command with its
/// completion for every row hit. Returns the number of probes compared.
fn scope_probes(
    make: &dyn Fn() -> Box<dyn MemoryScheduler>,
    channel: &Channel,
    now: u64,
) -> Result<u64, String> {
    let mut probes = 0;
    let view = SchedView { channel, now };
    for late in late_arrivals(now) {
        let (mut sched, mut queue) = settled(make, &view);
        let before = keys_of(&*sched, &queue, &view);
        sched.on_arrival(&late, now);
        let event = format!("the arrival of request {}", late.id.0);
        queue.push(late);
        probes +=
            u64::from(scope_holds(&mut *sched, &mut queue, &before, &view, |_| true, &event)?);
    }
    for bank in 0..channel.bank_count() {
        let (mut sched, mut queue) = settled(make, &view);
        let req = queue.iter().find(|r| r.addr.bank == bank).cloned();
        let req = req.expect("the mix covers every bank");
        let (kind, row) = match channel.bank(bank).open_row() {
            Some(open) => (CommandKind::Precharge, open),
            None => (CommandKind::Activate, req.addr.row),
        };
        let cmd = Command { kind, rank: 0, bank, row, col: 0, request: req.id };
        let mut after = channel.clone();
        let at = issue_cycle(channel, &cmd, now);
        let before = keys_of(&*sched, &queue, &SchedView { channel, now: at });
        after.issue(&cmd, req.thread, at);
        sched.on_command(&cmd, &req, at);
        let view = SchedView { channel: &after, now: at };
        let event = format!("{kind:?} on bank {bank}");
        let other_bank = |r: &Request| r.addr.bank != bank;
        probes +=
            u64::from(scope_holds(&mut *sched, &mut queue, &before, &view, other_bank, &event)?);
    }
    let mix = request_mix();
    for i in (0..mix.len()).filter(|&i| view.is_row_hit(&mix[i])) {
        let (mut sched, mut queue) = settled(make, &view);
        // The settled copy, which `pre_schedule` may have marked.
        let req = queue[i].clone();
        let (bank, row) = (req.addr.bank, req.addr.row);
        let cmd = Command { kind: CommandKind::Read, rank: 0, bank, row, col: 0, request: req.id };
        let mut after = channel.clone();
        let at = issue_cycle(channel, &cmd, now);
        let mut before = keys_of(&*sched, &queue, &SchedView { channel, now: at });
        after.issue(&cmd, req.thread, at);
        sched.on_command(&cmd, &req, at);
        sched.on_complete(&req, at);
        queue.swap_remove(i);
        before.swap_remove(i);
        let view = SchedView { channel: &after, now: at };
        let event = format!("a column command and the completion of request {}", req.id.0);
        probes +=
            u64::from(scope_holds(&mut *sched, &mut queue, &before, &view, |_| true, &event)?);
    }
    Ok(probes)
}

/// The externally-checkable value of a field for `req` under `view`, if the
/// semantic is observable from outside the scheduler.
fn expected_field_value(
    semantic: FieldSemantic,
    width: u32,
    req: &Request,
    view: &SchedView<'_>,
) -> Option<u128> {
    match semantic {
        FieldSemantic::Marked => Some(u128::from(req.marked)),
        // The level inverted over the field's width (level 1 = largest);
        // an opportunistic request packs 0, below every level.
        FieldSemantic::PriorityLevel => {
            let max = (1u128 << width) - 1;
            Some(req.priority_level.map_or(0, |level| max - u128::from(level)))
        }
        FieldSemantic::RowHit => Some(u128::from(view.is_row_hit(req))),
        // Age is the inverted id over the field's width (oldest = largest).
        FieldSemantic::Age => {
            let max = (1u128 << width) - 1;
            Some(max - u128::from(req.id.0))
        }
        _ => None,
    }
}

/// Checks one scheduler's declared key layout against its implementation;
/// `make` must build a fresh instance (internal policy state accumulates
/// and each enumerated channel state starts from scratch).
///
/// # Errors
///
/// Returns a description of the first violated contract: a missing or
/// structurally-invalid layout, key bits outside the declared fields, a
/// field whose extracted value contradicts its semantic, a key order
/// that diverges from [`MemoryScheduler::compare`], or a key moved out of
/// an event's re-key scope with no change reported.
pub fn check_scheduler_keys(
    make: &dyn Fn() -> Box<dyn MemoryScheduler>,
) -> Result<KeyReport, String> {
    let probe = make();
    let name = probe.name().to_owned();
    let layout: &'static KeyLayout =
        probe.key_layout().ok_or_else(|| format!("{name}: no declared KeyLayout"))?;
    layout.validate().map_err(|e| format!("{name}: invalid KeyLayout: {e}"))?;
    let used = layout.used_mask();
    let mut report = KeyReport {
        scheduler: name.clone(),
        fields: layout.fields.len(),
        states: 0,
        keys: 0,
        pairs: 0,
        probes: 0,
    };
    for (channel, now) in channel_states() {
        report.states += 1;
        let view = SchedView { channel: &channel, now };
        let (sched, queue) = settled(make, &view);
        let keys = keys_of(&*sched, &queue, &view);
        for (req, &key) in queue.iter().zip(&keys) {
            report.keys += 1;
            if key & !used != 0 {
                return Err(format!(
                    "{name}: key {key:#x} of request {} sets bits outside the declared fields \
                     (mask {used:#x})",
                    req.id.0
                ));
            }
            for field in layout.fields {
                let got = field.extract(key);
                if let Some(want) = expected_field_value(field.semantic, field.width, req, &view) {
                    if got != want {
                        return Err(format!(
                            "{name}: field `{}` of request {} extracts {got:#x}, but its \
                             {:?} semantic implies {want:#x} (state: now={now})",
                            field.name, req.id.0, field.semantic
                        ));
                    }
                }
                // A captured row hit must actually be a row hit.
                if field.semantic == FieldSemantic::RecentRowHit
                    && got == 1
                    && !view.is_row_hit(req)
                {
                    return Err(format!(
                        "{name}: field `{}` claims a captured row hit for request {} on a \
                         non-hit bank",
                        field.name, req.id.0
                    ));
                }
            }
        }
        for (i, a) in queue.iter().enumerate() {
            for (j, b) in queue.iter().enumerate() {
                if i == j {
                    continue;
                }
                report.pairs += 1;
                let by_cmp = sched.compare(a, b, &view);
                let by_key = keys[j].cmp(&keys[i]);
                if by_cmp != by_key {
                    return Err(format!(
                        "{name}: requests {} and {} order {by_cmp:?} under compare() but \
                         {by_key:?} under the packed keys (state: now={now})",
                        a.id.0, b.id.0
                    ));
                }
                if keys[i] == keys[j] {
                    return Err(format!(
                        "{name}: requests {} and {} pack identical keys — the order is not \
                         injective",
                        a.id.0, b.id.0
                    ));
                }
            }
        }
        report.probes += scope_probes(make, &channel, now)?;
    }
    Ok(report)
}
