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
/// field whose extracted value contradicts its semantic, or a key order
/// that diverges from [`MemoryScheduler::compare`].
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
    };
    for (channel, now) in channel_states() {
        report.states += 1;
        let mut sched = make();
        let mut queue = request_mix();
        for req in &queue {
            sched.on_arrival(req, req.arrival);
        }
        let view = SchedView { channel: &channel, now };
        // Let the policy mark/rank/recompute exactly as the controller would.
        sched.pre_schedule(&mut queue, &view);
        let keys: Vec<u128> = queue.iter().map(|r| sched.priority_key(r, &view)).collect();
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
    }
    Ok(report)
}
