//! Symmetry reduction for the liveness model checker.
//!
//! The liveness model's geometry is fully symmetric: nothing in any policy
//! class distinguishes bank 2 from bank 3, row 0 from row 1 within a bank,
//! or one adversary thread from another — every priority rule is defined in
//! terms of *relations* (same bank, same row as the open row, same thread)
//! and arrival order. The model's automorphism group is therefore
//!
//! ```text
//! G = S_banks × S_adversaries × Π_bank S_rows
//! ```
//!
//! (the victim thread is pinned: it is the request whose starvation is
//! being decided). Exploring the quotient space — one representative per
//! G-orbit — shrinks the reachable set by up to `|G|` while preserving
//! every reachability and cycle property, because the transition relation
//! is equivariant (`s → t` iff `g·s → g·t`) and the initial state is fixed
//! by all of `G`.
//!
//! Two things make the quotient cheap here:
//!
//! 1. **Linear-time canonical forms.** The queue is ordered by arrival,
//!    and arrival order is label-independent; scanning it gives a
//!    deterministic, equivariant *first-appearance* relabeling of banks,
//!    rows-within-bank and adversary threads — no enumeration of the (up
//!    to `8!·4!·(8!)^8`) group elements. Entities that never appear in the
//!    queue are ordered by their remaining observable content (open-row
//!    flag; per-thread policy counters); entities with identical content
//!    are genuinely interchangeable, so any fixed order yields the same
//!    encoding.
//! 2. **Orbit sizes by orbit–stabilizer.** The raw (unquotiented) state
//!    count is recovered exactly as `Σ |orbit(s)|` over canonical states,
//!    with `|orbit| = |G| / |stabilizer|` and the stabilizer counted
//!    combinatorially from the same first-appearance scan: pinned entities
//!    contribute 1, interchangeable classes contribute their factorials,
//!    and each bank's unused rows contribute `(rows − used)!`. No raw
//!    re-exploration is ever performed.

use crate::analyze::liveness::{LivenessConfig, ModelState, VictimPhase};

/// Sentinel for "no row open" / "not yet relabeled".
pub(crate) const NONE: u8 = u8::MAX;

fn factorial(n: u64) -> u128 {
    (1..=u128::from(n)).product::<u128>().max(1)
}

/// The deterministic relabeling computed by one first-appearance scan.
struct Relabeling {
    /// Old bank id → canonical bank id.
    bank: Vec<u8>,
    /// Canonical bank id → old bank id.
    bank_inv: Vec<u8>,
    /// Old thread id → canonical thread id (victim pinned at 0).
    thread: Vec<u8>,
    /// Canonical thread id → old thread id.
    thread_inv: Vec<u8>,
    /// Per old bank: old row id → canonical row id.
    row: Vec<Vec<u8>>,
    /// Per old bank: number of distinct rows used (queue slots + open row).
    rows_used: Vec<u8>,
    /// Banks appearing in the queue (pinned by their first slot).
    banks_pinned: usize,
    /// Unpinned banks with an open row (interchangeable among themselves).
    banks_open_free: usize,
    /// Sizes of the interchangeable classes of queue-absent adversaries
    /// (threads with identical policy content).
    absent_classes: Vec<u64>,
}

/// One scan of the state, producing the canonical relabeling and the
/// stabilizer bookkeeping at once.
fn relabel(s: &ModelState, cfg: &LivenessConfig) -> Relabeling {
    let banks = cfg.banks;
    let threads = cfg.adversary_threads + 1;
    let mut bank = vec![NONE; banks];
    let mut next_bank = 0u8;
    let mut thread = vec![NONE; threads];
    thread[0] = 0;
    let mut next_thread = 1u8;
    let mut row = vec![vec![NONE; cfg.rows as usize]; banks];
    let mut rows_used = vec![0u8; banks];
    for slot in &s.queue {
        let (b, t) = (slot.bank as usize, slot.thread as usize);
        if bank[b] == NONE {
            bank[b] = next_bank;
            next_bank += 1;
        }
        if thread[t] == NONE {
            thread[t] = next_thread;
            next_thread += 1;
        }
        if row[b][slot.row as usize] == NONE {
            row[b][slot.row as usize] = rows_used[b];
            rows_used[b] += 1;
        }
    }
    let banks_pinned = next_bank as usize;
    // Queue-absent banks: open ones first (all identical after row
    // relabeling — their open row becomes row 0), then closed ones.
    let mut banks_open_free = 0usize;
    for (lbl, &open) in bank.iter_mut().zip(&s.open) {
        if *lbl == NONE && open != NONE {
            *lbl = next_bank;
            next_bank += 1;
            banks_open_free += 1;
        }
    }
    for lbl in &mut bank {
        if *lbl == NONE {
            *lbl = next_bank;
            next_bank += 1;
        }
    }
    // Open rows get the next row id of their bank if not already seen.
    for b in 0..banks {
        let r = s.open[b];
        if r != NONE && row[b][r as usize] == NONE {
            row[b][r as usize] = rows_used[b];
            rows_used[b] += 1;
        }
    }
    // Queue-absent adversaries: order by observable policy content
    // (descending, any fixed order works); threads with identical content
    // are interchangeable and form the stabilizer classes.
    let mut absent: Vec<(u8, u8, bool, usize)> = (1..threads)
        .filter(|&t| thread[t] == NONE)
        .map(|t| (s.pol.flags[t], s.pol.counters[t], s.pol.last_served == t as u8, t))
        .map(|(f, c, l, t)| (u8::from(f), c, l, t))
        .collect();
    absent.sort_by(|a, b| (b.0, b.1, b.2).cmp(&(a.0, a.1, a.2)).then(a.3.cmp(&b.3)));
    let mut absent_classes: Vec<u64> = Vec::new();
    let mut prev: Option<(u8, u8, bool)> = None;
    for &(f, c, l, t) in &absent {
        thread[t] = next_thread;
        next_thread += 1;
        if prev == Some((f, c, l)) {
            *absent_classes.last_mut().expect("class open") += 1;
        } else {
            absent_classes.push(1);
            prev = Some((f, c, l));
        }
    }
    let mut bank_inv = vec![0u8; banks];
    for (old, &new) in bank.iter().enumerate() {
        bank_inv[new as usize] = old as u8;
    }
    let mut thread_inv = vec![0u8; threads];
    for (old, &new) in thread.iter().enumerate() {
        thread_inv[new as usize] = old as u8;
    }
    Relabeling {
        bank,
        bank_inv,
        thread,
        thread_inv,
        row,
        rows_used,
        banks_pinned,
        banks_open_free,
        absent_classes,
    }
}

/// The canonical byte encoding of `s` — equal for two states iff they lie
/// in the same `G`-orbit — together with the exact orbit size
/// `|G|/|stabilizer|`.
pub(crate) fn canonicalize(s: &ModelState, cfg: &LivenessConfig) -> (Vec<u8>, u64) {
    let lab = relabel(s, cfg);
    let banks = cfg.banks;
    let threads = cfg.adversary_threads + 1;
    let mut out = Vec::with_capacity(2 + s.queue.len() * 4 + banks + 2 + threads * 2);
    out.push(s.queue.len() as u8);
    for slot in &s.queue {
        out.push(lab.thread[slot.thread as usize]);
        out.push(lab.bank[slot.bank as usize]);
        out.push(lab.row[slot.bank as usize][slot.row as usize]);
        out.push(u8::from(slot.marked));
    }
    for new_b in 0..banks {
        let b = lab.bank_inv[new_b] as usize;
        let r = s.open[b];
        out.push(if r == NONE { NONE } else { lab.row[b][r as usize] });
    }
    out.push(match s.victim {
        VictimPhase::NotArrived => 0,
        VictimPhase::Queued => 1,
        VictimPhase::Served => 2,
    });
    out.push(if s.pol.last_served == NONE { NONE } else { lab.thread[s.pol.last_served as usize] });
    out.push(s.pol.streak);
    for new_t in 0..threads {
        let t = lab.thread_inv[new_t] as usize;
        out.push(u8::from(s.pol.flags[t]));
        out.push(s.pol.counters[t]);
    }
    // Orbit–stabilizer: |G| = B!·A!·(R!)^B; the stabilizer is the product
    // of the interchangeable-class factorials and the free-row factorials.
    let r_fact = factorial(u64::from(cfg.rows));
    let mut group: u128 = factorial(banks as u64) * factorial(cfg.adversary_threads as u64);
    let mut stab: u128 = factorial((banks - lab.banks_pinned - lab.banks_open_free) as u64)
        * factorial(lab.banks_open_free as u64);
    for &class in &lab.absent_classes {
        stab *= factorial(class);
    }
    for b in 0..banks {
        group *= r_fact;
        stab *= factorial(u64::from(cfg.rows - lab.rows_used[b]));
    }
    debug_assert_eq!(group % stab, 0, "stabilizer must divide the group order");
    let orbit = group / stab;
    (out, u64::try_from(orbit).expect("orbit size fits u64"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::liveness::{PolicyState, Slot};

    fn cfg() -> LivenessConfig {
        LivenessConfig {
            banks: 4,
            rows: 2,
            queue_capacity: 8,
            adversary_threads: 1,
            ..Default::default()
        }
    }

    fn empty(cfg: &LivenessConfig) -> ModelState {
        ModelState {
            queue: Vec::new(),
            open: vec![NONE; cfg.banks],
            victim: VictimPhase::NotArrived,
            pol: PolicyState::new(cfg.adversary_threads + 1),
        }
    }

    #[test]
    fn initial_state_is_fixed_by_the_whole_group() {
        let c = cfg();
        let (_, orbit) = canonicalize(&empty(&c), &c);
        assert_eq!(orbit, 1);
    }

    #[test]
    fn single_slot_orbit_counts_label_choices() {
        // One adversary request: any of 4 banks × 2 rows = 8 raw states
        // collapse to one canonical state.
        let c = cfg();
        let mut s = empty(&c);
        s.queue.push(Slot { thread: 1, bank: 2, row: 1, marked: false });
        let (key, orbit) = canonicalize(&s, &c);
        assert_eq!(orbit, 8);
        // Any relabeled variant produces the identical key and orbit.
        let mut t = empty(&c);
        t.queue.push(Slot { thread: 1, bank: 0, row: 0, marked: false });
        assert_eq!(canonicalize(&t, &c), (key, orbit));
    }

    #[test]
    fn open_banks_are_interchangeable_only_with_open_banks() {
        let c = cfg();
        let mut a = empty(&c);
        a.open[1] = 0;
        let mut b = empty(&c);
        b.open[3] = 1;
        assert_eq!(canonicalize(&a, &c), canonicalize(&b, &c));
        let closed = empty(&c);
        assert_ne!(canonicalize(&a, &c).0, canonicalize(&closed, &c).0);
        // One open bank: 4 bank choices × 2 row choices = 8 raw states.
        assert_eq!(canonicalize(&a, &c).1, 8);
    }

    #[test]
    fn policy_counters_block_thread_interchange() {
        let mut c = cfg();
        c.adversary_threads = 2;
        let mut a = empty(&c);
        a.pol.counters[1] = 2;
        let mut b = empty(&c);
        b.pol.counters[2] = 2;
        // Same orbit: which adversary holds the counter is a relabeling.
        assert_eq!(canonicalize(&a, &c), canonicalize(&b, &c));
        // But the orbit has 2 members now (the two assignments), where the
        // all-zero state has 1.
        assert_eq!(canonicalize(&a, &c).1, 2);
        assert_eq!(canonicalize(&empty(&c), &c).1, 1);
    }
}
