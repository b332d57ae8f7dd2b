//! Key-contract analyzer tests: every shipped scheduler passes, and
//! deliberately-broken test-only schedulers are rejected with a pointed
//! diagnostic.

use std::cmp::Ordering;

use parbs_dram::{FieldSemantic, KeyField, KeyLayout, MemoryScheduler, Request, SchedView};
use parbs_sim::analyze::check_scheduler_keys;
use parbs_sim::{SchedulerKind, SimConfig};

#[test]
fn every_shipped_scheduler_passes_check_keys() {
    for kind in SchedulerKind::all() {
        let report = check_scheduler_keys(&|| kind.build(&SimConfig::for_cores(4)))
            .unwrap_or_else(|e| panic!("{kind} failed the key contract: {e}"));
        assert_eq!(report.scheduler, kind.name());
        assert!(report.states >= 5, "{kind}: state coverage too thin ({})", report.states);
        assert!(report.pairs >= 30, "{kind}: pair coverage too thin ({})", report.pairs);
        assert!(report.probes >= 37, "{kind}: scope coverage too thin ({})", report.probes);
    }
}

/// FR-FCFS's declared layout, reused by the broken schedulers below: the
/// declarations are fine — the *implementations* betray them.
static FRFCFS_LIKE_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField { name: "row_hit", semantic: FieldSemantic::RowHit, lo: 64, width: 1 },
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
    ],
};

/// Packs the two fields in swapped positions (age in the high bits' place,
/// row-hit at bit 0) while declaring the correct FR-FCFS layout.
struct SwappedFieldScheduler;

impl MemoryScheduler for SwappedFieldScheduler {
    fn name(&self) -> &str {
        "swapped"
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        (u128::from(u64::MAX - req.id.0) << 1) | u128::from(view.is_row_hit(req))
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&FRFCFS_LIKE_LAYOUT)
    }
}

#[test]
fn swapped_key_fields_are_rejected() {
    let err = check_scheduler_keys(&|| Box::new(SwappedFieldScheduler) as Box<dyn MemoryScheduler>)
        .expect_err("a packer that swaps the declared fields must fail");
    assert!(err.contains("row_hit"), "diagnostic must point at the field whose bits moved: {err}");
}

/// Declares its fields in LSB-first order — structurally invalid before any
/// key is ever packed.
struct MisdeclaredScheduler;

static LSB_FIRST_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
        KeyField { name: "row_hit", semantic: FieldSemantic::RowHit, lo: 64, width: 1 },
    ],
};

impl MemoryScheduler for MisdeclaredScheduler {
    fn name(&self) -> &str {
        "lsb-first"
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        (u128::from(view.is_row_hit(req)) << 64) | u128::from(u64::MAX - req.id.0)
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&LSB_FIRST_LAYOUT)
    }
}

#[test]
fn lsb_first_declaration_is_structurally_rejected() {
    let err = check_scheduler_keys(&|| Box::new(MisdeclaredScheduler) as Box<dyn MemoryScheduler>)
        .expect_err("an LSB-first declaration must fail validation");
    assert!(err.contains("invalid KeyLayout"), "structural failure expected: {err}");
}

/// Packs a key wider than the declaration admits (stray bit above every
/// declared field).
struct StrayBitScheduler;

impl MemoryScheduler for StrayBitScheduler {
    fn name(&self) -> &str {
        "stray-bit"
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        (1u128 << 80) | (u128::from(view.is_row_hit(req)) << 64) | u128::from(u64::MAX - req.id.0)
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&FRFCFS_LIKE_LAYOUT)
    }
}

#[test]
fn stray_key_bits_are_rejected() {
    let err = check_scheduler_keys(&|| Box::new(StrayBitScheduler) as Box<dyn MemoryScheduler>)
        .expect_err("bits outside the declared fields must fail");
    assert!(err.contains("outside the declared fields"), "stray-bit failure expected: {err}");
}

/// Key and comparator disagree (comparator ignores row hits) — the
/// cross-validation must notice even though the packed bits themselves are
/// layout-clean.
struct InconsistentCompareScheduler;

impl MemoryScheduler for InconsistentCompareScheduler {
    fn name(&self) -> &str {
        "inconsistent"
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        (u128::from(view.is_row_hit(req)) << 64) | u128::from(u64::MAX - req.id.0)
    }

    fn compare(&self, a: &Request, b: &Request, _view: &SchedView<'_>) -> Ordering {
        a.id.cmp(&b.id)
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&FRFCFS_LIKE_LAYOUT)
    }
}

#[test]
fn key_vs_compare_divergence_is_rejected() {
    let err = check_scheduler_keys(&|| {
        Box::new(InconsistentCompareScheduler) as Box<dyn MemoryScheduler>
    })
    .expect_err("a comparator diverging from the packed keys must fail");
    assert!(err.contains("compare()"), "order-divergence failure expected: {err}");
}

#[test]
fn undeclared_layout_is_rejected() {
    struct NoLayout;
    impl MemoryScheduler for NoLayout {
        fn name(&self) -> &str {
            "bare"
        }
        fn priority_key(&self, req: &Request, _view: &SchedView<'_>) -> u128 {
            u128::from(u64::MAX - req.id.0)
        }
    }
    let err = check_scheduler_keys(&|| Box::new(NoLayout) as Box<dyn MemoryScheduler>)
        .expect_err("an opted-out scheduler cannot pass the contract check");
    assert!(err.contains("no declared KeyLayout"), "{err}");
}

/// The mix's arrival count (4 bits above the age), bumped by `on_arrival`
/// while `pre_schedule` keeps reporting no change: an arrival moves every
/// queued key, so re-keying only the new read would leave the rest stale.
static ARRIVALS_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField { name: "arrivals", semantic: FieldSemantic::Rank, lo: 64, width: 4 },
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
    ],
};

struct ArrivalCountScheduler {
    arrivals: u8,
}

impl MemoryScheduler for ArrivalCountScheduler {
    fn name(&self) -> &str {
        "arrival-count"
    }

    fn on_arrival(&mut self, _req: &Request, _now: u64) {
        self.arrivals = (self.arrivals + 1) % 16;
    }

    fn priority_key(&self, req: &Request, _view: &SchedView<'_>) -> u128 {
        (u128::from(self.arrivals) << 64) | u128::from(u64::MAX - req.id.0)
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&ARRIVALS_LAYOUT)
    }
}

#[test]
fn a_key_moved_by_another_reads_arrival_is_rejected() {
    let err = check_scheduler_keys(&|| {
        Box::new(ArrivalCountScheduler { arrivals: 0 }) as Box<dyn MemoryScheduler>
    })
    .expect_err("an arrival that moves queued keys unreported must fail");
    assert!(err.contains("the arrival of request"), "arrival-scope failure expected: {err}");
}

/// Bank 0's open/closed bit in every request's key: an activate or
/// precharge on bank 0 moves the keys of requests to the other banks,
/// which the controller does not re-key.
static BANK_ZERO_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField { name: "bank0_open", semantic: FieldSemantic::Boosted, lo: 64, width: 1 },
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
    ],
};

struct BankZeroScheduler;

impl MemoryScheduler for BankZeroScheduler {
    fn name(&self) -> &str {
        "bank-zero"
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        (u128::from(view.open_row(0).is_some()) << 64) | u128::from(u64::MAX - req.id.0)
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&BANK_ZERO_LAYOUT)
    }
}

#[test]
fn a_key_that_reads_another_banks_row_is_rejected() {
    let err = check_scheduler_keys(&|| Box::new(BankZeroScheduler) as Box<dyn MemoryScheduler>)
        .expect_err("a key that reads another bank's open row must fail");
    assert!(err.contains("on bank 0"), "bank-scope failure expected: {err}");
}
