//! PAR-BS configuration: batching mode, Marking-Cap, within-batch ranking,
//! and system-level thread priorities.

/// How batches are formed (Section 4.1 and the Section 4.4 alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchingMode {
    /// The paper's PAR-BS choice: a new batch forms only when **all** marked
    /// requests have been serviced. Gives strict starvation-freedom.
    Full,
    /// Time-based static batching: mark outstanding requests every
    /// `duration` cycles regardless of batch completion. No strict
    /// starvation-avoidance guarantee (evaluated in Fig. 12 as `st-<d>`).
    Static {
        /// Marking period in processor cycles (the paper sweeps 400-25600).
        duration: u64,
    },
    /// Empty-slot ("eslot") batching: late-arriving requests may join the
    /// current batch while their thread has unused Marking-Cap slots for
    /// the target bank.
    EmptySlot,
}

/// Within-batch thread-ranking scheme (Rule 3 and the Section 4.4 / Fig. 13
/// alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ranking {
    /// The paper's choice: rank by lowest max-bank-load, break ties by
    /// lowest total load (shortest job first).
    MaxTotal,
    /// The reversed rule: total load first, max-bank-load as tie-breaker.
    TotalMax,
    /// Random ranks each batch (a non-shortest-job-first control).
    Random,
    /// Ranks rotate round-robin across batches.
    RoundRobin,
    /// No ranking: within a batch requests follow plain FR-FCFS (or FCFS if
    /// `row_hit_first` is also disabled). Isolates the batching component.
    None,
}

/// System-software priority of a thread (Section 5). Requests carry it as
/// [`ThreadPriority::period`] in `parbs_dram::Request::priority_level`,
/// which is what PAR-BS reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThreadPriority {
    /// Priority level X ≥ 1: the thread's requests are marked every Xth
    /// batch; level 1 (the default) joins every batch.
    #[default]
    Level1,
    /// An explicit level (2, 3, ...). `Level(1)` behaves like `Level1`.
    Level(u8),
    /// The paper's lowest level *L*: requests are never marked and rank
    /// below all unmarked requests — purely opportunistic service.
    Opportunistic,
}

impl ThreadPriority {
    /// The marking period of this priority (`None` for opportunistic).
    #[must_use]
    pub fn period(self) -> Option<u64> {
        match self {
            ThreadPriority::Level1 => Some(1),
            ThreadPriority::Level(x) => Some(u64::from(x.max(1))),
            ThreadPriority::Opportunistic => None,
        }
    }
}

/// Full PAR-BS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParBsConfig {
    /// `Marking-Cap`: maximum marked requests per thread per bank in one
    /// batch; `None` marks everything (the paper's `no-c`). Default 5, the
    /// sweet spot of Fig. 11.
    pub marking_cap: Option<u32>,
    /// Batch-formation policy. Default [`BatchingMode::Full`].
    pub batching: BatchingMode,
    /// Within-batch thread ranking. Default [`Ranking::MaxTotal`].
    pub ranking: Ranking,
    /// Apply the row-hit-first rule within a batch (Rule 2.RH). Disabling
    /// it together with `Ranking::None` yields FCFS-within-batch.
    pub row_hit_first: bool,
    /// Adapt the Marking-Cap at every batch formation, the extension the
    /// paper sketches in §8.3.1, starting from `marking_cap`: long batches
    /// (which delay requests that missed the batch) shrink the cap, short
    /// ones (which waste re-ordering opportunity) grow it. `false` keeps
    /// the paper's fixed cap.
    pub adaptive_cap: bool,
}

impl ParBsConfig {
    /// The paper's PAR-BS: full batching, `Marking-Cap = 5`, Max-Total
    /// ranking, row-hit-first enabled.
    #[must_use]
    pub fn paper_default() -> Self {
        ParBsConfig {
            marking_cap: Some(5),
            batching: BatchingMode::Full,
            ranking: Ranking::MaxTotal,
            row_hit_first: true,
            adaptive_cap: false,
        }
    }

    /// Batching only, FR-FCFS within a batch (Fig. 13 "no-rank (FR-FCFS)").
    #[must_use]
    pub fn no_rank_frfcfs() -> Self {
        ParBsConfig { ranking: Ranking::None, ..Self::paper_default() }
    }

    /// Batching only, FCFS within a batch (Fig. 13 "no-rank (FCFS)").
    #[must_use]
    pub fn no_rank_fcfs() -> Self {
        ParBsConfig { ranking: Ranking::None, row_hit_first: false, ..Self::paper_default() }
    }
}

impl Default for ParBsConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_7_2() {
        let c = ParBsConfig::default();
        assert_eq!(c.marking_cap, Some(5));
        assert_eq!(c.batching, BatchingMode::Full);
        assert_eq!(c.ranking, Ranking::MaxTotal);
        assert!(c.row_hit_first);
        assert!(!c.adaptive_cap, "paper default is fixed cap");
    }

    #[test]
    fn priority_periods() {
        assert_eq!(ThreadPriority::Level1.period(), Some(1));
        assert_eq!(ThreadPriority::Level(3).period(), Some(3));
        assert_eq!(ThreadPriority::Level(0).period(), Some(1), "level 0 clamps to 1");
        assert_eq!(ThreadPriority::Opportunistic.period(), None);
    }
}
