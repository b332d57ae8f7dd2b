//! Per-scheduler liveness contracts.
//!
//! PAR-BS's headline guarantee is a *liveness* property: batch marking
//! bounds how long any request can starve (Section 4.1 derives the
//! worst-case latency from the Marking-Cap). A [`LivenessContract`] is the
//! machine-checkable statement of that kind of claim, declared by each
//! scheduler the same way a [`crate::KeyLayout`] declares its priority-key
//! bit layout: the contract names the *abstract policy class* the scheduler
//! belongs to and the *starvation claim* it makes, and `parbs-sim
//! check-liveness` model-checks the claim by exhaustively exploring the
//! policy class on a tiny geometry — either proving a concrete service
//! bound or exhibiting a minimal starvation lasso.
//!
//! The policy classes are deliberately coarse. The model checker does not
//! re-implement every scheduler's arithmetic; it checks the *mechanism*
//! each policy relies on for (un)boundedness — arrival order, row-hit
//! bypassing, batch marking, blacklisting, attained-service ranking,
//! fairness boosting — with saturating counters so the state space closes.
//! A scheduler whose liveness hinges on something its declared class does
//! not model should not declare that class.

use std::fmt;

/// The abstract scheduling mechanism a liveness claim is checked under.
///
/// Every class orders queued requests by a short lexicographic priority
/// tuple whose final tiebreak is arrival order (age) — never a thread or
/// bank id, so the model stays equivariant under the relabelings the
/// symmetry reduction quotients by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LivenessPolicy {
    /// Strict arrival order, oblivious to row-buffer state (FCFS).
    Fifo,
    /// Row hits first, then arrival order (FR-FCFS). The class with the
    /// textbook starvation lasso: a row-hit hammer stream outranks an older
    /// row-conflict request forever.
    FrFcfs,
    /// Batch marking (PAR-BS): when no marked request remains, every queued
    /// request is marked, at most `cap` per (thread, bank); marked requests
    /// outrank unmarked ones, then row hits, then age.
    BatchMarking {
        /// Marking-Cap: marks allowed per (thread, bank) per batch.
        cap: u32,
    },
    /// Consecutive-service blacklisting (BLISS): a thread serviced
    /// `threshold` times in a row is blacklisted; non-blacklisted requests
    /// outrank blacklisted ones, then row hits, then age. The model omits
    /// BLISS's periodic clearing — clearing only lengthens the bound by a
    /// constant per interval, it cannot turn a bounded policy unbounded.
    Blacklist {
        /// Consecutive services before a thread is blacklisted.
        threshold: u32,
    },
    /// Least-attained-service ranking (ATLAS; also the shape of NFQ's
    /// earliest-virtual-deadline order): lower attained service wins, then
    /// row hits, then age. Counters saturate at `saturation` so the state
    /// space closes; saturation is conservative — it only makes the
    /// adversary look *less* served, never the victim more served.
    LeastAttained {
        /// Attained-service counter ceiling.
        saturation: u32,
    },
    /// Fairness-threshold boosting (STFM): a thread whose requests went
    /// unserved for `threshold` consecutive services is boosted over all
    /// unboosted requests (most-waited first), then row hits, then age.
    FairnessThreshold {
        /// Services a thread may be passed over before it is boosted.
        threshold: u32,
    },
}

impl fmt::Display for LivenessPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LivenessPolicy::Fifo => write!(f, "fifo"),
            LivenessPolicy::FrFcfs => write!(f, "fr-fcfs"),
            LivenessPolicy::BatchMarking { cap } => write!(f, "batch-marking(cap={cap})"),
            LivenessPolicy::Blacklist { threshold } => write!(f, "blacklist(thr={threshold})"),
            LivenessPolicy::LeastAttained { saturation } => {
                write!(f, "least-attained(sat={saturation})")
            }
            LivenessPolicy::FairnessThreshold { threshold } => {
                write!(f, "fairness-threshold(thr={threshold})")
            }
        }
    }
}

/// The starvation claim a scheduler makes about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StarvationClaim {
    /// Every enqueued request is serviced within some finite number of
    /// services; the model checker proves the claim and reports the
    /// tightest bound it found on the checked geometry.
    Bounded,
    /// Starvation is unbounded under an adversarial request mix; the model
    /// checker must exhibit a reachable lasso that starves a victim
    /// request forever.
    Unbounded,
}

impl fmt::Display for StarvationClaim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StarvationClaim::Bounded => write!(f, "bounded"),
            StarvationClaim::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// A scheduler's declared liveness contract, checked by `parbs-sim
/// check-liveness` (see [`crate::MemoryScheduler::liveness_contract`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LivenessContract {
    /// The abstract policy class the claim is checked under.
    pub policy: LivenessPolicy,
    /// The claim itself.
    pub claim: StarvationClaim,
}

impl LivenessContract {
    /// Structural sanity: threshold-style parameters must be non-zero
    /// (a zero cap or threshold would make the mechanism vacuous and the
    /// claim unfalsifiable in the intended direction).
    ///
    /// # Errors
    ///
    /// Returns a description of the defect.
    pub fn validate(&self) -> Result<(), String> {
        let param = match self.policy {
            LivenessPolicy::Fifo | LivenessPolicy::FrFcfs => None,
            LivenessPolicy::BatchMarking { cap } => Some(("cap", cap)),
            LivenessPolicy::Blacklist { threshold }
            | LivenessPolicy::FairnessThreshold { threshold } => Some(("threshold", threshold)),
            LivenessPolicy::LeastAttained { saturation } => Some(("saturation", saturation)),
        };
        if let Some((name, value)) = param {
            if value == 0 {
                return Err(format!("{name} of policy {} must be non-zero", self.policy));
            }
        }
        Ok(())
    }
}

impl fmt::Display for LivenessContract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} claims {}", self.policy, self.claim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_parameters_are_rejected() {
        let c = LivenessContract {
            policy: LivenessPolicy::BatchMarking { cap: 0 },
            claim: StarvationClaim::Bounded,
        };
        assert!(c.validate().is_err());
        let ok = LivenessContract {
            policy: LivenessPolicy::BatchMarking { cap: 2 },
            claim: StarvationClaim::Bounded,
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn display_is_one_line() {
        let c =
            LivenessContract { policy: LivenessPolicy::FrFcfs, claim: StarvationClaim::Unbounded };
        assert_eq!(c.to_string(), "fr-fcfs claims unbounded");
    }
}
