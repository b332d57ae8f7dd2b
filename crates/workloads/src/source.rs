//! [`RequestSource`]: where DRAM requests come from.
//!
//! The simulator historically had exactly one answer — a closed-loop CPU
//! core per thread, which stalls when its window fills and therefore
//! self-limits its request rate. The datacenter-flow frontend needs the
//! opposite regime: **open-loop** arrivals that keep coming whether or not
//! the memory system keeps up, from a requester population far larger than
//! any core count. This trait is the seam for such frontends: one driver
//! loop (`parbs_sim::drive_source`) hosts any source, while the closed-loop
//! cores keep `parbs_sim::System`'s tightly coupled loop.
//!
//! The contract is deliberately small:
//!
//! * [`RequestSource::poll`] advances the source to `now` and appends every
//!   request it wants issued by then. The driver owns backpressure — a
//!   request the memory system cannot accept yet is the driver's to buffer,
//!   never the source's to re-emit.
//! * Each emitted [`SourcedRequest`] carries an opaque `token`; the driver
//!   hands the token back through [`RequestSource::on_complete`] when the
//!   corresponding **read** finishes. Writes are posted, exactly as in the
//!   core model: no completion is reported for them.
//! * [`RequestSource::exhausted`] is the driver's stop condition: the
//!   source will never emit another request (and, for sources that track
//!   completions, everything it cares about has finished).
//! * [`RequestSource::next_event`] tells the driver which polls it may
//!   skip. Its default, `now`, skips none.

use parbs_dram::{RequestKind, ThreadId};

/// One memory request emitted by a [`RequestSource`], in line-address form
/// (the driver decodes it through the system's address mapper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourcedRequest {
    /// The requester the memory system attributes this request to. Sparse
    /// ids are expected: a flow frontend hands out ids far beyond any core
    /// count, so consumers must not allocate dense per-thread state.
    pub thread: ThreadId,
    /// Cache-line address (pre-decode).
    pub line: u64,
    /// Read or write.
    pub kind: RequestKind,
    /// Opaque completion token, returned via [`RequestSource::on_complete`]
    /// when the read finishes. Meaningless for writes.
    pub token: u64,
}

/// A generator of DRAM requests: the frontend half of a simulation.
///
/// Implemented by the open-loop datacenter-flow generator
/// ([`crate::FlowSource`]); the closed-loop CPU cores stay in
/// `parbs_sim::System`'s own loop.
pub trait RequestSource {
    /// Number of distinct requester (thread) ids this source may ever emit.
    /// Ids are `0..requesters()`, but at any instant only a small subset is
    /// typically active.
    fn requesters(&self) -> usize;

    /// Advances internal time to `now` and appends every request issued at
    /// or before `now` to `out`. Called with strictly increasing `now`, once
    /// per driver cycle except the cycles the driver skips before
    /// [`RequestSource::next_event`]; the source must tolerate those gaps.
    fn poll(&mut self, now: u64, out: &mut Vec<SourcedRequest>);

    /// The first cycle at or after `now` at which [`RequestSource::poll`]
    /// can emit a request or change the source, assuming no completion is
    /// delivered before then. A driver may skip the polls of the cycles
    /// before it. The default, `now`, means "poll me every cycle".
    fn next_event(&self, now: u64) -> u64 {
        now
    }

    /// A read previously emitted with this `token` completed at `now`.
    fn on_complete(&mut self, token: u64, now: u64);

    /// True once the source will emit no further requests and every
    /// completion it was waiting on has been delivered.
    fn exhausted(&self) -> bool;
}
