//! Memory requests and their identifiers.

use crate::LineAddr;

/// Identifies the hardware thread (core) that issued a request.
///
/// The paper assumes one thread per core and uses the terms interchangeably;
/// so do we.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ThreadId(pub usize);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Globally unique, monotonically increasing request identifier. Because ids
/// are assigned in arrival order, comparing ids implements the paper's
/// oldest-first (FCFS) tie-breaking rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RequestId(pub u64);

/// Whether a request reads from or writes to DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A load miss; blocks the issuing core's commit when it reaches the
    /// head of the instruction window, so reads are performance-critical.
    Read,
    /// A writeback; posted, never blocks commit, drained opportunistically.
    Write,
}

/// One DRAM request in the memory request buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    /// Unique id, assigned in arrival order.
    pub id: RequestId,
    /// The thread (core) that generated the request.
    pub thread: ThreadId,
    /// Decoded DRAM location.
    pub addr: LineAddr,
    /// Read or write.
    pub kind: RequestKind,
    /// Processor cycle at which the request entered the request buffer.
    pub arrival: u64,
    /// Whether the request belongs to the current batch (PAR-BS "marked"
    /// bit). Schedulers other than PAR-BS ignore this field; it lives on the
    /// request because the paper stores it in the request buffer (Table 1).
    pub marked: bool,
    /// System-software priority level of the issuing thread (1 = highest).
    /// `None` encodes the paper's lowest, purely-opportunistic level *L*.
    /// PAR-BS reads it as it reads `marked`: a level-X request joins every
    /// Xth batch and the within-batch PRIORITY rule orders by it. It lives
    /// on the request because the paper packs it into each request's
    /// priority in the request buffer (Figure 4).
    pub priority_level: Option<u8>,
    /// Whether the controller has issued the request's first command. That
    /// command classifies the request, once, as a row hit (a column
    /// command), row closed (an activate) or row conflict (a precharge);
    /// the controller sets the bit then. Schedulers ignore it.
    pub started: bool,
}

impl Request {
    /// Creates a read or write request with default (equal) thread priority.
    #[must_use]
    pub fn new(id: u64, thread: ThreadId, addr: LineAddr, kind: RequestKind, arrival: u64) -> Self {
        Request {
            id: RequestId(id),
            thread,
            addr,
            kind,
            arrival,
            marked: false,
            priority_level: Some(1),
            started: false,
        }
    }
}

parbs_snap::snap!(ThreadId { 0 });
parbs_snap::snap!(RequestId { 0 });
parbs_snap::snap!(enum RequestKind as "request kind" { 0 => Read, 1 => Write });
parbs_snap::snap!(Request { id, thread, addr, kind, arrival, marked, priority_level, started });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_order_by_age() {
        let a = RequestId(1);
        let b = RequestId(2);
        assert!(a < b, "smaller id = older request");
    }

    #[test]
    fn new_request_is_unmarked_equal_priority() {
        let r = Request::new(3, ThreadId(1), LineAddr::default(), RequestKind::Read, 10);
        assert!(!r.marked && !r.started);
        assert_eq!(r.priority_level, Some(1));
        assert_eq!(r.kind, RequestKind::Read);
        assert_eq!(r.arrival, 10);
    }

    #[test]
    fn thread_id_displays_compactly() {
        assert_eq!(ThreadId(3).to_string(), "T3");
    }
}
