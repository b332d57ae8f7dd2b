//! Instruction streams consumed by the core model.

/// One (retired-path) instruction.
///
/// Addresses are **cache-line** addresses of L2 misses: the core model sits
/// above an implied cache hierarchy, so `Load`/`Store` represent the memory
/// operations that actually reach DRAM. Cache hits are folded into
/// [`Instr::Compute`] instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// A non-memory instruction (or a cache-hitting memory instruction).
    Compute,
    /// A load that misses the last-level cache; carries the line address.
    Load(u64),
    /// A load miss that **depends on all earlier misses** (e.g. the first
    /// dereference after a pointer chase): it cannot issue to DRAM until
    /// every older outstanding miss has completed, and it blocks younger
    /// misses from issuing while it waits. Dependent loads are what bound a
    /// thread's memory-level parallelism — a thread whose episodes are `k`
    /// independent misses separated by dependent loads has BLP ≈ `k`.
    DependentLoad(u64),
    /// A store whose writeback reaches DRAM; carries the line address.
    Store(u64),
}

/// An infinite supply of instructions for one thread.
///
/// Implementations must be deterministic for reproducible experiments; the
/// synthetic benchmark generators in `parbs-workloads` are seeded.
pub trait InstructionStream {
    /// Produces the next instruction in program order.
    fn next_instr(&mut self) -> Instr;

    /// Serializes the stream's mutable position/state for checkpointing.
    /// Stateless (or purely positional) streams that never need restoring
    /// may keep the default, which writes nothing.
    fn save_state(&self, w: &mut parbs_snap::SnapWriter) {
        let _ = w;
    }

    /// Restores state captured by [`InstructionStream::save_state`] into a
    /// freshly constructed stream of the same kind and configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`parbs_snap::SnapError`] when the snapshot is truncated or
    /// inconsistent with this stream's configuration.
    fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        let _ = r;
        Ok(())
    }
}

/// Replays a fixed instruction trace, looping at the end — useful for tests
/// and for trace-driven experiments.
#[derive(Debug, Clone)]
pub struct TraceStream {
    trace: Vec<Instr>,
    pos: usize,
}

impl TraceStream {
    /// Creates a looping replay of `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty (an instruction stream must be infinite).
    #[must_use]
    pub fn new(trace: Vec<Instr>) -> Self {
        assert!(!trace.is_empty(), "trace must not be empty");
        TraceStream { trace, pos: 0 }
    }
}

impl InstructionStream for TraceStream {
    fn next_instr(&mut self) -> Instr {
        let i = self.trace[self.pos];
        self.pos = (self.pos + 1) % self.trace.len();
        i
    }

    fn save_state(&self, w: &mut parbs_snap::SnapWriter) {
        w.usize(self.pos);
    }

    fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        let pos = r.usize()?;
        if pos >= self.trace.len() {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "trace stream position",
                expected: self.trace.len() as u64,
                found: pos as u64,
            });
        }
        self.pos = pos;
        Ok(())
    }
}

parbs_snap::snap!(enum Instr as "instruction" {
    0 => Compute,
    1 => Load(line),
    2 => DependentLoad(line),
    3 => Store(line),
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_stream_loops() {
        let mut s = TraceStream::new(vec![Instr::Compute, Instr::Load(7)]);
        assert_eq!(s.next_instr(), Instr::Compute);
        assert_eq!(s.next_instr(), Instr::Load(7));
        assert_eq!(s.next_instr(), Instr::Compute);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_trace_rejected() {
        let _ = TraceStream::new(vec![]);
    }
}
