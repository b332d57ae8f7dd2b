//! Processor core model for shared-DRAM scheduling studies.
//!
//! Models the processor of Mutlu & Moscibroda's Table 2: a 4 GHz core with a
//! 128-entry instruction window, 3-wide fetch/commit with at most one memory
//! operation per cycle, 32 MSHRs, and in-order commit (precise exceptions).
//! The model captures exactly the behaviour the paper's mechanisms interact
//! with:
//!
//! * A load miss **blocks commit** when it reaches the head of the window,
//!   so the core stalls until DRAM services it (Section 2).
//! * Independent load misses behind it **issue to DRAM out of order**, up to
//!   the MSHR and window limits — this is the memory-level parallelism whose
//!   bank-level component the schedulers preserve or destroy.
//! * Stores are posted: they commit immediately and drain to the DRAM write
//!   buffer without blocking progress.
//!
//! The memory system is decoupled: a driver (e.g. `parbs-sim`) pulls pending
//! memory operations from the core with [`Core::pending_read`] /
//! [`Core::pending_write`], forwards them to a DRAM controller, and delivers
//! completions back with [`Core::complete_read`]. After its issue step a
//! driver may put a blocked core to sleep ([`Core::sleep_if_blocked`]):
//! until one of its reads completes, it needs no memory offers, its ticks
//! only count stall cycles, and [`Core::sleep_for`] counts many at once.
//!
//! # Examples
//!
//! ```
//! use parbs_cpu::{Core, CoreConfig, Instr, InstructionStream};
//!
//! /// One load every 4 instructions, round-robin across 8 lines.
//! struct Toy(u64);
//! impl InstructionStream for Toy {
//!     fn next_instr(&mut self) -> Instr {
//!         self.0 += 1;
//!         if self.0 % 4 == 0 { Instr::Load((self.0 / 4) % 8) } else { Instr::Compute }
//!     }
//! }
//!
//! let mut core = Core::new(CoreConfig::default(), Box::new(Toy(0)));
//! // Fetch/commit a few cycles with an infinitely fast memory:
//! for now in 0..100 {
//!     core.tick(now);
//!     while let Some((line, id)) = core.pending_read() {
//!         let _ = line;
//!         core.read_issued(id);
//!         core.complete_read(id); // zero-latency memory
//!     }
//! }
//! assert!(core.stats().committed > 0);
//! ```

mod core_model;
mod stream;

pub use core_model::{Core, CoreConfig, CoreStats, MissId};
pub use stream::{Instr, InstructionStream, TraceStream};
