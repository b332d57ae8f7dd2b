//! Synthetic benchmark suite and multiprogrammed workload mixes replicating
//! the PAR-BS evaluation methodology (Mutlu & Moscibroda, ISCA 2008, §7).
//!
//! The paper evaluates 26 SPEC CPU2006 benchmarks plus two Windows desktop
//! applications, characterized in its Table 3 by memory intensity (MCPI and
//! L2 MPKI), row-buffer hit rate, and bank-level parallelism (BLP). Those
//! traces are proprietary; this crate substitutes **seeded synthetic
//! instruction streams** parameterized along exactly the axes the schedulers
//! are sensitive to:
//!
//! * `mpki` — L2 misses per kilo-instruction (memory intensity);
//! * `row_hit` — probability that the next miss in a bank stays in the
//!   current row (row-buffer locality);
//! * `blp` — mean number of concurrent misses to distinct banks per miss
//!   burst (intra-thread bank-level parallelism);
//! * `write_fraction` — writebacks per read miss.
//!
//! Each of the paper's 28 benchmarks gets a profile whose targets are taken
//! from Table 3, and the mix-construction rules of Section 7 (100 4-core,
//! 16 8-core, 12 16-core pseudo-random category combinations, plus the named
//! case-study workloads) are reproduced with a fixed seed.
//!
//! # Examples
//!
//! ```
//! use parbs_workloads::{by_name, StreamGeometry, SyntheticStream};
//! use parbs_cpu::InstructionStream;
//! use parbs_dram::DramConfig;
//!
//! let mcf = by_name("mcf").unwrap();
//! assert!(mcf.blp > 4.0, "mcf has very high bank-level parallelism");
//! let geometry = StreamGeometry::of(&DramConfig::baseline_4core());
//! let mut stream = SyntheticStream::new(mcf, geometry, 42, 0);
//! let _first = stream.next_instr();
//! ```

mod flow;
mod mixes;
mod profiles;
mod source;
mod synth;
mod trace;

pub use flow::{BoundedPareto, CompletedFlow, FlowConfig, FlowSource};
pub use mixes::{
    accel_case_study, case_study_1, case_study_2, case_study_3, cpu_accel_mixes, fig10_named,
    fig9_8core, random_mixes, MixSpec,
};
pub use profiles::{
    accelerators, all_benchmarks, by_name, by_number, classify, BenchmarkProfile, PaperRow,
    ACCEL_NUMBER_BASE, CATEGORIES,
};
pub use source::{RequestSource, SourcedRequest};
pub use synth::{StreamGeometry, SyntheticStream};
pub use trace::{format_trace, load_trace, parse_trace, ParseTraceError, MAX_TRACE_INSTRUCTIONS};
