//! Benchmark harness regenerating **every table and figure** of the XPC
//! (ISCA'19) evaluation.
//!
//! Two measurement paths, matching the paper's methodology:
//!
//! * micro-benchmarks (Tables 1/3/5, Figure 5/6 small sizes) run real
//!   guest code on the [`rv64`] emulator with the XPC engine installed —
//!   the [`harness`] module steps the machine instruction by instruction
//!   and reads the cycle counter around exactly the code under test;
//! * application workloads (Figures 1/7/8/9) run the real service stack
//!   (`services`, `minidb`, `ycsb`) against the calibrated kernel models
//!   (`kernels`) — the paper's own numbers for those figures come from
//!   full system runs whose IPC pattern these models replicate.
//!
//! `cargo run -p xpc-bench --bin figures -- all` prints every table and
//! figure; `EXPERIMENTS.md` records paper-vs-measured.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod json;
pub mod sweep;

pub use harness::{CallBench, CallBenchConfig, EmulatedXpc};
pub use json::Json;
