//! `bench_admission` — a wall-clock admission benchmark.
//!
//! The benchmark drives the unchanged `cpo_des::WindowedScheduler`
//! through four fixed workloads ([`workload`]) and measures every layer
//! from outside, through wrapper types that implement the traits the
//! scheduler already calls ([`timed`]). [`admission`] runs the
//! repetitions, checks their outcomes, and turns what was measured into
//! the end-to-end metrics and the per-layer ledger. See `README.md` for
//! the workloads, the metrics and the protocol for comparing commits.

pub mod admission;
pub mod timed;
pub mod workload;
