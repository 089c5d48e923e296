//! Umbrella crate for the AlgoProf reproduction workspace.
//!
//! This crate exists to host the repository-level integration tests
//! (`tests/`) and runnable examples (`examples/`); the functionality
//! lives in the member crates:
//!
//! * [`algoprof_vm`] — the jay guest language and instrumenting VM,
//! * [`algoprof`] — the algorithmic profiler itself,
//! * [`algoprof_fit`] — empirical cost-function inference,
//! * [`algoprof_trace`] — deterministic event-trace record/replay,
//! * [`algoprof_cct`] — the traditional calling-context-tree baseline,
//! * [`algoprof_programs`] — the guest program corpus.
//!
//! Start with `cargo run --example quickstart`, or see the README.

pub use algoprof;
pub use algoprof_cct;
pub use algoprof_fit;
pub use algoprof_programs;
pub use algoprof_trace;
pub use algoprof_vm;

pub mod genprog;
pub mod testutil;

/// The threaded example programs (the `examples/*.jay` guests that call
/// `spawn`), each with a small guest input: `(name, source, input)`.
/// The differential suites run them next to the single-threaded corpus.
pub const THREADED_EXAMPLES: [(&str, &str, i64); 3] = [
    (
        "producer_consumer",
        include_str!("../examples/producer_consumer.jay"),
        24,
    ),
    (
        "locked_counter",
        include_str!("../examples/locked_counter.jay"),
        12,
    ),
    (
        "parallel_sum",
        include_str!("../examples/parallel_sum.jay"),
        16,
    ),
];
