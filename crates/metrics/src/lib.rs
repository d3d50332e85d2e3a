//! Deterministic metrics over the Veil trace stream.
//!
//! The paper's evaluation (§6, Tables 3–5) is about *latency
//! distributions* of privileged transitions — domain switches, syscall
//! redirects, RMP operations — not just counts. This crate turns the
//! deterministic event stream of [`veil_trace`] into that evidence:
//!
//! * [`Histogram`] — log-linear (HDR-style, 16 sub-buckets per power of
//!   two) cycle histograms with shift-only bucket math and one
//!   percentile, [`Histogram::percentile`]: the [`nearest_rank`]
//!   convention shared with exact percentiles over raw samples (the
//!   adversary fuzzer's `--bench` mode), at most 1/16 below the exact
//!   value and never outside `[min, max]`.
//! * [`MetricsRegistry`] — counters, gauges, and histograms keyed by
//!   `(metric, domain, op)`, fed by the same `Tracer` fold as the trace
//!   itself ([`MetricsRegistry::observe_event`]) so event-derived counters
//!   can never drift from the event stream.
//! * [`SpanProfiler`] — hierarchical spans with self/total cycle
//!   attribution per VMPL against the `veil_snp::cost` virtual clock.
//! * [`export`] — Prometheus text exposition, a JSON snapshot whose
//!   SHA-256 digest is golden-pinnable, and folded stacks for flamegraph
//!   tooling ([`SpanProfiler::folded`]).
//!
//! Everything is runtime gated behind the `VEIL_METRICS` environment knob
//! (see [`METRICS_ENV`]): disabled, every observation is a single-branch
//! no-op, and because metrics never charge cycles, never emit events, and
//! never touch the RNG, trace digests are bit-identical whether metrics
//! are on or off (the CI `tier1-metrics` twin enforces this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;
mod span;

/// Exporters: Prometheus text, digestable JSON snapshots, folded stacks.
pub mod export;

pub use hist::{bucket_lower, bucket_of, nearest_rank, Histogram, BUCKETS};
pub use registry::{domain_label, exit_code_label, Key, MetricsRegistry, DOMAIN_NONE};
pub use span::{SpanProfiler, SpanStat};

/// Environment variable that enables metrics collection when set to
/// anything other than `0` (same contract as `VEIL_TRACE`).
pub const METRICS_ENV: &str = "VEIL_METRICS";

/// Whether `VEIL_METRICS` asks for metrics collection in this process.
pub fn env_enabled() -> bool {
    std::env::var_os(METRICS_ENV).is_some_and(|v| v != "0")
}
