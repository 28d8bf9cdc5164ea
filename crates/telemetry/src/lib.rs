//! # asf-telemetry — std-only observability primitives
//!
//! Everything in this crate is **observational**: nothing here may feed a
//! protocol decision, so wall-clock noise can never perturb the
//! byte-identical determinism the differential suites pin. The pieces:
//!
//! * [`LogHistogram`] — a log-bucketed histogram with bounded memory and
//!   **exact merge** (bucket counts add element-wise), so per-shard and
//!   per-partition distributions combine into one without resampling.
//! * [`Registry`] — a typed, insertion-ordered metrics registry (counters,
//!   gauges, histogram summaries) with a [`Registry::to_json`] snapshot so
//!   every consumer (benches, examples, future net/recovery layers) reads
//!   one schema.
//! * [`TraceRing`] — a bounded ring of span events ([`TraceEvent`]) with a
//!   compile-time-cheap [`TraceDepth`] gate, exportable as Chrome
//!   trace-event JSON ([`chrome_trace`], validated by
//!   [`validate_chrome_trace`]) for Perfetto / `chrome://tracing`.
//! * [`CauseLedger`] — per-cause message accounting: the same five
//!   message-kind counters the `streamnet` ledger keeps, broken down by the
//!   *protocol decision* that originated them ([`Cause`]); checkpointed,
//!   through `asf-persist`'s codec, the crate's only dependency.
//! * [`json`] — a minimal recursive-descent JSON parser used by the trace
//!   validator and the snapshot-schema tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causes;
pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use causes::{Cause, CauseLedger, NUM_CAUSES, NUM_KIND_SLOTS};
pub use hist::LogHistogram;
pub use registry::{MetricValue, Registry};
pub use trace::{chrome_trace, validate_chrome_trace, TraceDepth, TraceEvent, TraceRing};
