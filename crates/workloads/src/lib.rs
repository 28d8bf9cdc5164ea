//! # workloads — stream workload generators
//!
//! Implements the two data models of the paper's evaluation (§6):
//!
//! * [`synthetic::SyntheticWorkload`] — §6.2's synthetic model: values
//!   initially uniform in `[0, 1000]`, exponential inter-arrival times
//!   (mean 20 time units), and Gaussian `N(0, σ)` steps;
//! * [`tcp_like::TcpLikeWorkload`] — a from-scratch substitute for the LBL
//!   Internet Traffic Archive TCP traces used in §6.1 (which we cannot
//!   ship): 800 subnets with Zipf-distributed activity and log-AR(1) byte
//!   values. See DESIGN.md §5 for the substitution argument.
//!
//! Plus [`walk2d::Walk2dWorkload`] — a 2-D reflected random walk for the
//! multi-dimensional extension, each position reported as one value under
//! an `asf_core::multidim::Projection` — and [`trace`], a tiny text format
//! to persist/replay generated traces deterministically.
//!
//! All generators implement [`asf_core::workload::Workload`] and are fully
//! deterministic given their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod synthetic;
pub mod tcp_like;
pub mod trace;
pub mod walk2d;

pub use synthetic::{SyntheticConfig, SyntheticWorkload};
pub use tcp_like::{TcpLikeConfig, TcpLikeWorkload};
pub use walk2d::{Walk2dConfig, Walk2dWorkload};
