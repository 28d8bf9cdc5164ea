//! # asf-core — adaptive stream filters for entity-based queries
//!
//! Reproduction of *Cheng, Kao, Prabhakar, Kwan, Tu: "Adaptive Stream
//! Filters for Entity-based Queries with Non-Value Tolerance"* (VLDB 2005).
//!
//! A central server runs **continuous entity-based queries** — queries whose
//! answers are sets of stream identifiers — over `n` distributed stream
//! sources. To cut communication, the server installs **adaptive filters**
//! at the sources; a source only reports when its value crosses its filter
//! bound. Users bound the resulting error *non-numerically*:
//!
//! * [`tolerance::RankTolerance`] — every returned stream ranks `k + r` or
//!   better (Definition 1);
//! * [`tolerance::FractionTolerance`] — at most a fraction `ε⁺` of the
//!   answer is wrong and at most `ε⁻` of the truth is missing
//!   (Definitions 2–3).
//!
//! The six protocols of the paper live in [`protocol`]:
//!
//! | Type | Query | Tolerance |
//! |------|-------|-----------|
//! | [`protocol::NoFilter`] | any | none (baseline) |
//! | [`protocol::ZtNrp`]    | range | zero |
//! | [`protocol::FtNrp`]    | range | fraction |
//! | [`protocol::Rtp`]      | k-NN / top-k | rank |
//! | [`protocol::ZtRp`]     | k-NN / top-k | zero |
//! | [`protocol::FtRp`]     | k-NN / top-k | fraction (via Eq. 16) |
//! | [`protocol::VtMax`]    | maximum | numeric value `ε` (the §1 strawman) |
//!
//! The [`engine::Engine`] wires a protocol to a
//! [`streamnet::SourceFleet`] and drives it from a [`workload::Workload`];
//! the [`oracle`] checks the tolerance definitions against ground truth at
//! every quiescent point.
//!
//! 2-D point streams need no protocol of their own: a
//! [`multidim::Projection`] maps each position to one scalar at the source
//! (the distance to a k-NN query point, or the signed distance to a
//! window), and the protocols above run on it unchanged;
//! [`multidim::oracle2d`] checks the 2-D answers against the true
//! positions.
//!
//! ## Quick example
//!
//! ```
//! use asf_core::engine::Engine;
//! use asf_core::protocol::FtNrp;
//! use asf_core::query::RangeQuery;
//! use asf_core::tolerance::FractionTolerance;
//! use asf_core::workload::{UpdateEvent, VecWorkload};
//! use streamnet::StreamId;
//!
//! let initial = vec![450.0, 700.0, 500.0, 100.0];
//! let query = RangeQuery::new(400.0, 600.0).unwrap();
//! let tol = FractionTolerance::new(0.25, 0.25).unwrap();
//! let protocol = FtNrp::new(query, tol, Default::default(), 42).unwrap();
//!
//! let events = vec![UpdateEvent { time: 1.0, stream: StreamId(1), value: 550.0 }];
//! let mut engine = Engine::new(&initial, protocol);
//! engine.initialize();
//! engine.run(&mut VecWorkload::new(initial.clone(), events));
//! assert!(engine.ledger().total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod engine;
pub mod error;
pub mod multi_query;
pub mod multi_rank;
pub mod multidim;
pub mod oracle;
pub mod protocol;
pub mod query;
pub mod rank;
pub mod telem;
pub mod tolerance;
pub mod workload;

pub use answer::{AnswerSet, IdSet};
pub use engine::{Engine, ProtocolCore};
pub use error::ConfigError;
pub use query::{RangeQuery, RankQuery, RankSpace};
pub use tolerance::{FractionTolerance, RankTolerance};
