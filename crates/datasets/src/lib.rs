//! # tdb-datasets
//!
//! Catalog of the sixteen real-world graphs evaluated in the TDB paper
//! (Table II) and seeded synthetic *proxy* synthesis for them.
//!
//! The original SNAP / KONECT datasets cannot be redistributed with this
//! repository and the largest of them (Twitter-WWW, 1.47 B edges) would not fit
//! a development machine anyway. The experiment harness therefore generates
//! proxies: random graphs whose vertex count, edge count, degree skew and
//! reciprocity follow the published statistics of each dataset, scaled by a
//! user-chosen factor. The shape of the paper's results (which algorithm
//! wins, by how many orders of magnitude, where DARC-DV and BUR+ stop being
//! feasible) is driven by exactly the properties the proxies reproduce.
//!
//! ```
//! use tdb_datasets::{Dataset, SynthesisConfig};
//! use tdb_graph::Graph;
//!
//! let spec = Dataset::WikiVote.spec();
//! assert_eq!(spec.code, "WKV");
//! let g = tdb_datasets::synthesize(Dataset::WikiVote, &SynthesisConfig::tiny());
//! assert!(g.num_edges() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod synth;

pub use catalog::{Dataset, DatasetSpec, GraphClass};
pub use synth::{synthesize, synthesize_spec, SynthesisConfig};
