//! # muchisim-dse
//!
//! Design-space exploration for MuchiSim: experiments as data instead of
//! bespoke `main()` functions.
//!
//! The paper's case studies (§IV: memory integration, chiplet
//! granularity, NoC choices) are all parameter sweeps over
//! `SystemConfig` × application × dataset. This crate makes that workflow
//! a first-class subsystem:
//!
//! * **Spec layer** — a declarative [`ExperimentSpec`]: named axes of
//!   string-keyed configuration overrides (`"sram_kib_per_tile=64"`,
//!   `"noc.width_bits=32"`), applications and datasets, expanded by
//!   cartesian product into deterministic [`RunPoint`]s with stable run
//!   IDs. Specs come from JSON files or are built in code.
//! * **Runner layer** — a [`BatchRunner`] that schedules many
//!   simulations concurrently over a host-thread budget, sharing each
//!   dataset across points via `Arc<Csr>`, and streams results into a
//!   resumable [`JsonlStore`]: re-running a sweep skips run IDs already
//!   on disk.
//! * **Reporting layer** — aggregate a store into the
//!   [`muchisim_viz::ReportTable`] comparison machinery, including
//!   *re-pricing*: re-running the energy/cost post-processing under
//!   different model parameters without re-simulating (paper §III-E).
//!
//! # Example
//!
//! ```
//! use muchisim_dse::{BatchRunner, ExperimentSpec, JsonlStore, table_from_store};
//!
//! # fn main() -> Result<(), muchisim_dse::DseError> {
//! let spec = ExperimentSpec::from_json(r#"{
//!     "name": "noc_width",
//!     "base": ["hierarchy.chiplet.x=4", "hierarchy.chiplet.y=4"],
//!     "axes": [{"name": "noc", "points": [
//!         {"label": "32b", "set": ["noc.width_bits=32"]},
//!         {"label": "64b", "set": ["noc.width_bits=64"]}
//!     ]}],
//!     "apps": ["bfs"],
//!     "datasets": [{"rmat": {"scale": 5, "seed": 1}}]
//! }"#)?;
//! let dir = std::env::temp_dir().join("muchisim-dse-doc");
//! let path = dir.join("noc_width.jsonl");
//! # let _ = std::fs::remove_file(&path);
//! let mut store = JsonlStore::open(&path)?;
//! let outcome = BatchRunner::new(2).run_spec(&spec, &mut store)?;
//! assert_eq!(outcome.executed + outcome.skipped, 2);
//! let table = table_from_store(&store, &[])?;
//! assert_eq!(table.rows.len(), 2);
//! # let _ = std::fs::remove_dir_all(&dir);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod overrides;
mod report;
mod runner;
mod spec;
mod store;

pub use error::DseError;
pub use overrides::{
    apply_to_config, overrides_from_value, parse_assignment, parse_json_or_string, Override,
};
pub use report::{repriced_report_for, table_from_store};
pub use runner::{BatchOutcome, BatchRunner};
pub use spec::{slug, Axis, AxisPoint, DatasetSpec, ExperimentSpec, RunPoint};
pub use store::{JsonlStore, RunRecord};
