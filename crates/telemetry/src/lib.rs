//! # muchisim-telemetry
//!
//! Live observability for the MuchiSim cycle driver: one capture
//! schedule ([`Cadence`]) and one stream. Periodic [`MetricsSample`]s and
//! statistics [`Frame`]s are merged by the worker-barrier leader and
//! cross a bounded [`TelemetryHub`] channel that decouples the hot loop
//! from subscriber I/O, to pluggable [`Subscriber`]s (JSONL, CSV,
//! in-memory, stdout progress); the [`WardEngine`] evaluates declarative
//! stop-conditions ([`WardParams`](muchisim_config::WardParams)) on the
//! sample stream.
//!
//! The division of labor with `muchisim-core`:
//!
//! * each worker deposits a [`WorkerSample`] of its own cumulative
//!   counters when a sample closes (cheap: a few dozen u64 reads), and a
//!   copy of its partial frame when a frame closes and someone listens;
//! * the barrier leader folds them through a [`SampleAggregator`] into
//!   one [`MetricsSample`] (cumulative values, interval deltas, latency
//!   percentiles, host throughput);
//! * the sample goes to the [`WardEngine`] (synchronously — ward trips
//!   must be deterministic) and to the [`TelemetryHub`] (`try_send`,
//!   never blocking — a slow subscriber drops samples rather than
//!   stalling the simulation).
//!
//! Determinism: every field a ward may read is derived from simulated
//! state and merged commutatively, so a ward trips at the same simulated
//! cycle regardless of host-thread count, time-leap, or active-list
//! mode. Host-side fields (`host_ns`, `cyc_per_s`) exist for humans and
//! are never consulted by wards.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cadence;
mod frames;
mod hub;
mod sample;
mod subscribers;
mod wards;

pub use cadence::Cadence;
pub use frames::{Frame, FrameLog};
pub use hub::TelemetryHub;
pub use sample::{MetricsSample, SampleAggregator, WorkerSample, SCHEMA_VERSION};
pub use subscribers::{
    CsvSubscriber, FrameRecord, JsonlSubscriber, MemorySubscriber, ProgressSubscriber, Subscriber,
};
pub use wards::{WardEngine, WardTrip};
