//! Trace-checksum helpers shared by the verification suites.
//!
//! The golden-trace tests, the checkpoint-determinism matrix, and the
//! kill-switch tests all need the same notion of "everything the
//! simulation *means*", hashed into one comparable word. This module is
//! that single definition: FNV-1a over the runtime, the full counter
//! set (via its canonical JSON), and every statistics frame's scalar
//! deltas plus dense per-tile activity grids.
//!
//! Dense grids — not the raw sparse `(tile, value)` pairs — are hashed
//! deliberately: the order in which workers contribute sparse pairs is
//! a host-side artifact, while the dense grid is the simulated
//! quantity. Two runs with equal [`trace_checksum`] are bit-identical
//! in every counter, frame delta, and activity grid.

use crate::tile::SimResult;

/// FNV-1a, 64-bit. The exact hash behind the committed golden-trace
/// checksums — do not change the constants without re-blessing
/// `tests/golden/traces.json`.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher at the FNV-1a offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian byte order) into the hash.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Checksums everything the simulation *means*: runtime, every counter,
/// and per-frame scalar deltas plus the dense per-tile activity grids.
///
/// Host-side fields (`host_seconds`, `host_phase_ns`,
/// `host_router_visits`, `host_threads`, `host_state_bytes`) are
/// deliberately excluded — they vary run to run
/// without any simulated-behavior change.
pub fn trace_checksum(result: &SimResult, total_tiles: u32) -> u64 {
    let mut h = Fnv::new();
    h.u64(result.runtime_cycles);
    // counters via their canonical JSON (field order is declaration
    // order in the shim, floats are bit-exact across runs)
    h.bytes(
        serde_json::to_string(&result.counters)
            .expect("counters serialize")
            .as_bytes(),
    );
    h.u64(result.frames.interval_cycles);
    h.u64(result.frames.len() as u64);
    for frame in &result.frames.frames {
        h.u64(frame.index);
        h.u64(frame.start_cycle);
        h.u64(frame.tasks_delta);
        h.u64(frame.injected_delta);
        h.u64(frame.ejected_delta);
        for grid in [frame.router_grid(total_tiles), frame.pu_grid(total_tiles)] {
            for v in grid {
                h.u64(v as u64);
            }
        }
        let mut iq = vec![0u64; total_tiles as usize];
        for &(t, v) in &frame.iq_occupancy {
            iq[t as usize] += v as u64;
        }
        for v in iq {
            h.u64(v);
        }
    }
    h.finish()
}

/// Like [`trace_checksum`], but restricted to the *shard-split-invariant*
/// portion of the result: [`NocCounters::onchip_flit_mm`] is zeroed
/// before hashing, because that one accumulator is an `f64` summed in
/// worker order — the simulated schedule behind it is identical across
/// thread counts, but float addition is not associative, so its last
/// bits follow the shard split (see the `BFS-32x32-mesh-hub@t2`/`@t4`
/// rows of `tests/golden_traces.rs`).
///
/// Use this to compare runs under *different* host configurations
/// (thread counts, or a checkpoint written under one split and resumed
/// under another); use [`trace_checksum`] when the split is fixed.
///
/// [`NocCounters::onchip_flit_mm`]: muchisim_noc::NocCounters
pub fn schedule_checksum(result: &SimResult, total_tiles: u32) -> u64 {
    let mut normalized = result.clone();
    normalized.counters.noc.onchip_flit_mm = 0.0;
    trace_checksum(&normalized, total_tiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64-bit reference values.
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn u64_hashes_little_endian_bytes() {
        let mut a = Fnv::new();
        a.u64(0x0102_0304_0506_0708);
        let mut b = Fnv::new();
        b.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
