//! The design-under-test (DUT) configuration and its builder.

use crate::error::ConfigError;
use crate::hierarchy::{Extent, Hierarchy, LinkClass};
use crate::params::ModelParams;
use crate::telemetry::TelemetryParams;
use crate::traffic::TrafficParams;
use crate::units::{Frequency, TimePs};
use serde::{Deserialize, Serialize};

/// NoC topology (paper §III-A: 2D mesh and folded torus, both with
/// dimension-ordered routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NocTopology {
    /// 2D mesh.
    #[default]
    Mesh,
    /// 2D folded torus (wrap-around links in both dimensions).
    FoldedTorus,
}

/// TSU task-scheduling policy (paper §III-A).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Rotate fairly among task-type queues with pending work.
    #[default]
    RoundRobin,
    /// Always serve the lowest-listed task id with pending work first.
    ///
    /// The vector lists task ids from highest to lowest priority; ids not
    /// listed come after, in id order.
    Priority(Vec<u8>),
    /// Serve the fullest queue first, to stop full queues from
    /// back-pressuring the network.
    OccupancyBased,
}

/// How chiplets are integrated in a package (paper §III-A/§III-E).
///
/// The interposer choice affects PHY bandwidth density, PHY area, energy
/// per bit, and packaging cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InterposerKind {
    /// Chiplets on an organic substrate (MCM-style links).
    #[default]
    OrganicSubstrate,
    /// Chiplets on a passive silicon interposer.
    SiliconInterposer,
}

/// DRAM prefetching configuration (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PrefetchConfig {
    /// Fetch line N+1 on access to line N.
    pub next_line: bool,
    /// Prefetch data for tasks waiting in input queues across one pointer
    /// indirection (enabled by task splitting at indirections).
    pub pointer_indirection: bool,
}

/// On-package DRAM configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// HBM devices integrated with each compute chiplet.
    pub devices_per_chiplet: u32,
    /// Prefetching configuration.
    pub prefetch: PrefetchConfig,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            devices_per_chiplet: 1,
            prefetch: PrefetchConfig::default(),
        }
    }
}

/// Memory-system mode (paper §III-A "Private Local Memory").
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum MemoryConfig {
    /// The tile-distributed SRAM is the system's main memory; each tile's
    /// PLM is a scratchpad holding its share of the address space.
    #[default]
    Scratchpad,
    /// The PLM acts as a write-back cache in front of on-package DRAM.
    Dram(DramConfig),
}

impl MemoryConfig {
    /// Whether DRAM is present in the design.
    pub fn has_dram(&self) -> bool {
        matches!(self, MemoryConfig::Dram(_))
    }
}

/// Network-on-chip configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Topology of every physical NoC.
    pub topology: NocTopology,
    /// Link/flit width in bits (paper examples: 32, 64).
    pub width_bits: u32,
    /// Number of independent physical NoCs (paper: up to three evaluated,
    /// one per task type).
    pub num_physical: u32,
    /// Ruche channels connecting every R-th router, if any (paper §III-A).
    pub ruche_factor: Option<u32>,
    /// Router port buffer depth in flits.
    pub buffer_depth: u32,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            topology: NocTopology::Mesh,
            width_bits: 64,
            num_physical: 1,
            ruche_factor: None,
            buffer_depth: 4,
        }
    }
}

/// The largest capacity, in flits, of a NoC buffer — a router input
/// queue (`noc.buffer_depth`) or a tile's inject queue (twice
/// `queues.cq_capacity`). The NoC keeps a queue's reserved flits in the
/// low 31 bits of a `u32` whose top bit is a flag, and a queue may hold
/// one message (up to `u16::MAX` flits) beyond its capacity.
pub const MAX_QUEUE_FLITS: u32 = (1 << 31) - (1 << 16);

/// Sizes of the task queues mapped into the PLM (paper §III-A "Queues").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Capacity of each task-type input queue (IQ), in messages.
    pub iq_capacity: u32,
    /// Capacity of each channel queue (CQ) draining into the NoC.
    pub cq_capacity: u32,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            iq_capacity: 64,
            cq_capacity: 32,
        }
    }
}

/// Peak (design) and operating frequency of a clock domain (paper §III-C
/// "Frequency").
///
/// Peak frequency affects silicon area; operating frequency affects power
/// through voltage scaling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockDomain {
    /// Peak frequency the design supports.
    pub peak: Frequency,
    /// Frequency at which the DUT is evaluated.
    pub operating: Frequency,
}

impl Default for ClockDomain {
    /// 1 GHz peak and operating (the paper's default).
    fn default() -> Self {
        ClockDomain {
            peak: Frequency::default(),
            operating: Frequency::default(),
        }
    }
}

impl ClockDomain {
    /// A domain whose peak and operating frequency are both `f`.
    pub fn at(f: Frequency) -> Self {
        ClockDomain {
            peak: f,
            operating: f,
        }
    }
}

/// Output verbosity (paper §III-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum Verbosity {
    /// Only aggregated statistics at the end of the run.
    #[default]
    V0,
    /// Aggregate metrics for each time frame.
    V1,
    /// Per-tile metrics for each frame (required for heat maps).
    V2,
    /// Also per-tile queue occupancies for every task type.
    V3,
}

/// The full design-under-test configuration.
///
/// Construct with [`SystemConfig::builder`]. All fields are public — a
/// `SystemConfig` is passive configuration data in the C-struct spirit —
/// but [`SystemConfig::validate`] should be re-run after manual edits
/// (builder-produced configs are always valid).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Tile hierarchy; the global grid is derived from it.
    pub hierarchy: Hierarchy,
    /// Processing units per tile (sharing the tile's PLM).
    pub pus_per_tile: u32,
    /// PU clock domain.
    pub pu_clock: ClockDomain,
    /// NoC clock domain (any ratio to the PU clock is supported).
    pub noc_clock: ClockDomain,
    /// Private local memory per tile, in KiB.
    pub sram_kib_per_tile: u32,
    /// Memory mode: scratchpad or PLM-as-cache over DRAM.
    pub memory: MemoryConfig,
    /// NoC configuration.
    pub noc: NocConfig,
    /// Task queue sizes.
    pub queues: QueueConfig,
    /// TSU scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Chiplet integration style.
    pub interposer: InterposerKind,
    /// Statistic-frame length in NoC cycles (paper §III-D "frames").
    pub frame_interval_cycles: u64,
    /// Path of a JSONL file receiving the full NoC injection trace — one
    /// `(cycle, src, dst, task, payload)` event per packet entering the
    /// network — written when the run completes. A recorded trace can be
    /// replayed app-free under a different `noc.*` configuration (see the
    /// `muchisim-traffic` crate). `None` disables recording.
    pub noc_trace: Option<String>,
    /// Checkpoint cadence in NoC cycles: the parallel driver writes a
    /// full-state snapshot to `checkpoint_path` at the first executed
    /// cycle at or past each multiple (so time leaping may land the
    /// snapshot a little late, never early). `None` disables periodic
    /// checkpointing. Requires `checkpoint_path`; incompatible with
    /// `noc_trace`, whose recorded events are not captured by snapshots.
    pub checkpoint_every: Option<u64>,
    /// Snapshot file path (see `muchisim-core`'s `snapshot` module for
    /// the format). Writes are atomic (temp file + rename), so the file
    /// always holds the latest complete snapshot.
    pub checkpoint_path: Option<String>,
    /// Resume from `checkpoint_path` if the file exists; start fresh
    /// when it does not (so one configuration works for both the first
    /// launch and every relaunch). An existing-but-invalid file is an
    /// error, never a silent fresh start.
    pub checkpoint_resume: bool,
    /// Synthetic traffic-generator parameters (used by the traffic
    /// benchmarks; inert for ordinary applications). Sweepable like any
    /// other field: `traffic.rate=0.08`, `traffic.seed=9`.
    pub traffic: TrafficParams,
    /// Telemetry sampling cadence, metric-stream destinations, and ward
    /// stop-conditions. Default-off; absent in pre-telemetry JSON
    /// configs, which deserialize to the disabled default. Sweepable like
    /// any other field: `telemetry.sample_every=1024`,
    /// `telemetry.wards.stall_cycles=50000`.
    #[serde(default)]
    pub telemetry: TelemetryParams,
    /// Whether the cycle driver may leap over provably event-free cycle
    /// ranges instead of stepping them one by one.
    ///
    /// Leaping is an exact host-time optimization: results (runtime
    /// cycles, every counter, every statistics frame) are bit-identical
    /// with the knob on or off. It exists so ablation studies can measure
    /// the lockstep driver, and as a kill switch (`MUCHISIM_NO_LEAP`).
    pub time_leap: bool,
    /// Output verbosity.
    pub verbosity: Verbosity,
    /// Transistor technology node in nm (paper default: 7).
    pub technology_nm: u32,
    /// All latency/energy/area/cost model parameters.
    pub params: ModelParams,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            hierarchy: Hierarchy::default(),
            pus_per_tile: 1,
            pu_clock: ClockDomain::default(),
            noc_clock: ClockDomain::default(),
            sram_kib_per_tile: 128,
            memory: MemoryConfig::default(),
            noc: NocConfig::default(),
            queues: QueueConfig::default(),
            scheduling: SchedulingPolicy::default(),
            interposer: InterposerKind::default(),
            frame_interval_cycles: 40_000,
            noc_trace: None,
            checkpoint_every: None,
            checkpoint_path: None,
            checkpoint_resume: false,
            traffic: TrafficParams::default(),
            telemetry: TelemetryParams::default(),
            time_leap: true,
            verbosity: Verbosity::default(),
            technology_nm: 7,
            params: ModelParams::default(),
        }
    }
}

impl SystemConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::new()
    }

    /// Global grid width in tiles.
    pub fn width(&self) -> u32 {
        self.hierarchy.grid_width()
    }

    /// Global grid height in tiles.
    pub fn height(&self) -> u32 {
        self.hierarchy.grid_height()
    }

    /// Total tiles in the system.
    pub fn total_tiles(&self) -> u64 {
        self.hierarchy.total_tiles()
    }

    /// Network diameter in hops for the configured topology.
    fn network_diameter(&self) -> u32 {
        let w = self.width();
        let h = self.height();
        match self.noc.topology {
            NocTopology::Mesh => (w - 1) + (h - 1),
            NocTopology::FoldedTorus => w / 2 + h / 2,
        }
    }

    /// The extra idle-confirmation cycles added by the hardware
    /// termination-detection condition (paper §III-C: 2 × diameter).
    pub fn termination_latency_cycles(&self) -> u64 {
        2 * self.network_diameter() as u64
    }

    /// Flit payload width in bytes.
    pub fn flit_bytes(&self) -> u32 {
        self.noc.width_bits / 8
    }

    /// Extra latency (beyond the router traversal) for one hop over `class`,
    /// in NoC cycles of the operating clock.
    pub fn hop_extra_cycles(&self, class: LinkClass) -> u64 {
        let link = &self.params.link;
        let extra = match class {
            LinkClass::OnChip => TimePs::ZERO,
            LinkClass::DieToDie => TimePs::ns(link.d2d_latency_ns),
            LinkClass::OffPackage => TimePs::ns(link.d2d_latency_ns + link.io_die_latency_ns),
            LinkClass::InterNode => TimePs::ns(
                link.d2d_latency_ns + link.io_die_latency_ns + link.inter_node_latency_ns,
            ),
        };
        self.noc_clock.operating.cycles_for_ps(extra.as_ps())
    }

    /// SRAM access latency for this tile size, in PU cycles, applying the
    /// bank-scaling latency model (paper §III-D: +1 ns per quadrupling step
    /// beyond 512 KiB).
    pub fn sram_latency_cycles(&self) -> u64 {
        let s = &self.params.sram;
        let mut latency_ns = s.access_latency_ns;
        let mut cap = s.latency_step_threshold_kib;
        while cap < self.sram_kib_per_tile {
            cap *= 4;
            latency_ns += s.latency_step_ns;
        }
        self.pu_clock
            .operating
            .cycles_for_ps(TimePs::ns(latency_ns).as_ps())
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found; builder-produced configs
    /// have already passed this check.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.hierarchy.validate()?;
        if self.pus_per_tile == 0 {
            return Err(ConfigError::NoPus);
        }
        if self.sram_kib_per_tile == 0 {
            return Err(ConfigError::NoSram);
        }
        if self.noc.width_bits == 0 || !self.noc.width_bits.is_multiple_of(8) {
            return Err(ConfigError::InvalidNocWidth {
                bits: self.noc.width_bits,
            });
        }
        if self.noc.num_physical == 0 {
            return Err(ConfigError::NoNocs);
        }
        if let Some(r) = self.noc.ruche_factor {
            if r < 2 || !self.hierarchy.chiplet.x.is_multiple_of(r) {
                return Err(ConfigError::InvalidRucheFactor { factor: r });
            }
        }
        if self.queues.iq_capacity == 0 {
            return Err(ConfigError::EmptyQueue { queue: "input" });
        }
        if self.queues.cq_capacity == 0 {
            return Err(ConfigError::EmptyQueue { queue: "channel" });
        }
        if self.noc.buffer_depth > MAX_QUEUE_FLITS {
            return Err(ConfigError::LimitExceeded {
                what: "noc.buffer_depth",
                max: u64::from(MAX_QUEUE_FLITS),
            });
        }
        if self.queues.cq_capacity > MAX_QUEUE_FLITS / 2 {
            return Err(ConfigError::LimitExceeded {
                what: "queues.cq_capacity",
                max: u64::from(MAX_QUEUE_FLITS / 2),
            });
        }
        if self.pu_clock.operating > self.pu_clock.peak {
            return Err(ConfigError::OperatingAbovePeak { domain: "pu" });
        }
        if self.noc_clock.operating > self.noc_clock.peak {
            return Err(ConfigError::OperatingAbovePeak { domain: "noc" });
        }
        if let MemoryConfig::Dram(d) = &self.memory {
            if d.devices_per_chiplet == 0 || self.params.hbm.channels_per_device == 0 {
                return Err(ConfigError::NoDramChannels);
            }
        }
        if self.checkpoint_every == Some(0) {
            return Err(ConfigError::Checkpoint {
                why: "checkpoint_every must be at least 1 cycle",
            });
        }
        if self.checkpoint_every.is_some() && self.checkpoint_path.is_none() {
            return Err(ConfigError::Checkpoint {
                why: "checkpoint_every requires checkpoint_path",
            });
        }
        if self.checkpoint_resume && self.checkpoint_path.is_none() {
            return Err(ConfigError::Checkpoint {
                why: "checkpoint_resume requires checkpoint_path",
            });
        }
        if (self.checkpoint_every.is_some() || self.checkpoint_resume) && self.noc_trace.is_some() {
            return Err(ConfigError::Checkpoint {
                why: "checkpointing is incompatible with noc_trace",
            });
        }
        self.traffic.validate()?;
        // a packet counts its flits in 16 bits: the header flit, then the
        // payload at `flit_bytes` per flit
        let max_words = (u64::from(u16::MAX) - 1) * u64::from(self.flit_bytes()) / 4;
        if u64::from(self.traffic.payload_words_max) > max_words {
            return Err(ConfigError::LimitExceeded {
                what: "traffic.payload_words_max",
                max: max_words,
            });
        }
        self.telemetry.validate()?;
        if self.telemetry.snapshot_on_trip {
            if self.checkpoint_path.is_none() {
                return Err(ConfigError::Telemetry {
                    why: "snapshot_on_trip requires checkpoint_path",
                });
            }
            if !self.telemetry.enabled() {
                return Err(ConfigError::Telemetry {
                    why: "snapshot_on_trip requires an enabled ward or metrics stream",
                });
            }
        }
        Ok(())
    }
}

/// Builder for [`SystemConfig`] (C-BUILDER, non-consuming).
#[derive(Debug, Clone, Default)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Starts from [`SystemConfig::default`].
    pub(crate) fn new() -> Self {
        SystemConfigBuilder {
            cfg: SystemConfig::default(),
        }
    }

    /// Sets tiles per chiplet.
    pub fn chiplet_tiles(&mut self, x: u32, y: u32) -> &mut Self {
        self.cfg.hierarchy.chiplet = Extent::new(x, y);
        self
    }

    /// Sets chiplets per package.
    pub fn package_chiplets(&mut self, x: u32, y: u32) -> &mut Self {
        self.cfg.hierarchy.package = Extent::new(x, y);
        self
    }

    /// Sets packages per node.
    pub fn node_packages(&mut self, x: u32, y: u32) -> &mut Self {
        self.cfg.hierarchy.node = Extent::new(x, y);
        self
    }

    /// Sets nodes in the cluster.
    pub fn cluster_nodes(&mut self, x: u32, y: u32) -> &mut Self {
        self.cfg.hierarchy.cluster = Extent::new(x, y);
        self
    }

    /// Sets PUs per tile.
    pub fn pus_per_tile(&mut self, n: u32) -> &mut Self {
        self.cfg.pus_per_tile = n;
        self
    }

    /// Sets PU peak and operating frequency together.
    pub fn pu_frequency(&mut self, f: Frequency) -> &mut Self {
        self.cfg.pu_clock = ClockDomain::at(f);
        self
    }

    /// Sets the PU clock domain explicitly.
    pub fn pu_clock(&mut self, clock: ClockDomain) -> &mut Self {
        self.cfg.pu_clock = clock;
        self
    }

    /// Sets NoC peak and operating frequency together.
    pub fn noc_frequency(&mut self, f: Frequency) -> &mut Self {
        self.cfg.noc_clock = ClockDomain::at(f);
        self
    }

    /// Sets the NoC clock domain explicitly.
    pub fn noc_clock(&mut self, clock: ClockDomain) -> &mut Self {
        self.cfg.noc_clock = clock;
        self
    }

    /// Sets SRAM per tile in KiB.
    pub fn sram_kib_per_tile(&mut self, kib: u32) -> &mut Self {
        self.cfg.sram_kib_per_tile = kib;
        self
    }

    /// Selects scratchpad memory mode (no DRAM).
    pub(crate) fn scratchpad(&mut self) -> &mut Self {
        self.cfg.memory = MemoryConfig::Scratchpad;
        self
    }

    /// Selects cache-over-DRAM memory mode.
    pub fn dram(&mut self, dram: DramConfig) -> &mut Self {
        self.cfg.memory = MemoryConfig::Dram(dram);
        self
    }

    /// Sets the NoC topology.
    pub fn noc_topology(&mut self, topology: NocTopology) -> &mut Self {
        self.cfg.noc.topology = topology;
        self
    }

    /// Sets the NoC link width in bits.
    pub fn noc_width_bits(&mut self, bits: u32) -> &mut Self {
        self.cfg.noc.width_bits = bits;
        self
    }

    /// Sets the number of physical NoCs.
    pub fn physical_nocs(&mut self, n: u32) -> &mut Self {
        self.cfg.noc.num_physical = n;
        self
    }

    /// Enables Ruche channels every `factor` routers.
    pub fn ruche_factor(&mut self, factor: u32) -> &mut Self {
        self.cfg.noc.ruche_factor = Some(factor);
        self
    }

    /// Sets router buffer depth in flits.
    pub fn buffer_depth(&mut self, depth: u32) -> &mut Self {
        self.cfg.noc.buffer_depth = depth;
        self
    }

    /// Sets task queue capacities.
    pub fn queues(&mut self, iq: u32, cq: u32) -> &mut Self {
        self.cfg.queues = QueueConfig {
            iq_capacity: iq,
            cq_capacity: cq,
        };
        self
    }

    /// Sets the TSU scheduling policy.
    pub fn scheduling(&mut self, policy: SchedulingPolicy) -> &mut Self {
        self.cfg.scheduling = policy;
        self
    }

    /// Sets the chiplet integration style.
    pub fn interposer(&mut self, kind: InterposerKind) -> &mut Self {
        self.cfg.interposer = kind;
        self
    }

    /// Sets the statistics frame interval in NoC cycles.
    pub fn frame_interval_cycles(&mut self, cycles: u64) -> &mut Self {
        self.cfg.frame_interval_cycles = cycles;
        self
    }

    /// Records the NoC injection trace to a JSONL file at `path`.
    pub fn noc_trace(&mut self, path: impl Into<String>) -> &mut Self {
        self.cfg.noc_trace = Some(path.into());
        self
    }

    /// Enables periodic checkpointing: a snapshot to `path` roughly
    /// every `every` NoC cycles.
    pub fn checkpoint(&mut self, path: impl Into<String>, every: u64) -> &mut Self {
        self.cfg.checkpoint_path = Some(path.into());
        self.cfg.checkpoint_every = Some(every);
        self
    }

    /// Replaces the synthetic-traffic parameters.
    pub fn traffic(&mut self, traffic: TrafficParams) -> &mut Self {
        self.cfg.traffic = traffic;
        self
    }

    /// Replaces the telemetry/ward parameters.
    pub fn telemetry(&mut self, telemetry: TelemetryParams) -> &mut Self {
        self.cfg.telemetry = telemetry;
        self
    }

    /// Enables or disables the time-leaping cycle driver (default on).
    pub fn time_leap(&mut self, enabled: bool) -> &mut Self {
        self.cfg.time_leap = enabled;
        self
    }

    /// Sets the output verbosity.
    pub fn verbosity(&mut self, v: Verbosity) -> &mut Self {
        self.cfg.verbosity = v;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid setting.
    pub fn build(&self) -> Result<SystemConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SystemConfig::default().validate().is_ok());
    }

    #[test]
    fn builder_builds_a_torus_multi_chiplet() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(16, 16)
            .package_chiplets(2, 2)
            .noc_topology(NocTopology::FoldedTorus)
            .sram_kib_per_tile(256)
            .build()
            .unwrap();
        assert_eq!(cfg.total_tiles(), 32 * 32);
        assert_eq!(cfg.network_diameter(), 32);
    }

    #[test]
    fn mesh_diameter() {
        let cfg = SystemConfig::default(); // 32x32 mesh
        assert_eq!(cfg.network_diameter(), 62);
        assert_eq!(cfg.termination_latency_cycles(), 124);
    }

    #[test]
    fn invalid_noc_width_rejected() {
        let err = SystemConfig::builder()
            .noc_width_bits(12)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidNocWidth { bits: 12 });
    }

    #[test]
    fn ruche_factor_must_divide_chiplet_width() {
        let err = SystemConfig::builder()
            .chiplet_tiles(32, 32)
            .ruche_factor(5)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidRucheFactor { factor: 5 });
        assert!(SystemConfig::builder()
            .chiplet_tiles(32, 32)
            .ruche_factor(4)
            .build()
            .is_ok());
    }

    #[test]
    fn noc_buffers_beyond_the_credit_word_rejected() {
        let limit = |what, max: u32| ConfigError::LimitExceeded {
            what,
            max: u64::from(max),
        };
        let mut b = SystemConfig::builder();
        b.buffer_depth(MAX_QUEUE_FLITS + 1);
        assert_eq!(
            b.build().unwrap_err(),
            limit("noc.buffer_depth", MAX_QUEUE_FLITS)
        );
        // the inject queue holds 2 x cq_capacity flits
        let mut b = SystemConfig::builder();
        b.queues(64, MAX_QUEUE_FLITS / 2 + 1);
        assert_eq!(
            b.build().unwrap_err(),
            limit("queues.cq_capacity", MAX_QUEUE_FLITS / 2)
        );
        let mut b = SystemConfig::builder();
        b.buffer_depth(MAX_QUEUE_FLITS)
            .queues(64, MAX_QUEUE_FLITS / 2);
        assert!(b.build().is_ok());
    }

    #[test]
    fn a_traffic_payload_beyond_the_flit_count_rejected() {
        // 32-bit flits: 65 534 words and the header make 65 535 flits
        let mut cfg = SystemConfig::builder().noc_width_bits(32).build().unwrap();
        cfg.traffic.payload_words_max = 65_534;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.traffic.payload_words_max = 65_535;
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::LimitExceeded {
                what: "traffic.payload_words_max",
                max: 65_534,
            }
        );
        // twice the width carries twice the words
        cfg.noc.width_bits = 64;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn operating_above_peak_rejected() {
        let mut b = SystemConfig::builder();
        b.pu_clock(ClockDomain {
            peak: Frequency::ghz(1.0),
            operating: Frequency::ghz(2.0),
        });
        assert_eq!(
            b.build().unwrap_err(),
            ConfigError::OperatingAbovePeak { domain: "pu" }
        );
    }

    #[test]
    fn sram_latency_scales_beyond_threshold() {
        let small = SystemConfig::builder()
            .sram_kib_per_tile(256)
            .build()
            .unwrap();
        // 0.82ns at 1GHz -> 1 cycle
        assert_eq!(small.sram_latency_cycles(), 1);
        let big = SystemConfig::builder()
            .sram_kib_per_tile(1024)
            .build()
            .unwrap();
        // beyond 512KiB: +1ns -> 1.82ns -> 2 cycles
        assert_eq!(big.sram_latency_cycles(), 2);
        let huge = SystemConfig::builder()
            .sram_kib_per_tile(4096)
            .build()
            .unwrap();
        // two quadrupling steps: 2.82ns -> 3 cycles
        assert_eq!(huge.sram_latency_cycles(), 3);
    }

    #[test]
    fn hop_extra_cycles_ordered_by_link_class() {
        let cfg = SystemConfig::default();
        let on = cfg.hop_extra_cycles(LinkClass::OnChip);
        let d2d = cfg.hop_extra_cycles(LinkClass::DieToDie);
        let off = cfg.hop_extra_cycles(LinkClass::OffPackage);
        let node = cfg.hop_extra_cycles(LinkClass::InterNode);
        assert_eq!(on, 0);
        assert_eq!(d2d, 4); // 4ns at 1GHz
        assert_eq!(off, 24); // + 20ns I/O die
        assert!(node > off);
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(8, 8)
            .dram(DramConfig::default())
            .ruche_factor(2)
            .scheduling(SchedulingPolicy::Priority(vec![1, 0]))
            .build()
            .unwrap();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn time_leap_defaults_on_and_is_toggleable() {
        assert!(SystemConfig::default().time_leap);
        let cfg = SystemConfig::builder().time_leap(false).build().unwrap();
        assert!(!cfg.time_leap);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert!(!back.time_leap);
    }

    #[test]
    fn traffic_and_trace_knobs_default_and_round_trip() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.noc_trace, None);
        assert_eq!(cfg.traffic, crate::TrafficParams::default());
        let traffic = crate::TrafficParams {
            rate: 0.25,
            ..crate::TrafficParams::default()
        };
        let cfg = SystemConfig::builder()
            .traffic(traffic.clone())
            .noc_trace("target/noc.trace.jsonl")
            .build()
            .unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.traffic, traffic);
        assert_eq!(back.noc_trace.as_deref(), Some("target/noc.trace.jsonl"));
        // invalid traffic parameters fail whole-config validation
        let mut bad = SystemConfig::default();
        bad.traffic.rate = 7.0;
        assert_eq!(
            bad.validate().unwrap_err(),
            ConfigError::Traffic {
                why: "rate must be a finite value in [0, 1]"
            }
        );
    }

    #[test]
    fn telemetry_knobs_default_round_trip_and_cross_validate() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.telemetry, crate::TelemetryParams::default());
        // a config serialized before the telemetry field existed still loads
        let mut value = Serialize::to_value(&cfg);
        if let serde::value::Value::Object(m) = &mut value {
            assert!(m.remove("telemetry").is_some());
        }
        let back = SystemConfig::from_value(&value).unwrap();
        assert_eq!(back.telemetry, crate::TelemetryParams::default());
        // the builder + whole-config validation path
        let telemetry = crate::TelemetryParams {
            sample_every: Some(512),
            wards: crate::WardParams {
                stall_cycles: Some(20_000),
                ..crate::WardParams::default()
            },
            ..crate::TelemetryParams::default()
        };
        let cfg = SystemConfig::builder()
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        let round: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(round.telemetry, telemetry);
        // snapshot_on_trip needs a checkpoint path to dump into
        let mut bad = cfg;
        bad.telemetry.snapshot_on_trip = true;
        assert_eq!(
            bad.validate().unwrap_err(),
            ConfigError::Telemetry {
                why: "snapshot_on_trip requires checkpoint_path"
            }
        );
        bad.checkpoint_path = Some("target/trip.snap".into());
        assert!(bad.validate().is_ok());
    }

    #[test]
    fn scheduling_default_is_round_robin() {
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::RoundRobin);
    }

    #[test]
    fn torus_diameter_half_of_mesh() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(16, 16)
            .noc_topology(NocTopology::FoldedTorus)
            .build()
            .unwrap();
        assert_eq!(cfg.network_diameter(), 16);
    }
}
