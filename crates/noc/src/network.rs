//! The whole-network facade: shards + shared state.

use crate::counters::NocCounters;
use crate::credit::Credit;
use crate::packet::Packet;
use crate::port::InPort;
use crate::shard::Shard;
use crate::topo::TopoInfo;
use muchisim_config::SystemConfig;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};

/// Splits `width` columns into at most `num_shards` contiguous ranges
/// whose boundaries are multiples of `align`, returning the exclusive end
/// column of each range.
///
/// Degenerate inputs degrade instead of panicking: asking for more shards
/// than columns (or than alignment units) yields fewer, non-empty shards;
/// an `align` of 0 or beyond `width` collapses to a single shard; a zero
/// `width` yields no shards at all.
pub fn split_columns(width: u32, num_shards: usize, align: u32) -> Vec<u32> {
    if width == 0 {
        return Vec::new();
    }
    let align = align.clamp(1, width);
    let units = width / align; // alignment units (last unit absorbs remainder)
    let n = (num_shards as u32).clamp(1, units);
    let base = units / n;
    let extra = units % n;
    let mut boundaries = Vec::with_capacity(n as usize);
    let mut cursor = 0;
    for i in 0..n {
        cursor += (base + u32::from(i < extra)) * align;
        boundaries.push(cursor);
    }
    *boundaries.last_mut().expect("n >= 1") = width;
    boundaries
}

/// Destination for packets that reach their tile (the bridge into the
/// core simulator's input queues).
///
/// Implementations refuse a packet (returning it) when the destination
/// queue is full, which back-pressures the network (paper §III-A).
pub trait EjectSink {
    /// Offers `pkt`, delivered at `tile`. Returns the packet back if it
    /// cannot be accepted this cycle.
    fn offer(&mut self, tile: u32, pkt: Packet) -> Result<(), Packet>;
}

/// An [`EjectSink`] that accepts everything, collecting `(tile, packet)`
/// pairs. Useful for tests and standalone NoC studies.
#[derive(Debug, Default)]
pub struct DrainSink {
    /// Delivered packets in arrival order.
    pub drained: Vec<(u32, Packet)>,
}

impl EjectSink for DrainSink {
    fn offer(&mut self, tile: u32, pkt: Packet) -> Result<(), Packet> {
        self.drained.push((tile, pkt));
        Ok(())
    }
}

/// Construction parameters for a [`Network`] plane.
#[derive(Debug, Clone)]
pub struct NetworkParams {
    /// Topology and latency data.
    pub topo: TopoInfo,
    /// Capacity of each tile's inject queue, in flits.
    pub inject_capacity_flits: u32,
    /// Whether shards accumulate per-router busy cycles for heat-map
    /// frames. Off by default below verbosity V2: the per-router grid is
    /// pure overhead when no frame will ever read it.
    pub track_busy: bool,
    /// Whether shards record every injection as a [`crate::TraceEvent`]
    /// (driven by `SystemConfig::noc_trace`).
    pub record_trace: bool,
}

impl NetworkParams {
    /// Derives network parameters from a system configuration.
    pub fn from_system(cfg: &SystemConfig) -> Self {
        NetworkParams {
            topo: TopoInfo::from_system(cfg),
            // the inject queue models the channel-queue drain port
            inject_capacity_flits: cfg.queues.cq_capacity * 2,
            track_busy: cfg.verbosity >= muchisim_config::Verbosity::V2,
            record_trace: cfg.noc_trace.is_some(),
        }
    }

    /// Enables or disables per-router busy tracking explicitly
    /// (standalone NoC studies that read [`Network::take_busy`] without a
    /// full system configuration).
    pub fn track_busy(mut self, enabled: bool) -> Self {
        self.track_busy = enabled;
        self
    }

    /// Enables or disables injection-trace recording explicitly.
    pub fn record_trace(mut self, enabled: bool) -> Self {
        self.record_trace = enabled;
        self
    }
}

/// A single-producer cross-shard mailbox: packets handed from one shard's
/// routers to another's, tagged with the destination tile and input port.
pub(crate) type Mailbox = Mutex<Vec<(u32, InPort, Packet)>>;

/// A single-producer cross-shard wake box, the mailboxes' sibling: tile
/// ids of the consumer's routers that sleep on a queue of the producer
/// which has just returned credit. Filled in the producer's local phase,
/// drained at the top of the consumer's [`Shard::step`] of the same
/// cycle, so it is empty at every decision point.
pub(crate) type WakeBox = Mutex<Vec<u32>>;

/// State shared by all shards: topology, the queue-credit table, and the
/// single-producer cross-shard mailboxes and wake boxes.
pub struct SharedNet {
    /// Topology and latency data.
    pub topo: TopoInfo,
    /// Credit of each input queue (global queue id).
    pub occupancy: Vec<Credit>,
    /// `mailboxes[consumer][producer]`.
    mailboxes: Vec<Vec<Mailbox>>,
    /// `wake_boxes[consumer][producer]`.
    wake_boxes: Vec<Vec<WakeBox>>,
    /// Shard owning each column.
    pub shard_of_col: Vec<u32>,
    /// Inject queue capacity in flits.
    pub inject_capacity_flits: u32,
    /// Packets currently inside the plane (injected − ejected − combined).
    pub(crate) in_flight: AtomicI64,
}

impl SharedNet {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.mailboxes.len()
    }

    /// The mailbox written by `producer` and drained by `consumer`.
    pub(crate) fn mailbox(&self, consumer: usize, producer: usize) -> &Mailbox {
        &self.mailboxes[consumer][producer]
    }

    /// The wake box written by `producer` and drained by `consumer`.
    pub(crate) fn wake_box(&self, consumer: usize, producer: usize) -> &WakeBox {
        &self.wake_boxes[consumer][producer]
    }

    /// Packets currently inside this plane (injected − ejected − combined).
    pub fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Host heap bytes of the shared state: the credit table, the
    /// column→shard map, and the cross-shard mailboxes and wake boxes.
    pub fn heap_bytes(&self) -> u64 {
        let wake_boxes: u64 = self
            .wake_boxes
            .iter()
            .map(|row| {
                std::mem::size_of::<Vec<WakeBox>>() as u64
                    + row.capacity() as u64 * std::mem::size_of::<WakeBox>() as u64
                    + row
                        .iter()
                        .map(|b| b.lock().capacity() as u64 * 4)
                        .sum::<u64>()
            })
            .sum();
        let mailboxes: u64 = self
            .mailboxes
            .iter()
            .map(|row| {
                row.capacity() as u64 * std::mem::size_of::<Mailbox>() as u64
                    + row
                        .iter()
                        .map(|m| {
                            let inbox = m.lock();
                            inbox.capacity() as u64
                                * std::mem::size_of::<(u32, InPort, Packet)>() as u64
                                + inbox
                                    .iter()
                                    .map(|(_, _, p)| p.payload.heap_bytes())
                                    .sum::<u64>()
                        })
                        .sum::<u64>()
            })
            .sum();
        self.occupancy.capacity() as u64 * std::mem::size_of::<Credit>() as u64
            + self.shard_of_col.capacity() as u64 * 4
            + self.mailboxes.capacity() as u64 * std::mem::size_of::<Vec<Mailbox>>() as u64
            + mailboxes
            + wake_boxes
    }

    /// The earliest cycle after `now` at which a packet currently parked
    /// in a cross-shard mailbox can move, or `None` if all mailboxes are
    /// empty.
    ///
    /// Only sound once every shard has finished its step phase for `now`
    /// (mailboxes are written during stepping); the time-leaping driver
    /// therefore calls this from the post-barrier leader action.
    pub fn mailbox_next_event_cycle(&self, now: u64) -> Option<u64> {
        let floor = now + 1;
        let mut horizon: Option<u64> = None;
        for mailbox in self.mailboxes.iter().flatten() {
            for (_, _, pkt) in mailbox.lock().iter() {
                let c = pkt.ready_at.max(floor);
                horizon = Some(horizon.map_or(c, |h| h.min(c)));
            }
        }
        horizon
    }
}

impl fmt::Debug for SharedNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedNet")
            .field("tiles", &self.topo.num_tiles())
            .field("shards", &self.num_shards())
            .finish()
    }
}

/// One physical NoC plane: a grid of routers split into column shards.
///
/// Sequential use: [`Network::step`]. Parallel use: [`Network::split`]
/// hands each host thread a `&mut Shard` plus the shared state; the caller
/// must run the begin-phase of *all* shards (barrier) before any shard's
/// step-phase for the same cycle.
#[derive(Debug)]
pub struct Network {
    shared: SharedNet,
    shards: Vec<Shard>,
}

impl Network {
    /// Builds a network split into (at most) `num_shards` column shards.
    pub fn new(params: NetworkParams, num_shards: usize) -> Self {
        let width = params.topo.width;
        Network::with_boundaries(params, &split_columns(width, num_shards, 1))
    }

    /// Builds a network with explicit shard column boundaries.
    ///
    /// `boundaries` lists the exclusive end column of each shard, in
    /// increasing order, ending at the grid width. Used by the parallel
    /// driver to align shard boundaries with DRAM channel bands.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not increasing or do not end at the
    /// grid width.
    pub fn with_boundaries(params: NetworkParams, boundaries: &[u32]) -> Self {
        let topo = params.topo;
        let width = topo.width;
        assert_eq!(*boundaries.last().expect("at least one shard"), width);
        let n = boundaries.len();
        let mut shard_of_col = vec![0u32; width as usize];
        let mut shards = Vec::with_capacity(n);
        let mut start = 0;
        for (i, &end) in boundaries.iter().enumerate() {
            assert!(end > start, "shard boundaries must be increasing");
            for c in start..end {
                shard_of_col[c as usize] = i as u32;
            }
            shards.push(Shard::new(
                i,
                start..end,
                topo.height,
                params.track_busy,
                params.record_trace,
            ));
            start = end;
        }
        let occupancy = (0..topo.num_queues()).map(|_| Credit::default()).collect();
        let mailboxes = (0..n)
            .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let wake_boxes = (0..n)
            .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        Network {
            shared: SharedNet {
                topo,
                occupancy,
                mailboxes,
                wake_boxes,
                shard_of_col,
                inject_capacity_flits: params.inject_capacity_flits,
                in_flight: AtomicI64::new(0),
            },
            shards,
        }
    }

    /// The shared topology.
    pub fn topo(&self) -> &TopoInfo {
        &self.shared.topo
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Splits into shared state and per-shard mutable handles for the
    /// parallel driver.
    pub fn split(&mut self) -> (&SharedNet, &mut [Shard]) {
        (&self.shared, &mut self.shards)
    }

    /// Injects `pkt` at `tile`.
    ///
    /// # Errors
    ///
    /// Returns the packet back if the tile's inject queue is full.
    pub fn inject(&mut self, tile: u32, pkt: Packet) -> Result<(), Packet> {
        let col = tile % self.shared.topo.width;
        let shard = self.shared.shard_of_col[col as usize] as usize;
        self.shards[shard].inject(&self.shared, tile, pkt)
    }

    /// Advances the whole plane one cycle (sequential driver):
    /// begin-phase for every shard, then step-phase for every shard.
    pub fn step(&mut self, cycle: u64, sink: &mut dyn EjectSink) {
        for shard in &mut self.shards {
            shard.begin_cycle(&self.shared);
        }
        for shard in &mut self.shards {
            shard.step(&self.shared, cycle, sink);
        }
    }

    /// Whether no packet remains anywhere (queues, pending, mailboxes).
    ///
    /// O(1): maintained as an atomic inject/eject/combine balance.
    pub fn is_empty(&self) -> bool {
        self.shared.in_flight.load(Ordering::Acquire) == 0
    }

    /// Packets currently inside the plane (O(1) atomic read).
    pub fn in_flight(&self) -> i64 {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Packets currently inside the network.
    pub fn queued_packets(&self) -> u64 {
        let in_shards: u64 = self.shards.iter().map(|s| s.queued_packets()).sum();
        let in_mail: u64 = self
            .shared
            .mailboxes
            .iter()
            .flatten()
            .map(|m| m.lock().len() as u64)
            .sum();
        in_shards + in_mail
    }

    /// Total host bytes of this plane's simulation state (struct plus
    /// all owned heap), the quantity behind the paper's bytes-per-tile
    /// scalability argument.
    pub fn state_bytes(&self) -> u64 {
        std::mem::size_of::<Network>() as u64
            + self.shared.heap_bytes()
            + self.shards.capacity() as u64 * std::mem::size_of::<Shard>() as u64
            + self.shards.iter().map(Shard::heap_bytes).sum::<u64>()
    }

    /// Merged counters across shards.
    pub fn counters(&self) -> NocCounters {
        let mut total = NocCounters::default();
        for s in &self.shards {
            total.merge(s.counters());
        }
        total
    }

    /// Merged router-visit ledger across shards (host-side; see
    /// [`crate::RouterVisits`]).
    pub fn router_visits(&self) -> crate::RouterVisits {
        let mut total = crate::RouterVisits::default();
        for s in &self.shards {
            total.merge(s.router_visits());
        }
        total
    }

    /// Merged per-packet latency statistics across shards.
    pub fn latency(&self) -> crate::LatencyStats {
        let mut total = crate::LatencyStats::default();
        for s in &self.shards {
            total.merge(s.latency());
        }
        total
    }

    /// Drains the recorded injection trace of every shard (unsorted;
    /// see [`crate::sort_events`]). Empty when recording is off.
    pub fn take_trace(&mut self) -> Vec<crate::TraceEvent> {
        let mut events = Vec::new();
        for s in &mut self.shards {
            events.extend(s.take_trace());
        }
        events
    }

    /// Collects and resets per-router busy-cycle counts into `grid`
    /// (indexed by tile id) for heat-map frames.
    pub fn take_busy(&mut self, grid: &mut [u32]) {
        let width = self.shared.topo.width;
        for s in &mut self.shards {
            s.take_busy(grid, width);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Payload, ReduceOp};
    use muchisim_config::{NocTopology, SystemConfig};

    fn net(w: u32, h: u32, shards: usize) -> Network {
        let cfg = SystemConfig::builder().chiplet_tiles(w, h).build().unwrap();
        Network::new(NetworkParams::from_system(&cfg), shards)
    }

    fn run_to_empty(net: &mut Network, sink: &mut DrainSink, limit: u64) -> u64 {
        let mut cycle = 0;
        while !net.is_empty() {
            net.step(cycle, sink);
            cycle += 1;
            assert!(cycle < limit, "network did not drain in {limit} cycles");
        }
        cycle
    }

    #[test]
    fn split_columns_even_and_remainder() {
        assert_eq!(split_columns(8, 2, 1), vec![4, 8]);
        assert_eq!(split_columns(7, 2, 1), vec![4, 7]);
        assert_eq!(split_columns(8, 3, 1), vec![3, 6, 8]);
    }

    #[test]
    fn split_columns_more_shards_than_columns_has_no_empty_shard() {
        for width in 1..=6u32 {
            for shards in [7usize, 16, 100] {
                let bounds = split_columns(width, shards, 1);
                assert!(bounds.len() <= width as usize, "{width}x{shards}");
                assert_eq!(*bounds.last().unwrap(), width);
                let mut start = 0;
                for &end in &bounds {
                    assert!(end > start, "empty shard in {bounds:?} ({width}x{shards})");
                    start = end;
                }
            }
        }
    }

    #[test]
    fn split_columns_align_beyond_width_collapses_to_one_shard() {
        assert_eq!(split_columns(8, 4, 64), vec![8]);
        assert_eq!(split_columns(8, 4, 8), vec![8]);
        // alignment respected when it fits
        assert_eq!(split_columns(8, 4, 3), vec![3, 8]);
        assert_eq!(split_columns(8, 4, 0), split_columns(8, 4, 1));
    }

    #[test]
    fn split_columns_zero_width_and_zero_shards_do_not_panic() {
        assert_eq!(split_columns(0, 4, 1), Vec::<u32>::new());
        assert_eq!(split_columns(0, 0, 0), Vec::<u32>::new());
        assert_eq!(split_columns(5, 0, 1), vec![5]);
    }

    #[test]
    fn single_packet_delivery_latency() {
        let mut n = net(8, 8, 1);
        // corner to corner: 14 hops
        n.inject(0, Packet::unicast(0, 63, 0, Payload::from_slice(&[42]), 1))
            .unwrap();
        let mut sink = DrainSink::default();
        let cycles = run_to_empty(&mut n, &mut sink, 1000);
        assert_eq!(sink.drained.len(), 1);
        let (tile, pkt) = &sink.drained[0];
        assert_eq!(*tile, 63);
        assert_eq!(pkt.payload.as_slice(), &[42]);
        // 14 hops x 1 cycle + eject; allow small overhead
        assert!((14..=20).contains(&cycles), "latency {cycles}");
        let c = n.counters();
        assert_eq!(c.injected, 1);
        assert_eq!(c.ejected, 1);
        assert_eq!(c.msg_hops, 14);
    }

    #[test]
    fn xy_routing_hop_count_counted() {
        let mut n = net(4, 4, 1);
        // (0,0) -> (3,2): 3 east + 2 south = 5 hops
        n.inject(0, Packet::unicast(0, 11, 0, Payload::empty(), 1))
            .unwrap();
        let mut sink = DrainSink::default();
        run_to_empty(&mut n, &mut sink, 100);
        assert_eq!(n.counters().msg_hops, 5);
    }

    #[test]
    fn local_delivery_without_hops() {
        let mut n = net(4, 4, 1);
        n.inject(5, Packet::unicast(5, 5, 0, Payload::empty(), 1))
            .unwrap();
        let mut sink = DrainSink::default();
        run_to_empty(&mut n, &mut sink, 100);
        assert_eq!(n.counters().msg_hops, 0);
        assert_eq!(sink.drained.len(), 1);
    }

    #[test]
    fn many_packets_all_delivered() {
        let mut n = net(8, 8, 1);
        let mut expected = 0u32;
        for src in 0..64u32 {
            for dst in [0u32, 17, 42, 63] {
                n.inject(
                    src,
                    Packet::unicast(src, dst, 0, Payload::from_slice(&[src]), 2),
                )
                .unwrap();
                expected += 1;
            }
        }
        let mut sink = DrainSink::default();
        run_to_empty(&mut n, &mut sink, 10_000);
        assert_eq!(sink.drained.len(), expected as usize);
    }

    #[test]
    fn sharded_equals_sequential() {
        // identical traffic through 1-shard and 4-shard networks must
        // deliver identical (tile, payload, arrival-order) streams
        let mut results = Vec::new();
        for shards in [1usize, 4] {
            let mut n = net(8, 8, shards);
            for src in 0..64u32 {
                let dst = (src * 7 + 3) % 64;
                n.inject(
                    src,
                    Packet::unicast(src, dst, 0, Payload::from_slice(&[src]), 2),
                )
                .unwrap();
            }
            // record (arrival cycle, tile, payload); within-cycle sink
            // order depends on router iteration order, so sort per cycle
            let mut log: Vec<(u64, u32, u32)> = Vec::new();
            let mut cycle = 0u64;
            let mut sink = DrainSink::default();
            while !n.is_empty() {
                let before = sink.drained.len();
                n.step(cycle, &mut sink);
                for (t, p) in &sink.drained[before..] {
                    log.push((cycle, *t, p.payload.word(0)));
                }
                cycle += 1;
                assert!(cycle < 10_000);
            }
            log.sort_unstable();
            results.push((cycle, log, n.counters()));
        }
        assert_eq!(results[0].0, results[1].0, "drain cycle differs");
        assert_eq!(results[0].1, results[1].1, "per-cycle deliveries differ");
        assert_eq!(results[0].2.msg_hops, results[1].2.msg_hops);
        assert_eq!(
            results[0].2.flit_hops_by_class,
            results[1].2.flit_hops_by_class
        );
    }

    #[test]
    fn torus_delivers_under_heavy_random_traffic() {
        // exercises wrap links + dateline VCs; must not deadlock
        let cfg = SystemConfig::builder()
            .chiplet_tiles(6, 6)
            .noc_topology(NocTopology::FoldedTorus)
            .buffer_depth(2)
            .build()
            .unwrap();
        let mut n = Network::new(NetworkParams::from_system(&cfg), 2);
        let mut injected = 0;
        let mut sink = DrainSink::default();
        let mut cycle = 0u64;
        let mut pending: Vec<(u32, Packet)> = Vec::new();
        for round in 0..20u32 {
            for src in 0..36u32 {
                let dst = (src.wrapping_mul(31).wrapping_add(round * 13)) % 36;
                pending.push((
                    src,
                    Packet::unicast(src, dst, 0, Payload::from_slice(&[src, round]), 3),
                ));
            }
        }
        while !pending.is_empty() || !n.is_empty() {
            pending.retain_mut(|(src, pkt)| {
                let p = std::mem::replace(pkt, Packet::unicast(0, 0, 0, Payload::empty(), 1));
                match n.inject(*src, p.ready_at(cycle)) {
                    Ok(()) => {
                        injected += 1;
                        false
                    }
                    Err(back) => {
                        *pkt = back;
                        true
                    }
                }
            });
            n.step(cycle, &mut sink);
            cycle += 1;
            assert!(
                cycle < 100_000,
                "torus traffic did not drain (possible deadlock)"
            );
        }
        assert_eq!(sink.drained.len(), injected);
    }

    #[test]
    fn backpressure_counted_with_tiny_buffers() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(8, 1)
            .buffer_depth(1)
            .build()
            .unwrap();
        let mut n = Network::new(NetworkParams::from_system(&cfg), 1);
        // funnel traffic from all tiles to tile 7 through one row
        for src in 0..7u32 {
            for _ in 0..4 {
                let _ = n.inject(
                    src,
                    Packet::unicast(src, 7, 0, Payload::from_slice(&[src]), 2),
                );
            }
        }
        let mut sink = DrainSink::default();
        run_to_empty(&mut n, &mut sink, 10_000);
        let c = n.counters();
        assert!(
            c.backpressure > 0,
            "expected backpressure with depth-1 buffers"
        );
        assert!(
            c.collisions > 0,
            "expected collisions funneling into one row"
        );
    }

    #[test]
    fn reduction_combines_in_flight() {
        let mut n = net(8, 1, 1);
        // two reducible packets for the same key injected at the same tile
        // back-to-back: the second should merge into the first while queued
        let mk = |src: u32, val: u32| {
            Packet::unicast(src, 7, 1, Payload::from_slice(&[5, val]), 2)
                .with_reduce(ReduceOp::MinU32)
        };
        n.inject(0, mk(0, 30)).unwrap();
        n.inject(0, mk(0, 10)).unwrap();
        let mut sink = DrainSink::default();
        run_to_empty(&mut n, &mut sink, 1000);
        assert_eq!(n.counters().reduce_combines, 1);
        assert_eq!(sink.drained.len(), 1);
        assert_eq!(sink.drained[0].1.payload.word(1), 10);
    }

    #[test]
    fn inject_backpressures_when_full() {
        let cfg = SystemConfig::builder()
            .chiplet_tiles(2, 1)
            .queues(4, 1)
            .build()
            .unwrap();
        let mut n = Network::new(NetworkParams::from_system(&cfg), 1);
        // capacity = cq * 2 = 2 flits; 2-flit packets: first fits, second refused
        assert!(n
            .inject(0, Packet::unicast(0, 1, 0, Payload::from_slice(&[1]), 2))
            .is_ok());
        assert!(n
            .inject(0, Packet::unicast(0, 1, 0, Payload::from_slice(&[2]), 2))
            .is_err());
    }

    #[test]
    fn multi_flit_serialization_slows_link() {
        // same path, 1-flit vs 8-flit message streams
        let drain = |flits: u16| {
            let mut n = net(4, 1, 1);
            for _ in 0..8 {
                n.inject(0, Packet::unicast(0, 3, 0, Payload::empty(), flits))
                    .unwrap();
            }
            let mut sink = DrainSink::default();
            run_to_empty(&mut n, &mut sink, 10_000)
        };
        let fast = drain(1);
        let slow = drain(8);
        assert!(
            slow > fast * 3,
            "8-flit stream ({slow} cy) should be much slower than 1-flit ({fast} cy)"
        );
    }

    #[test]
    fn eject_sink_refusal_stalls_delivery() {
        struct Stingy {
            accepted: usize,
            refuse_until: u64,
            calls: u64,
        }
        impl EjectSink for Stingy {
            fn offer(&mut self, _tile: u32, pkt: Packet) -> Result<(), Packet> {
                self.calls += 1;
                if self.calls < self.refuse_until {
                    Err(pkt)
                } else {
                    self.accepted += 1;
                    Ok(())
                }
            }
        }
        let mut n = net(4, 1, 1);
        n.inject(0, Packet::unicast(0, 3, 0, Payload::empty(), 1))
            .unwrap();
        let mut sink = Stingy {
            accepted: 0,
            refuse_until: 5,
            calls: 0,
        };
        let mut cycle = 0;
        while !n.is_empty() {
            n.step(cycle, &mut sink);
            cycle += 1;
            assert!(cycle < 1000);
        }
        assert_eq!(sink.accepted, 1);
        assert!(n.counters().eject_stalls >= 4);
    }

    #[test]
    fn latency_and_trace_recorded_across_shards() {
        let cfg = SystemConfig::builder().chiplet_tiles(4, 1).build().unwrap();
        let params = NetworkParams::from_system(&cfg).record_trace(true);
        assert!(
            !NetworkParams::from_system(&cfg).record_trace,
            "off by default"
        );
        let mut n = Network::new(params, 2);
        n.inject(
            0,
            Packet::unicast(0, 3, 0, Payload::from_slice(&[5]), 1).ready_at(0),
        )
        .unwrap();
        n.inject(
            3,
            Packet::unicast(3, 0, 0, Payload::from_slice(&[6]), 1).ready_at(0),
        )
        .unwrap();
        let mut sink = DrainSink::default();
        run_to_empty(&mut n, &mut sink, 100);
        let lat = n.latency();
        assert_eq!(lat.count, 2, "one latency sample per ejected packet");
        assert!(lat.mean() >= 3.0, "3 hops minimum, measured {}", lat.mean());
        assert!(lat.max_cycles >= 3);
        let mut trace = n.take_trace();
        crate::trace::sort_events(&mut trace);
        assert_eq!(trace.len(), 2);
        assert_eq!((trace[0].src, trace[0].dst), (0, 3));
        assert_eq!((trace[1].src, trace[1].dst), (3, 0));
        assert!(n.take_trace().is_empty(), "trace drains once");
    }

    #[test]
    fn busy_heatmap_collects_active_routers() {
        let cfg = SystemConfig::builder().chiplet_tiles(4, 1).build().unwrap();
        // below V2 the config disables tracking; heat-map consumers
        // opt back in explicitly
        let params = NetworkParams::from_system(&cfg).track_busy(true);
        let mut n = Network::new(params, 1);
        n.inject(0, Packet::unicast(0, 3, 0, Payload::empty(), 1))
            .unwrap();
        let mut sink = DrainSink::default();
        run_to_empty(&mut n, &mut sink, 100);
        let mut grid = vec![0u32; 4];
        n.take_busy(&mut grid);
        assert!(grid[0] > 0 && grid[1] > 0 && grid[2] > 0 && grid[3] > 0);
        // second take returns zeros
        let mut grid2 = vec![0u32; 4];
        n.take_busy(&mut grid2);
        assert!(grid2.iter().all(|&b| b == 0));
    }

    #[test]
    fn untracked_busy_grid_stays_zero_and_costs_nothing() {
        let mut n = net(4, 1, 1); // default config: V0, tracking off
        n.inject(0, Packet::unicast(0, 3, 0, Payload::empty(), 1))
            .unwrap();
        let mut sink = DrainSink::default();
        run_to_empty(&mut n, &mut sink, 100);
        let mut grid = vec![0u32; 4];
        n.take_busy(&mut grid);
        assert!(grid.iter().all(|&b| b == 0));
    }

    #[test]
    fn routers_allocate_lazily_and_recycle_when_drained() {
        let mut n = net(8, 8, 1);
        assert_eq!(n.shards[0].allocated_routers(), 0);
        // a single west-to-east packet along row 0 touches only the
        // routers on its path; each drained router returns its box to the
        // shard free-list instead of staying materialized
        n.inject(0, Packet::unicast(0, 7, 0, Payload::empty(), 1))
            .unwrap();
        let mut sink = DrainSink::default();
        run_to_empty(&mut n, &mut sink, 100);
        assert_eq!(
            n.shards[0].allocated_routers(),
            0,
            "a drained plane holds no materialized routers"
        );
        let pooled = n.shards[0].pooled_routers();
        assert!(
            (1..=8).contains(&pooled),
            "row 0's boxes ({pooled}) are pooled for reuse, never more than the 8 touched"
        );
        // a second traversal reuses pooled boxes instead of allocating
        n.inject(0, Packet::unicast(0, 7, 0, Payload::empty(), 1))
            .unwrap();
        run_to_empty(&mut n, &mut sink, 100);
        assert_eq!(
            n.shards[0].pooled_routers(),
            pooled,
            "steady-state traffic recycles boxes through the pool"
        );
    }

    #[test]
    fn idle_network_state_is_compact() {
        // no router box, no packet node: the SoA slots, the pointer table
        // and the credit words are all an idle router costs
        let n = net(64, 64, 4);
        let idle = n.state_bytes();
        assert!(
            idle < 64 * 64 * 160,
            "idle 64x64 plane uses {idle} B, {} per router",
            idle / (64 * 64)
        );
        assert_eq!(n.shards.iter().map(Shard::arena_nodes).sum::<usize>(), 0);
    }

    #[test]
    fn state_bytes_follow_the_arena_not_the_traffic_history() {
        let mut n = net(16, 16, 2);
        let idle = n.state_bytes();
        // 17-word payloads spill to the heap: 68 B each on top of the node
        let words: Vec<u32> = (0..17).collect();
        let refill = |n: &mut Network| {
            let mut last = n.state_bytes();
            // one hop east each, across the shard boundary too: no two
            // packets meet, so no router stalls and boxes its memo
            for src in (0..256u32).filter(|src| src % 16 != 15) {
                n.inject(
                    src,
                    Packet::unicast(src, src + 1, 0, Payload::from_slice(&words), 2),
                )
                .unwrap();
                let now = n.state_bytes();
                assert!(now >= last + 68, "a queued packet and its payload count");
                last = now;
            }
            last
        };
        let full = refill(&mut n);
        assert!(full > idle + 240 * (64 + 68));
        assert_eq!(n.queued_packets(), 240);
        // one clock across the waves, each starting on idle links
        let mut cycle = 0;
        let mut drain = |n: &mut Network| {
            let mut sink = DrainSink::default();
            while !n.is_empty() {
                n.step(cycle, &mut sink);
                cycle += 1;
            }
            cycle += 1 << 10;
            assert!(n.shards.iter().all(Shard::is_drained));
            n.state_bytes()
        };
        // the payloads left with their packets; the nodes and the boxes of
        // the routers on the way stay, vacant and pooled
        let drained = drain(&mut n);
        let nodes: usize = n.shards.iter().map(Shard::arena_nodes).sum();
        assert!(drained > idle && nodes >= 240);
        // every later wave runs out of the free list and the box pool
        let refilled = refill(&mut n);
        assert_eq!(drain(&mut n), drained, "flat across a drain/refill cycle");
        assert_eq!(refill(&mut n), refilled, "and across the next");
        assert_eq!(
            n.shards.iter().map(Shard::arena_nodes).sum::<usize>(),
            nodes
        );
    }

    #[test]
    fn shard_split_covers_all_columns() {
        let n = net(10, 2, 3);
        assert_eq!(n.num_shards(), 3);
        let mut covered = [false; 10];
        for s in &n.shards {
            for c in s.cols() {
                assert!(!covered[c as usize]);
                covered[c as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn shards_clamped_to_width() {
        let n = net(4, 4, 64);
        assert_eq!(n.num_shards(), 4);
    }

    #[test]
    fn split_columns_even_and_aligned() {
        assert_eq!(split_columns(8, 4, 1), vec![2, 4, 6, 8]);
        assert_eq!(split_columns(10, 3, 1), vec![4, 7, 10]);
        // align 4: 32 cols, 8 units; 3 shards -> 3,3,2 units
        assert_eq!(split_columns(32, 3, 4), vec![12, 24, 32]);
        // more shards than units clamps
        assert_eq!(split_columns(8, 5, 4), vec![4, 8]);
        // align larger than width
        assert_eq!(split_columns(8, 4, 16), vec![8]);
    }
}
