//! A closed-form law the NoC must obey exactly, checked against a route
//! the test computes itself.
//!
//! On an idle network nothing queues, arbitrates or back-pressures, so a
//! packet's latency is fully determined by its path: every hop costs the
//! head flit's link latency plus the serialization of the remaining
//! flits (each router stores and forwards the whole packet),
//!
//! ```text
//! eject cycle − inject cycle = Σ over hops (hop cycles of the link + flits − 1)
//! ```
//!
//! and a packet to its own tile ejects in the cycle it was injected. The
//! path comes from `next_hop` below, written from the configuration's
//! description of routing — dimension-ordered, X before Y; on a folded
//! torus the shorter way around each ring, the increasing direction on a
//! tie; a mesh never wraps; with Ruche channels of length `R`, the Ruche
//! link while at least `R` hops remain in the current dimension and the
//! link stays in the grid (Ruche links never wrap) — and deliberately not
//! from `muchisim::noc::decide`, which is the code under test. Link
//! latencies are read from the topology's link rows one hop at a time.
//!
//! The grids are 2x2 packages of 3x3-tile chiplets, so paths cross
//! on-chip and die-to-die links with different latencies, on a mesh and a
//! folded torus, each without and with Ruche channels of length 3.

use muchisim::config::{NocTopology, SystemConfig};
use muchisim::noc::{DrainSink, Network, NetworkParams, OutDir, Packet, Payload, TopoInfo};

fn config(topology: NocTopology, ruche: Option<u32>) -> SystemConfig {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(3, 3)
        .package_chiplets(2, 2)
        .noc_topology(topology);
    if let Some(r) = ruche {
        b.ruche_factor(r);
    }
    b.build().expect("valid grid")
}

/// Steps to take along a ring of `size` routers from `cur` to `dst`:
/// positive towards increasing coordinates.
fn ring_steps(cur: u32, dst: u32, size: u32, torus: bool) -> i64 {
    let direct = i64::from(dst) - i64::from(cur);
    if !torus || direct == 0 {
        return direct;
    }
    let around = direct - direct.signum() * i64::from(size);
    match direct.abs().cmp(&around.abs()) {
        std::cmp::Ordering::Less => direct,
        std::cmp::Ordering::Greater => around,
        std::cmp::Ordering::Equal => direct.abs(),
    }
}

/// The link a packet at `(x, y)` bound for `(tx, ty)` takes next and the
/// router it leads to, or `None` at the destination.
fn next_hop(
    cfg: &SystemConfig,
    (x, y): (u32, u32),
    (tx, ty): (u32, u32),
) -> Option<(OutDir, (u32, u32))> {
    let torus = cfg.noc.topology == NocTopology::FoldedTorus;
    let (w, h) = (cfg.width(), cfg.height());
    // the Ruche length, when at least that many steps remain
    let ruche = |steps: i64| {
        cfg.noc
            .ruche_factor
            .filter(|&r| steps.unsigned_abs() >= u64::from(r))
    };
    let dx = ring_steps(x, tx, w, torus);
    if dx != 0 {
        return Some(match ruche(dx) {
            Some(r) if dx > 0 && x + r < w => (OutDir::RucheE, (x + r, y)),
            Some(r) if dx < 0 && x >= r => (OutDir::RucheW, (x - r, y)),
            _ if dx > 0 => (OutDir::E, ((x + 1) % w, y)),
            _ => (OutDir::W, ((x + w - 1) % w, y)),
        });
    }
    let dy = ring_steps(y, ty, h, torus);
    if dy == 0 {
        return None;
    }
    Some(match ruche(dy) {
        Some(r) if dy > 0 && y + r < h => (OutDir::RucheS, (x, y + r)),
        Some(r) if dy < 0 && y >= r => (OutDir::RucheN, (x, y - r)),
        _ if dy > 0 => (OutDir::S, (x, (y + 1) % h)),
        _ => (OutDir::N, (x, (y + h - 1) % h)),
    })
}

#[test]
fn idle_latency_is_the_sum_of_link_latencies_plus_serialization() {
    let configs = [NocTopology::Mesh, NocTopology::FoldedTorus]
        .into_iter()
        .flat_map(|topology| [None, Some(3)].map(|ruche| (topology, ruche)));
    for (topology, ruche) in configs {
        let cfg = config(topology, ruche);
        let topo = TopoInfo::from_system(&cfg);
        let (w, tiles) = (cfg.width(), cfg.width() * cfg.height());
        let mut net = Network::new(NetworkParams::from_system(&cfg), 2);
        let mut sink = DrainSink::default();
        let mut cycle = 0u64;
        let mut hop_latencies = std::collections::BTreeSet::new();
        let mut ruche_hops = 0;
        for src in 0..tiles {
            for dst in 0..tiles {
                for flits in 1..=3u16 {
                    // the law, from the test's own route
                    let mut expected = 0;
                    let mut at = (src % w, src / w);
                    while let Some((dir, next)) = next_hop(&cfg, at, (dst % w, dst / w)) {
                        let hop = topo
                            .hop_cycles(at.1 * w + at.0, dir, 0)
                            .expect("the route uses links that exist");
                        hop_latencies.insert(hop);
                        ruche_hops += u32::from(dir.is_ruche());
                        expected += hop + u64::from(flits) - 1;
                        at = next;
                    }
                    assert_eq!(at, (dst % w, dst / w), "the route ends at the destination");
                    // the measurement
                    let words: Vec<u32> = (0..u32::from(flits) - 1).collect();
                    let pkt = Packet::unicast(src, dst, 0, Payload::from_slice(&words), flits)
                        .ready_at(cycle);
                    net.inject(src, pkt).expect("an idle inject queue has room");
                    let injected = cycle;
                    while sink.drained.is_empty() {
                        net.step(cycle, &mut sink);
                        cycle += 1;
                        assert!(cycle - injected < 1 << 12, "{src} -> {dst} never arrived");
                    }
                    let (tile, pkt) = sink.drained.pop().expect("one delivery");
                    assert_eq!((tile, pkt.dst, pkt.flits), (dst, dst, flits));
                    assert_eq!(
                        cycle - 1 - injected,
                        expected,
                        "{topology:?}, Ruche {ruche:?}: {flits} flits from tile {src} to tile {dst}"
                    );
                    assert!(net.is_empty() && sink.drained.is_empty());
                    // let every link this packet kept busy free up again
                    cycle += u64::from(flits);
                }
            }
        }
        assert!(
            hop_latencies.len() > 1,
            "{topology:?}, Ruche {ruche:?}: the paths should cross links of different latencies"
        );
        assert_eq!(
            ruche_hops > 0,
            ruche.is_some(),
            "{topology:?}, Ruche {ruche:?}: paths cross Ruche links exactly when there are some"
        );
    }
}
