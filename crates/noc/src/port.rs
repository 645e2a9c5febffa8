//! Router port enumeration.
//!
//! Routers have five bidirectional ports (N, S, E, W plus the PU port) and
//! up to four extra cardinal ports when Ruche channels are configured
//! (paper §III-A: "a total of nine"). Ring dimensions of a torus carry two
//! dateline virtual channels, so a router has up to 13 input queues.

use serde::{Deserialize, Serialize};

/// Number of input ports a router can have; a topology has 5, 9 or 13
/// of them (see [`crate::TopoInfo::has_port`]).
pub(crate) const IN_PORTS: usize = 13;
// every queue id of the largest grid `SystemConfig::validate` lets through
// fits the `u32` that wake boxes and stall memos carry
const _: () = assert!(muchisim_config::MAX_TILES * IN_PORTS as u64 <= u32::MAX as u64);
/// Number of output directions per router.
pub(crate) const OUT_DIRS: usize = 9;

/// An input queue of a router, named after where its link comes *from*.
///
/// The `0`/`1` suffix is the dateline virtual channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum InPort {
    FromN0 = 0,
    FromN1 = 1,
    FromS0 = 2,
    FromS1 = 3,
    FromE0 = 4,
    FromE1 = 5,
    FromW0 = 6,
    FromW1 = 7,
    /// Ruche link arriving from the north.
    FromRucheN = 8,
    /// Ruche link arriving from the south.
    FromRucheS = 9,
    /// Ruche link arriving from the east.
    FromRucheE = 10,
    /// Ruche link arriving from the west.
    FromRucheW = 11,
    /// The local PU injection port (fed by the tile's channel queues).
    Inject = 12,
}

impl InPort {
    /// All input ports in arbitration order.
    pub const ALL: [InPort; IN_PORTS] = [
        InPort::FromN0,
        InPort::FromN1,
        InPort::FromS0,
        InPort::FromS1,
        InPort::FromE0,
        InPort::FromE1,
        InPort::FromW0,
        InPort::FromW1,
        InPort::FromRucheN,
        InPort::FromRucheS,
        InPort::FromRucheE,
        InPort::FromRucheW,
        InPort::Inject,
    ];

    /// Index in `0..IN_PORTS`.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The input port a packet sent towards `dir` on virtual channel `vc`
    /// arrives at on the neighboring router.
    ///
    /// # Panics
    ///
    /// Panics if `dir` is [`OutDir::Eject`] (ejection has no downstream
    /// queue) or `vc > 1`.
    pub(crate) fn arrival_port(dir: OutDir, vc: u8) -> InPort {
        assert!(vc <= 1, "virtual channel out of range");
        match (dir, vc) {
            (OutDir::N, 0) => InPort::FromS0,
            (OutDir::N, _) => InPort::FromS1,
            (OutDir::S, 0) => InPort::FromN0,
            (OutDir::S, _) => InPort::FromN1,
            (OutDir::E, 0) => InPort::FromW0,
            (OutDir::E, _) => InPort::FromW1,
            (OutDir::W, 0) => InPort::FromE0,
            (OutDir::W, _) => InPort::FromE1,
            (OutDir::RucheN, _) => InPort::FromRucheS,
            (OutDir::RucheS, _) => InPort::FromRucheN,
            (OutDir::RucheE, _) => InPort::FromRucheW,
            (OutDir::RucheW, _) => InPort::FromRucheE,
            (OutDir::Eject, _) => panic!("eject has no arrival port"),
        }
    }
}

/// An output direction of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum OutDir {
    N = 0,
    S = 1,
    E = 2,
    W = 3,
    /// Ruche (R-hop) link north.
    RucheN = 4,
    /// Ruche link south.
    RucheS = 5,
    /// Ruche link east.
    RucheE = 6,
    /// Ruche link west.
    RucheW = 7,
    /// Delivery to the local PU's input queues.
    Eject = 8,
}

impl OutDir {
    /// All output directions; ejection first so local delivery is never
    /// starved by through traffic.
    pub const ALL: [OutDir; OUT_DIRS] = [
        OutDir::Eject,
        OutDir::N,
        OutDir::S,
        OutDir::E,
        OutDir::W,
        OutDir::RucheN,
        OutDir::RucheS,
        OutDir::RucheE,
        OutDir::RucheW,
    ];

    /// Index in `0..OUT_DIRS`.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Directions by [`OutDir::index`] (the inverse of `index`; note
    /// [`OutDir::ALL`] iterates in a different, Eject-first order).
    pub(crate) const BY_INDEX: [OutDir; OUT_DIRS] = [
        OutDir::N,
        OutDir::S,
        OutDir::E,
        OutDir::W,
        OutDir::RucheN,
        OutDir::RucheS,
        OutDir::RucheE,
        OutDir::RucheW,
        OutDir::Eject,
    ];

    /// Whether this is one of the four Ruche directions.
    pub fn is_ruche(self) -> bool {
        matches!(
            self,
            OutDir::RucheN | OutDir::RucheS | OutDir::RucheE | OutDir::RucheW
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense() {
        for (i, p) in InPort::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut seen = [false; OUT_DIRS];
        for d in OutDir::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn arrival_port_reverses_direction() {
        assert_eq!(InPort::arrival_port(OutDir::E, 0), InPort::FromW0);
        assert_eq!(InPort::arrival_port(OutDir::E, 1), InPort::FromW1);
        assert_eq!(InPort::arrival_port(OutDir::N, 0), InPort::FromS0);
        assert_eq!(InPort::arrival_port(OutDir::RucheW, 0), InPort::FromRucheE);
    }

    #[test]
    #[should_panic(expected = "eject")]
    fn eject_has_no_arrival() {
        let _ = InPort::arrival_port(OutDir::Eject, 0);
    }

    #[test]
    fn ruche_classification() {
        assert!(OutDir::RucheE.is_ruche());
        assert!(!OutDir::E.is_ruche());
        assert!(!OutDir::Eject.is_ruche());
    }
}
