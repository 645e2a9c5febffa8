//! Versioned, checksummed checkpoint snapshots.
//!
//! A snapshot captures the *complete deterministic simulation state* at a
//! quiescent point of the parallel driver — the top of a worker iteration,
//! immediately after `begin_cycle` has drained every deferred buffer
//! (cross-shard mailboxes, pending pushes, pending frees). At that point
//! every in-flight packet sits in exactly one router input queue, keyed by
//! its *global* tile id, so a snapshot written by N workers restores
//! bit-identically under any other worker count.
//!
//! # File format (version 2)
//!
//! All integers are little-endian. Floats are stored as their IEEE-754
//! bit patterns (`to_bits`), never through a decimal round-trip. Per-tile
//! PU and memory counter blocks are LEB128 varints ([`Var`]) — the
//! values are mostly small and those two blocks dominate a dense-grid
//! snapshot's size; everything else is fixed-width.
//!
//! ```text
//! magic            8 B   b"MUCHSNAP"
//! version          u32   SNAPSHOT_VERSION
//! header                 `Header`: the config hash (FNV-1a over the
//!                        sorted `(path, leaf)` pairs where the config
//!                        differs from the default, host-side knobs
//!                        time_leap, checkpoint_* and telemetry left out
//!                        — resuming under different ones is allowed and
//!                        bit-identical), application name, grid
//!                        geometry, task-type and kernel counts
//! progress               `Progress`: kernel, cycle, kernel base cycle
//! n_chunks         u32   worker chunks (writer's thread count)
//! chunk × n              u64 byte length, then a `WorkerChunk`
//! checksum         u64   [`SnapshotHasher`] (word-parallel FNV-1a) over
//!                        every preceding byte
//! ```
//!
//! The field order of every record is the order of its one field list
//! below (`docs/CHECKPOINT.md` tabulates the file header).
//!
//! **Compatibility rule**: a snapshot is readable iff its `version` equals
//! [`SNAPSHOT_VERSION`] and its `config_hash`, application name, grid
//! geometry, and task-type count match the resuming configuration exactly.
//! Any model change that alters simulated behavior — a changed config
//! default included — must bump the version; there is no cross-version
//! migration — re-run from the start instead.

use crate::app::{Application, OutMsg, ScheduledSend};
use crate::counters::PuCounters;
use crate::digest::Fnv;
use crate::error::SimError;
use muchisim_config::SystemConfig;
use muchisim_mem::{CacheLine, MemCounters};
use muchisim_noc::{Arena, LatencyStats, NocCounters, Packet, Payload, QueueLink, ReduceOp};
use muchisim_telemetry::{Frame, FrameLog};
use serde::{Serialize, Value};

/// Magic bytes identifying a MuchiSim snapshot file.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"MUCHSNAP";

/// Current snapshot format version. Bump on any change to the format *or*
/// to simulated behavior (golden-trace re-bless); old versions are
/// rejected with a clean error, never migrated.
pub const SNAPSHOT_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// The wire codec. Every record is described once — a `Wire` impl, for
// structs generated from a single field list by `wire_struct!` — and
// that one description yields the writer, the reader and the smallest
// encoded size (which caps corrupt length prefixes). Public: an
// application's tile state is described with it (`TileState`, through
// `tile_state!` for a struct of per-vertex vectors).
// ---------------------------------------------------------------------

/// The writing half of a wire description. Separate from [`Wire`] so
/// that borrowed views (`&T`, slices, `str`, tuples holding references)
/// can be written without first building an owned value.
pub trait Put {
    /// Appends this value's encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
}

/// A type with a wire form: written by [`Put::put`], read back by
/// [`Wire::get`], never shorter than [`Wire::MIN_SIZE`] bytes.
///
/// All integers are little-endian and floats travel as their IEEE-754
/// bit patterns, so every value round-trips bit-exactly.
pub trait Wire: Put + Sized {
    /// The fewest bytes an encoded value occupies. A length prefix that
    /// claims more elements than `remaining / MIN_SIZE` is corrupt, and
    /// is rejected before anything is allocated for it.
    const MIN_SIZE: usize;

    /// Reads one value.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, String>;
}

/// Appends `items` as a sequence: a `u32` count, then each element. The
/// count is patched in after the elements, so any iterator will do — a
/// filtered one included — and nothing is collected first.
pub fn put_seq<I>(buf: &mut Vec<u8>, items: I)
where
    I: IntoIterator,
    I::Item: Put,
{
    let at = buf.len();
    0u32.put(buf);
    let mut n = 0u32;
    for item in items {
        item.put(buf);
        n += 1;
    }
    buf[at..at + 4].copy_from_slice(&n.to_le_bytes());
}

/// Appends a blob that `fill` writes in place, prefixed by its length in
/// bytes (the wire form of a `Vec<u8>`, without the intermediate vector).
pub(crate) fn put_blob_with(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    0u32.put(buf);
    fill(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A bounds-checked reader over a byte slice. Every accessor returns a
/// descriptive error instead of panicking on truncated or corrupt input.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one value of any [`Wire`] type.
    pub fn get<T: Wire>(&mut self) -> Result<T, String> {
        T::get(self)
    }

    /// Reads a sequence written by [`put_seq`]. The claimed count is
    /// checked against the bytes actually present — `T::MIN_SIZE` each —
    /// so a corrupt prefix errors instead of allocating.
    pub fn seq<T: Wire>(&mut self) -> Result<Vec<T>, String> {
        let n = self.count_of(T::MIN_SIZE)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(self)?);
        }
        Ok(out)
    }

    /// Reads a sequence into `dst`, whose length the caller has already
    /// fixed (an application's per-tile arrays are sized by its dataset):
    /// a sequence of any other length is an error naming `what`.
    pub fn seq_into<T: Wire>(&mut self, dst: &mut Vec<T>, what: &str) -> Result<(), String> {
        let got = self.seq::<T>()?;
        if got.len() != dst.len() {
            return Err(format!(
                "{what}: snapshot holds {} values, this run has {}",
                got.len(),
                dst.len()
            ));
        }
        *dst = got;
        Ok(())
    }

    /// Reads a `u32` element count whose elements occupy at least
    /// `min_size` bytes each.
    fn count_of(&mut self, min_size: usize) -> Result<usize, String> {
        let n = self.get::<u32>()? as usize;
        if n.saturating_mul(min_size) > self.remaining() {
            return Err(format!(
                "corrupt length {n} at offset {} exceeds {} remaining bytes",
                self.pos,
                self.remaining()
            ));
        }
        Ok(n)
    }

    /// Asserts that every byte was consumed.
    pub(crate) fn expect_end(&self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes after record", self.remaining()));
        }
        Ok(())
    }
}

impl<T: Put + ?Sized> Put for &T {
    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }
}

/// Fixed-width little-endian numbers (floats: the IEEE-754 bit pattern).
macro_rules! wire_le {
    ($($t:ty),+) => {$(
        impl Put for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Wire for $t {
            const MIN_SIZE: usize = std::mem::size_of::<$t>();

            fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
                let bytes = r.take(Self::MIN_SIZE)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns the length asked for")))
            }
        }
    )+};
}
wire_le!(u8, u16, u32, u64, f32, f64);

impl Put for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
}

impl Wire for bool {
    const MIN_SIZE: usize = 1;

    /// Anything non-zero is `true`.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        Ok(r.get::<u8>()? != 0)
    }
}

/// A `u64` as a LEB128 varint: 7 value bits per byte, low group first,
/// high bit set on every byte but the last. Counter blocks use this (a
/// tile's counters are mostly small), which shrinks dense-grid snapshots
/// several-fold; monotonically large values like femtosecond clocks stay
/// fixed-width `u64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Var(pub u64);

impl Put for Var {
    fn put(&self, buf: &mut Vec<u8>) {
        let mut v = self.0;
        while v >= 0x80 {
            buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }
}

impl Wire for Var {
    const MIN_SIZE: usize = 1;

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = r.get::<u8>()?;
            if shift == 63 && b > 1 {
                return Err(format!("varint overflows u64 at offset {}", r.pos));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(Var(v));
            }
            shift += 7;
            if shift > 63 {
                return Err(format!("varint longer than 10 bytes at offset {}", r.pos));
            }
        }
    }
}

impl<T: Put> Put for [T] {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self);
    }
}

impl<T: Put> Put for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self);
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_SIZE: usize = u32::MIN_SIZE;

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        r.seq()
    }
}

/// A queue linked through an arena, as the sequence of its items in
/// FIFO order.
pub(crate) struct Queued<'a, T>(pub &'a QueueLink, pub &'a Arena<T>);

impl<T: Put> Put for Queued<'_, T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.0.iter(self.1));
    }
}

/// UTF-8 text, as its length-prefixed bytes.
impl Put for String {
    fn put(&self, buf: &mut Vec<u8>) {
        self.as_bytes().put(buf);
    }
}

impl Wire for String {
    const MIN_SIZE: usize = u32::MIN_SIZE;

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let n = r.count_of(u8::MIN_SIZE)?;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|e| format!("invalid UTF-8: {e}"))
    }
}

/// Fixed-size arrays: the elements, no length prefix.
impl<T: Put, const N: usize> Put for [T; N] {
    fn put(&self, buf: &mut Vec<u8>) {
        for v in self {
            v.put(buf);
        }
    }
}

impl<T: Wire + Default + Copy, const N: usize> Wire for [T; N] {
    const MIN_SIZE: usize = N * T::MIN_SIZE;

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = r.get()?;
        }
        Ok(out)
    }
}

/// Tuples: the members in order.
macro_rules! wire_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Put),+> Put for ($($t,)+) {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$i.put(buf);)+
            }
        }

        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_SIZE: usize = 0 $(+ $t::MIN_SIZE)+;

            fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
                Ok(($(r.get::<$t>()?,)+))
            }
        }
    };
}
wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);
wire_tuple!(A.0, B.1, C.2, D.3);

/// Describes a struct's wire form by listing its fields once, in wire
/// order; the writer, the reader and `MIN_SIZE` all expand from that
/// list. Three forms:
///
/// * `wire_struct! { struct Name { field: Type, .. } }` also *defines*
///   the struct, so a record owned by this module has one field list in
///   the whole source;
/// * `wire_struct!(Type { field: Type, .. })` describes a struct defined
///   elsewhere (a mistyped field type fails to compile);
/// * `wire_struct!(Type as Var { field, .. })` describes a block of
///   `u64` counters, each a [`Var`] on the wire.
///
/// To add a field: add it here, in the position it takes on the wire,
/// and bump [`SNAPSHOT_VERSION`].
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $f:ident : $ft:ty),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $f: $ft),+
        }
        wire_struct!($name { $($f: $ft),+ });
    };
    ($ty:ty as Var { $($f:ident),+ $(,)? }) => {
        impl Put for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $(Var(self.$f).put(buf);)+
            }
        }

        impl Wire for $ty {
            const MIN_SIZE: usize = [$(stringify!($f)),+].len() * Var::MIN_SIZE;

            fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
                Ok(Self { $($f: r.get::<Var>()?.0),+ })
            }
        }
    };
    ($ty:ty { $($f:ident : $ft:ty),+ $(,)? }) => {
        impl Put for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$f.put(buf);)+
            }
        }

        impl Wire for $ty {
            const MIN_SIZE: usize = 0 $(+ <$ft as Wire>::MIN_SIZE)+;

            fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
                Ok(Self { $($f: r.get::<$ft>()?),+ })
            }
        }
    };
}

/// Describes a fieldless choice as one tag byte, from a single
/// `tag => [value]` table (the match in `put` is exhaustive, so a new
/// variant without a tag fails to compile).
macro_rules! wire_tag {
    ($ty:ty, $what:literal { $($tag:literal => [$($val:tt)+]),+ $(,)? }) => {
        impl Put for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.push(match self {
                    $($($val)+ => $tag,)+
                });
            }
        }

        impl Wire for $ty {
            const MIN_SIZE: usize = 1;

            fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
                Ok(match r.get::<u8>()? {
                    $($tag => $($val)+,)+
                    other => return Err(format!(concat!("unknown ", $what, " tag {}"), other)),
                })
            }
        }
    };
}

// ---------------------------------------------------------------------
// Application tile state: the one description of `Application::Tile`
// that a snapshot writes, a restore reads and the footprint counts.
// ---------------------------------------------------------------------

/// An application's per-tile state as a snapshot carries it, and the
/// host heap it owns.
///
/// Plain fixed-size [`Wire`] values (a counter, a small array) have it
/// from a blanket impl; a struct of per-vertex vectors lists its fields
/// once in [`tile_state!`](crate::tile_state).
pub trait TileState {
    /// Appends this state's encoding to `buf`.
    fn put_state(&self, buf: &mut Vec<u8>);

    /// Overwrites this state, which `Application::make_tile` built for
    /// the same tile, from `r` (the caller checks that nothing is left
    /// over).
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), String>;

    /// Host heap bytes owned beyond the inline `size_of::<Self>()`,
    /// for the simulator's bytes-per-tile figure.
    fn heap_bytes(&self) -> u64;
}

impl<T: Wire + Copy> TileState for T {
    fn put_state(&self, buf: &mut Vec<u8>) {
        self.put(buf);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), String> {
        *self = r.get()?;
        Ok(())
    }

    fn heap_bytes(&self) -> u64 {
        0
    }
}

/// A tile without state writes nothing.
impl TileState for () {
    fn put_state(&self, _buf: &mut Vec<u8>) {}

    fn restore(&mut self, _r: &mut ByteReader<'_>) -> Result<(), String> {
        Ok(())
    }

    fn heap_bytes(&self) -> u64 {
        0
    }
}

/// Describes a tile state struct of `Vec` fields by listing the fields
/// once, in wire order: `tile_state!(BfsTile, "bfs tile" { dist })`.
///
/// Each field is written as a sequence; a restore reads each with
/// [`ByteReader::seq_into`], so a length other than the one `make_tile`
/// gave is an error naming the label; the heap bytes are each vector's
/// capacity times its element size.
#[macro_export]
macro_rules! tile_state {
    ($ty:ty, $what:literal { $($f:ident),+ $(,)? }) => {
        impl $crate::snapshot::TileState for $ty {
            fn put_state(&self, buf: &mut Vec<u8>) {
                $($crate::snapshot::Put::put(&self.$f, buf);)+
            }

            fn restore(
                &mut self,
                r: &mut $crate::snapshot::ByteReader<'_>,
            ) -> Result<(), String> {
                $(r.seq_into(&mut self.$f, $what)?;)+
                Ok(())
            }

            fn heap_bytes(&self) -> u64 {
                #[allow(clippy::ptr_arg)]
                fn bytes<T>(v: &Vec<T>) -> u64 {
                    (v.capacity() * std::mem::size_of::<T>()) as u64
                }
                0 $(+ bytes(&self.$f))+
            }
        }
    };
}

// ---------------------------------------------------------------------
// The records of other modules and crates (hand-described: `OutMsg` and
// `ScheduledSend` carry no serde derives, and floats must not round-trip
// through decimal).
// ---------------------------------------------------------------------

wire_tag!(Option<ReduceOp>, "reduce-op" {
    0 => [None],
    1 => [Some(ReduceOp::SumF32)],
    2 => [Some(ReduceOp::SumU32)],
    3 => [Some(ReduceOp::MinU32)],
    4 => [Some(ReduceOp::MinF32)],
    5 => [Some(ReduceOp::MaxU32)],
});

/// A payload is the sequence of its words.
impl Put for Payload {
    fn put(&self, buf: &mut Vec<u8>) {
        self.as_slice().put(buf);
    }
}

impl Wire for Payload {
    const MIN_SIZE: usize = u32::MIN_SIZE;

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        Ok(Payload::from_slice(&r.seq::<u32>()?))
    }
}

wire_struct!(Packet {
    src: u32,
    dst: u32,
    task: u8,
    vc: u8,
    flits: u16,
    ready_at: u64,
    born: u64,
    reduce: Option<ReduceOp>,
    payload: Payload,
});

wire_struct!(OutMsg {
    dst: u32,
    task: u8,
    at_pu_cycle: u64,
    reduce: Option<ReduceOp>,
    payload: Payload,
});

wire_struct!(ScheduledSend {
    cycle: u64,
    dst: u32,
    task: u8,
    reduce: Option<ReduceOp>,
    payload: Payload,
});

wire_struct!(PuCounters as Var {
    int_ops,
    fp_ops,
    ctrl_ops,
    loads,
    stores,
    msgs_sent,
    tasks_executed,
    busy_cycles,
    cq_stall_cycles,
    app_ops,
});

wire_struct!(MemCounters as Var {
    sram_reads,
    sram_writes,
    sram_read_bits,
    sram_write_bits,
    tag_accesses,
    cache_hits,
    cache_misses,
    writebacks,
    dram_line_reads,
    dram_line_writes,
    prefetch_fills,
    prefetch_hits,
    queue_reads,
    queue_writes,
});

/// A tag-array line: its tag, state bits and LRU stamp, the tag and the
/// stamp as [`Var`]s (so an invalid, all-zero line takes 5 B).
impl Put for CacheLine {
    fn put(&self, buf: &mut Vec<u8>) {
        let l = self;
        (Var(l.tag), [l.valid, l.dirty, l.prefetched], Var(l.stamp)).put(buf);
    }
}

impl Wire for CacheLine {
    const MIN_SIZE: usize = <(Var, [bool; 3], Var)>::MIN_SIZE;

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let (Var(tag), [valid, dirty, prefetched], Var(stamp)) = r.get()?;
        Ok(CacheLine {
            tag,
            valid,
            dirty,
            stamp,
            prefetched,
        })
    }
}

wire_struct!(NocCounters {
    injected: u64,
    ejected: u64,
    msg_hops: u64,
    flit_hops_by_class: [u64; 4],
    onchip_flit_mm: f64,
    collisions: u64,
    backpressure: u64,
    eject_stalls: u64,
    reduce_combines: u64,
});

wire_struct!(LatencyStats {
    count: u64,
    total_cycles: u64,
    max_cycles: u64,
    buckets: [u64; 32],
});

wire_struct!(Frame {
    index: u64,
    start_cycle: u64,
    tasks_delta: u64,
    injected_delta: u64,
    ejected_delta: u64,
    router_busy: Vec<(u32, u32)>,
    pu_busy: Vec<(u32, u32)>,
    iq_occupancy: Vec<(u32, u32)>,
});

wire_struct!(FrameLog {
    interval_cycles: u64,
    frames: Vec<Frame>,
});

// ---------------------------------------------------------------------
// Snapshot records (crate-internal; the engine streams them out and
// applies them).
// ---------------------------------------------------------------------

wire_struct! {
    /// One tile's complete dynamic state.
    #[derive(Debug, Clone)]
    pub(crate) struct TileRecord {
        /// Global tile id.
        pub tile: u32,
        /// Whether the tile's init task for the current kernel is still due.
        pub init_pending: bool,
        /// PU busy cycles accumulated in the current (open) frame; 0 below
        /// verbosity V2, which keeps no such count.
        pub pu_busy_frame: u32,
        /// TSU round-robin pointer.
        pub rr_last: u8,
        /// Per-PU clocks (absolute PU-domain femtoseconds/cycles).
        pub pu_clock: Vec<u64>,
        /// Tasks dispatched (`PuCounters::tasks_executed`).
        pub tasks: Var,
        /// PU cycles they kept the tile busy (`PuCounters::busy_cycles`).
        pub busy_cycles: Var,
        /// The tile's cold box, if the writer had materialized one.
        pub cold: Option<ColdRecord>,
        /// Non-empty input queues: `(task, payloads in FIFO order)`, in
        /// ascending task order.
        pub iqs: Vec<(u8, Vec<Payload>)>,
        /// Non-empty channel queues: `(task, messages in FIFO order)`, in
        /// ascending task order.
        pub cqs: Vec<(u8, Vec<OutMsg>)>,
        /// Remaining (unconsumed) scheduled sends.
        pub scripted: Vec<ScheduledSend>,
        /// Application tile state (its `TileState` encoding).
        pub app: Vec<u8>,
    }
}

wire_struct! {
    /// What a tile's cold box holds (`TileCold`): the task-written
    /// counters and the memory model.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub(crate) struct ColdRecord {
        /// PU event counters (`tasks_executed` and `busy_cycles` stay
        /// zero here: the tile record carries them).
        pub pu: PuCounters,
        /// Memory event counters.
        pub mem: MemCounters,
        /// The cache model's LRU clock (0 on a scratchpad).
        pub cache_tick: Var,
        /// The cache model's tag array (empty on a scratchpad).
        pub cache_lines: Vec<CacheLine>,
    }
}

/// A cold record behind a presence flag (a `bool`): absent for a tile
/// without a cold box.
impl Put for Option<ColdRecord> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(cold) = self {
            cold.put(buf);
        }
    }
}

impl Wire for Option<ColdRecord> {
    const MIN_SIZE: usize = 1;

    fn get(r: &mut ByteReader<'_>) -> Result<Self, String> {
        r.get::<bool>()?.then(|| r.get()).transpose()
    }
}

wire_struct! {
    /// Per-NoC-plane state contributed by one worker's shard (merged across
    /// chunks at read time).
    #[derive(Debug, Clone, Default)]
    pub(crate) struct PlaneRecord {
        /// NoC counters (merged).
        pub counters: NocCounters,
        /// Latency histogram (merged).
        pub latency: LatencyStats,
        /// Queued packets: `(global tile, input port index, packet)` in FIFO
        /// order per queue.
        pub packets: Vec<(u32, u8, Packet)>,
        /// Busy output links: `(global tile, direction index, busy_until)`.
        pub links: Vec<(u32, u8, u64)>,
        /// Non-zero round-robin pointers: `(global tile, direction, value)`.
        pub rr: Vec<(u32, u8, u8)>,
        /// Non-zero per-frame router busy counts: `(global tile, count)`.
        pub busy_frame: Vec<(u32, u32)>,
    }
}

wire_struct! {
    /// Everything one worker owns, serialized independently and merged by
    /// the reader. The live driver never builds one: `Worker::
    /// encode_chunk_into` streams these fields, in this order, straight
    /// from engine state.
    #[derive(Debug, Clone)]
    pub(crate) struct WorkerChunk {
        /// Maximum PU timestamp seen (femtoseconds), for the kernel barrier.
        pub max_pu_fs: u64,
        /// Tasks dispatched in the current (open) frame interval.
        pub frame_tasks: u64,
        /// Packets injected in the current frame interval.
        pub frame_injected: u64,
        /// Packets ejected in the current frame interval.
        pub frame_ejected: u64,
        /// This worker's captured frames.
        pub frames: FrameLog,
        /// Per-plane NoC state of this worker's shards.
        pub planes: Vec<PlaneRecord>,
        /// Tile records for this worker's slice.
        pub tiles: Vec<TileRecord>,
        /// Non-zero HBM channels owned by this worker: `(id, transactions)`.
        pub channels: Vec<(u32, u64)>,
    }
}

wire_struct! {
    /// The identity header: what a snapshot must agree on with the run
    /// that resumes it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Header {
        /// Normalized config hash the snapshot was written under.
        pub config_hash: u64,
        /// Application name.
        pub app_name: String,
        /// Grid width in tiles.
        pub width: u32,
        /// Grid height in tiles.
        pub height: u32,
        /// PUs per tile.
        pub pus: u32,
        /// Physical NoC planes.
        pub planes: u32,
        /// Task types.
        pub task_types: u8,
        /// Kernel count of the application.
        pub kernels: u32,
    }
}

wire_struct! {
    /// Where in the run a snapshot was taken.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Progress {
        /// Kernel index being executed at the snapshot.
        pub kernel: u32,
        /// NoC cycle the resumed run re-enters at.
        pub cycle: u64,
        /// First cycle of the current kernel.
        pub base: u64,
    }
}

impl Header {
    /// The identity of a run of `app` under `cfg`: what its snapshots
    /// carry, and what a snapshot must carry to be resumed by it.
    pub(crate) fn of<A: Application>(cfg: &SystemConfig, app: &A) -> Self {
        Header {
            config_hash: config_hash(cfg),
            app_name: app.name().to_string(),
            width: cfg.width(),
            height: cfg.height(),
            pus: cfg.pus_per_tile,
            planes: cfg.noc.num_physical.max(1),
            task_types: app.task_types(),
            kernels: app.kernels(),
        }
    }

    /// The bytes every snapshot of a run starts with: magic, version,
    /// this header.
    pub(crate) fn file_prefix(&self) -> Vec<u8> {
        let mut b = SNAPSHOT_MAGIC.to_vec();
        SNAPSHOT_VERSION.put(&mut b);
        self.put(&mut b);
        b
    }
}

impl WorkerChunk {
    /// Folds another worker's chunk into this one: sums and maxima for
    /// the run-wide scalars, counters and frames; concatenation for
    /// everything keyed by global tile or channel id.
    fn absorb(&mut self, other: WorkerChunk) -> Result<(), String> {
        self.max_pu_fs = self.max_pu_fs.max(other.max_pu_fs);
        for (sum, part) in [
            (&mut self.frame_tasks, other.frame_tasks),
            (&mut self.frame_injected, other.frame_injected),
            (&mut self.frame_ejected, other.frame_ejected),
        ] {
            *sum = sum
                .checked_add(part)
                .ok_or("open-frame counters overflow")?;
        }
        self.frames
            .checked_merge(&other.frames)
            .ok_or("frame counters overflow")?;
        for (dst, src) in self.planes.iter_mut().zip(other.planes) {
            dst.counters
                .checked_merge(&src.counters)
                .ok_or("NoC counters overflow")?;
            dst.latency
                .checked_merge(&src.latency)
                .ok_or("latency counters overflow")?;
            dst.packets.extend(src.packets);
            dst.links.extend(src.links);
            dst.rr.extend(src.rr);
            dst.busy_frame.extend(src.busy_frame);
        }
        self.tiles.extend(other.tiles);
        self.channels.extend(other.channels);
        Ok(())
    }
}

/// A fully parsed snapshot, thread-count agnostic: the writers' chunks
/// are merged into one, every record keyed by global tile id.
#[derive(Debug)]
pub(crate) struct SnapshotData {
    /// The identity header.
    pub header: Header,
    /// Where the resumed run re-enters.
    pub at: Progress,
    /// All workers' state as one chunk: scalars, counters and frames
    /// summed, tiles sorted by id, channels by id.
    pub state: WorkerChunk,
}

// ---------------------------------------------------------------------
// Config identity.
// ---------------------------------------------------------------------

/// The identity of `cfg` as far as simulated behavior goes: the
/// [`identity_hash`] of its [`simulated`] tree against the default
/// config's.
///
/// A changed default therefore moves no hash: it is caught by the unit
/// test that pins the default config's simulated leaves, and by the
/// `snapshot_format` pins when a pinned run depends on it.
pub(crate) fn config_hash(cfg: &SystemConfig) -> u64 {
    identity_hash(&simulated(cfg), &simulated(&SystemConfig::default()))
}

/// `cfg`'s value tree without the host-side knobs that *may* differ
/// between the checkpointing and the resuming run: time leaping,
/// telemetry, the checkpoint options themselves.
fn simulated(cfg: &SystemConfig) -> Value {
    let mut tree = cfg.to_value();
    if let Value::Object(root) = &mut tree {
        for key in [
            "time_leap",
            "telemetry",
            "checkpoint_every",
            "checkpoint_path",
            "checkpoint_resume",
        ] {
            assert!(root.remove(key).is_some(), "no config key {key}");
        }
    }
    tree
}

/// FNV-1a over the key-sorted `(path, leaf)` pairs at which `tree`
/// differs from `base`: a key whose value equals the base's contributes
/// nothing, so adding or deleting a config key at its default moves no
/// hash. A leaf is anything but a non-empty object (arrays compare
/// whole); under a key the base lacks, or holds as a non-object, every
/// leaf of `tree` counts.
fn identity_hash(tree: &Value, base: &Value) -> u64 {
    fn diff(path: &str, v: &Value, base: Option<&Value>, out: &mut Vec<String>) {
        match v {
            _ if base == Some(v) => {}
            Value::Object(map) if !map.is_empty() => {
                for (key, child) in map.iter() {
                    let base = base.and_then(Value::as_object).and_then(|b| b.get(key));
                    diff(&format!("{path}/{key}"), child, base, out);
                }
            }
            leaf => {
                let text = serde_json::to_string(leaf).expect("a value tree serializes");
                out.push(format!("{path}={text}"));
            }
        }
    }
    let mut pairs = Vec::new();
    diff("", tree, Some(base), &mut pairs);
    pairs.sort_unstable();
    let mut h = Fnv::new();
    for pair in &pairs {
        h.bytes(pair.as_bytes());
        h.bytes(&[0]);
    }
    h.finish()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-parallel FNV-1a used for the whole-file snapshot checksum.
///
/// Eight independent 64-bit FNV-1a lanes each consume one `u64` word of a
/// 64-byte block (lane `i` seeds at `FNV_OFFSET ^ i`); [`finish`] zero-pads
/// the final partial block, folds the lanes together with plain FNV-1a
/// steps, and mixes in the total byte length so the padding cannot collide
/// with real trailing zeros. Classic FNV-1a advances one byte per
/// multiply, a serial dependency chain that caps it near one byte per
/// multiply latency; the eight lanes here are independent, so the hash
/// runs at word rate — which matters because the checksum covers every
/// byte of a file that reaches tens of megabytes on dense grids.
///
/// This hash defines the snapshot *file* checksum only. Digest checksums
/// ([`crate::digest`]) stay byte-serial FNV-1a: the committed golden
/// traces pin those values.
///
/// [`finish`]: SnapshotHasher::finish
#[derive(Debug)]
pub struct SnapshotHasher {
    lanes: [u64; 8],
    block: [u8; 64],
    fill: usize,
    total: u64,
}

impl SnapshotHasher {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        let mut lanes = [0u64; 8];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = FNV_OFFSET ^ i as u64;
        }
        SnapshotHasher {
            lanes,
            block: [0; 64],
            fill: 0,
            total: 0,
        }
    }

    fn compress(lanes: &mut [u64; 8], block: &[u8; 64]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().unwrap());
            *lane = (*lane ^ word).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs `bytes`. Split points don't matter: any sequence of
    /// `update` calls over the same byte stream yields the same checksum.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.fill > 0 {
            let take = (64 - self.fill).min(bytes.len());
            self.block[self.fill..self.fill + take].copy_from_slice(&bytes[..take]);
            self.fill += take;
            bytes = &bytes[take..];
            if self.fill < 64 {
                return; // everything fit in the still-partial block
            }
            let block = self.block;
            Self::compress(&mut self.lanes, &block);
            self.fill = 0;
        }
        let mut whole = bytes.chunks_exact(64);
        for block in &mut whole {
            Self::compress(&mut self.lanes, block.try_into().unwrap());
        }
        let tail = whole.remainder();
        self.block[..tail.len()].copy_from_slice(tail);
        self.fill = tail.len();
    }

    /// Pads the tail, folds the lanes and the total length, and returns
    /// the checksum.
    pub fn finish(mut self) -> u64 {
        if self.fill > 0 {
            let mut block = self.block;
            block[self.fill..].fill(0);
            Self::compress(&mut self.lanes, &block);
        }
        let mut h = FNV_OFFSET;
        for v in self
            .lanes
            .iter()
            .copied()
            .chain(std::iter::once(self.total))
        {
            h = (h ^ v).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

impl Default for SnapshotHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Writes a snapshot file: identity prefix + progress + length-prefixed
/// worker chunks + trailing checksum, through
/// [`output::replace`](muchisim_config::output::replace), so an
/// interrupted write never leaves a torn file at `path`. Single pass:
/// every section is hashed as it is streamed out, so the multi-megabyte
/// body is never assembled in memory.
pub(crate) fn write_snapshot_file(
    path: &str,
    file_prefix: &[u8],
    at: Progress,
    chunks: &[&[u8]],
) -> Result<(), String> {
    let mut prefix = file_prefix.to_vec();
    at.put(&mut prefix);
    (chunks.len() as u32).put(&mut prefix);
    muchisim_config::output::replace(path, |w| {
        let mut h = SnapshotHasher::new();
        h.update(&prefix);
        w.write_all(&prefix)?;
        for c in chunks {
            let len = (c.len() as u64).to_le_bytes();
            h.update(&len);
            w.write_all(&len)?;
            h.update(c);
            w.write_all(c)?;
        }
        w.write_all(&h.finish().to_le_bytes())
    })
    .map_err(|e| e.to_string())
}

/// Reads, checksums, and parses a snapshot file into merged,
/// thread-count-agnostic state.
pub(crate) fn read_snapshot(path: &str) -> Result<SnapshotData, SimError> {
    let bytes = std::fs::read(path)
        .map_err(|e| SimError::Snapshot(format!("reading snapshot {path}: {e}")))?;
    parse_snapshot(&bytes).map_err(|e| SimError::Snapshot(format!("snapshot {path}: {e}")))
}

fn parse_snapshot(bytes: &[u8]) -> Result<SnapshotData, String> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + 8 {
        return Err(format!("file too short ({} bytes)", bytes.len()));
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err("bad magic (not a MuchiSim snapshot)".into());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
        ));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    let mut h = SnapshotHasher::new();
    h.update(body);
    let computed = h.finish();
    if computed != stored {
        return Err(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}): file is corrupt"
        ));
    }

    let mut r = ByteReader::new(&body[12..]);
    let header: Header = r.get()?;
    let at: Progress = r.get()?;
    // each chunk is at least its own u64 byte length
    let n_chunks = r.count_of(u64::MIN_SIZE)?;

    let mut merged: Option<WorkerChunk> = None;
    for i in 0..n_chunks {
        let len = r.get::<u64>()?;
        if len > r.remaining() as u64 {
            return Err(format!(
                "chunk {i} claims {len} bytes, only {} left",
                r.remaining()
            ));
        }
        let mut cr = ByteReader::new(r.take(len as usize)?);
        let chunk: WorkerChunk = cr.get().map_err(|e| format!("chunk {i}: {e}"))?;
        cr.expect_end().map_err(|e| format!("chunk {i}: {e}"))?;
        if chunk.planes.len() as u64 != u64::from(header.planes) {
            return Err(format!(
                "chunk {i} has {} planes, header says {}",
                chunk.planes.len(),
                header.planes
            ));
        }
        match merged.as_mut() {
            None => merged = Some(chunk),
            Some(all) => all.absorb(chunk).map_err(|e| format!("chunk {i}: {e}"))?,
        }
    }
    r.expect_end()?;
    let mut state = merged.ok_or("snapshot holds no worker chunk")?;

    let total = header.width as u64 * header.height as u64;
    if state.tiles.len() as u64 != total {
        return Err(format!(
            "snapshot holds {} tile records for a {}x{} grid ({total} tiles)",
            state.tiles.len(),
            header.width,
            header.height
        ));
    }
    state.tiles.sort_unstable_by_key(|t| t.tile);
    for (i, t) in state.tiles.iter().enumerate() {
        if t.tile as u64 != i as u64 {
            return Err(format!(
                "tile record {i} has id {} (duplicate or gap)",
                t.tile
            ));
        }
    }
    state.channels.sort_unstable_by_key(|&(id, _)| id);
    Ok(SnapshotData { header, at, state })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `decode(encode(v)) == v`, nothing left over, and `MIN_SIZE` is a
    /// true lower bound; returns the encoded length.
    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) -> usize {
        let mut b = Vec::new();
        v.put(&mut b);
        assert!(b.len() >= T::MIN_SIZE, "{v:?} encodes below MIN_SIZE");
        let mut r = ByteReader::new(&b);
        assert_eq!(&r.get::<T>().unwrap(), v);
        r.expect_end().unwrap();
        b.len()
    }

    #[test]
    fn primitives_round_trip_bit_exactly() {
        round_trip(&7u8);
        round_trip(&300u16);
        round_trip(&70_000u32);
        round_trip(&(u64::MAX - 1));
        round_trip(&true);
        round_trip(&"muchisim".to_string());
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&vec![true, false]);
        round_trip(&vec![(1u32, 2u8, 3u64)]);
        round_trip(&[9u64; 4]);
        let mut b = Vec::new();
        (-0.125f32, std::f64::consts::PI, f32::NAN).put(&mut b);
        let (x, y, z): (f32, f64, f32) = ByteReader::new(&b).get().unwrap();
        assert_eq!(x, -0.125);
        assert_eq!(y.to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(z.to_bits(), f32::NAN.to_bits());
        // the two sequence writers and the slice form agree byte for byte
        let (mut a, mut c, mut d) = (Vec::new(), Vec::new(), Vec::new());
        put_seq(&mut a, [5u8, 6, 7]);
        [5u8, 6, 7][..].put(&mut c);
        put_seq(
            &mut d,
            [4u8, 5, 6, 7, 8].iter().filter(|&&v| (5..8).contains(&v)),
        );
        assert_eq!(a, [3, 0, 0, 0, 5, 6, 7]);
        assert_eq!((&a, &a), (&c, &d));
    }

    #[test]
    fn varints_round_trip_and_reject_overlong_forms() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            round_trip(&Var(v));
        }
        assert_eq!(round_trip(&Var(127)), 1);
        assert_eq!(round_trip(&Var(u64::MAX)), 10);
        // an 11th byte, and a 10th byte with bits past 2^64
        assert!(ByteReader::new(&[0x80; 11]).get::<Var>().is_err());
        let mut over = [0xFF; 10];
        over[9] = 0x02;
        assert!(ByteReader::new(&over).get::<Var>().is_err());
    }

    #[test]
    fn reader_rejects_truncation_and_absurd_lengths() {
        assert!(ByteReader::new(&[1, 2]).get::<u32>().is_err());
        // a length prefix claiming more elements than bytes present must
        // error before anything is allocated, whatever the element type
        let mut b = Vec::new();
        u32::MAX.put(&mut b);
        b.extend_from_slice(&[0; 64]);
        assert!(ByteReader::new(&b).seq::<u8>().is_err());
        assert!(ByteReader::new(&b).seq::<u32>().is_err());
        assert!(ByteReader::new(&b).seq::<Packet>().is_err());
        assert!(ByteReader::new(&b).seq::<TileRecord>().is_err());
        assert!(ByteReader::new(&b).get::<String>().is_err());
        // the cap is the element's own minimum: 66 bytes hold at most
        // two 33-byte packets
        for (n, ok) in [(2u32, true), (3, false)] {
            let mut b = Vec::new();
            n.put(&mut b);
            b.extend_from_slice(&[0; 66]);
            let got = ByteReader::new(&b).count_of(Packet::MIN_SIZE);
            assert_eq!(got.is_ok(), ok, "{n} packets in 66 bytes");
        }
        assert_eq!(ByteReader::new(&[]).remaining(), 0);
    }

    #[test]
    fn every_described_record_round_trips_and_min_size_is_its_empty_form() {
        let payload = Payload::from_slice(&[7, 8, 9]);
        let pkt = Packet::unicast(3, 99, 2, payload.clone(), 4)
            .with_reduce(ReduceOp::MaxU32)
            .ready_at(1234)
            .born(1200);
        assert_eq!(round_trip(&pkt), Packet::MIN_SIZE + 12);
        assert_eq!(Packet::MIN_SIZE, 33);
        let msg = OutMsg {
            dst: 3,
            task: 1,
            payload: Payload::from_slice(&[1, 2]),
            at_pu_cycle: 88,
            reduce: Some(ReduceOp::SumU32),
        };
        assert_eq!(round_trip(&msg), OutMsg::MIN_SIZE + 8);
        let send = ScheduledSend {
            cycle: 50,
            dst: 1,
            task: 0,
            payload: Payload::empty(),
            reduce: None,
        };
        assert_eq!(round_trip(&send), ScheduledSend::MIN_SIZE);
        round_trip(&payload);
        assert_eq!(round_trip(&PuCounters::default()), PuCounters::MIN_SIZE);
        assert_eq!(round_trip(&MemCounters::default()), MemCounters::MIN_SIZE);
        round_trip(&PuCounters {
            int_ops: 42,
            cq_stall_cycles: u64::MAX,
            ..Default::default()
        });
        let cold = ColdRecord {
            cache_lines: vec![CacheLine::default(); 2],
            ..Default::default()
        };
        assert_eq!(round_trip(&None::<ColdRecord>), 1);
        assert_eq!(round_trip(&Some(cold)), 1 + ColdRecord::MIN_SIZE + 2 * 5);
        round_trip(&CacheLine {
            tag: u64::MAX,
            valid: true,
            dirty: true,
            stamp: 1 << 40,
            prefetched: true,
        });
        round_trip(&MemCounters {
            sram_read_bits: 1 << 40,
            queue_writes: 7,
            ..Default::default()
        });
        let noc = NocCounters {
            injected: 9,
            flit_hops_by_class: [1, 2, 3, 4],
            onchip_flit_mm: 1.25,
            reduce_combines: 5,
            ..Default::default()
        };
        assert_eq!(round_trip(&noc), NocCounters::MIN_SIZE);
        let mut lat = LatencyStats::default();
        lat.record(17);
        assert_eq!(round_trip(&lat), LatencyStats::MIN_SIZE);
        let mut log = FrameLog::new(256);
        assert_eq!(round_trip(&log), FrameLog::MIN_SIZE);
        log.frames.push(Frame {
            index: 0,
            tasks_delta: 5,
            router_busy: vec![(1, 2)],
            iq_occupancy: vec![(3, 4), (5, 6)],
            ..Default::default()
        });
        assert_eq!(round_trip(&log), FrameLog::MIN_SIZE + Frame::MIN_SIZE + 24);
        let header = Header {
            config_hash: 0xABCD,
            app_name: "ping".into(),
            width: 2,
            height: 3,
            pus: 1,
            planes: 1,
            task_types: 4,
            kernels: 5,
        };
        assert_eq!(round_trip(&header), Header::MIN_SIZE + 4);
        let at = Progress {
            kernel: 1,
            cycle: 42,
            base: 7,
        };
        assert_eq!(round_trip(&at), 20);
    }

    /// Two per-vertex vectors, described once.
    #[derive(Debug, PartialEq)]
    struct TwoFields {
        dist: Vec<u32>,
        seen: Vec<bool>,
    }
    crate::tile_state!(TwoFields, "two-field tile" { dist, seen });

    #[test]
    fn a_described_tile_state_round_trips_checks_lengths_and_counts_its_heap() {
        let made = || TwoFields {
            dist: vec![0; 3],
            seen: vec![false; 2],
        };
        let state = TwoFields {
            dist: vec![7, u32::MAX, 0],
            seen: vec![true, false],
        };
        let mut b = Vec::new();
        state.put_state(&mut b);
        let mut expect = Vec::new();
        (&state.dist, &state.seen).put(&mut expect);
        assert_eq!(b, expect, "the fields in order, each as a sequence");
        let mut back = made();
        let mut r = ByteReader::new(&b);
        back.restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, state);

        // a field of another length than this run's names the label
        let mut long = Vec::new();
        (vec![1u32; 4], &state.seen).put(&mut long);
        let err = made().restore(&mut ByteReader::new(&long)).unwrap_err();
        assert_eq!(
            err,
            "two-field tile: snapshot holds 4 values, this run has 3"
        );

        let mut wide = made();
        wide.dist.reserve_exact(10);
        let by_hand = wide.dist.capacity() as u64 * 4 + wide.seen.capacity() as u64;
        assert_eq!(wide.heap_bytes(), by_hand);

        // a plain value is its own wire form and owns no heap
        let mut b = Vec::new();
        [3u64, 4].put_state(&mut b);
        let mut pair = [0u64; 2];
        pair.restore(&mut ByteReader::new(&b)).unwrap();
        assert_eq!((pair, pair.heap_bytes(), b.len()), ([3, 4], 0, 16));
    }

    #[test]
    fn reduce_tags_cover_all_ops() {
        for (tag, op) in [
            None,
            Some(ReduceOp::SumF32),
            Some(ReduceOp::SumU32),
            Some(ReduceOp::MinU32),
            Some(ReduceOp::MinF32),
            Some(ReduceOp::MaxU32),
        ]
        .into_iter()
        .enumerate()
        {
            let mut b = Vec::new();
            op.put(&mut b);
            assert_eq!(b, [tag as u8]);
            round_trip(&op);
        }
        let err = ByteReader::new(&[99]).get::<Option<ReduceOp>>();
        assert!(err.unwrap_err().contains("reduce-op tag 99"));
    }

    fn sample_tile(tile: u32) -> TileRecord {
        TileRecord {
            tile,
            init_pending: true,
            pu_busy_frame: 4,
            rr_last: 1,
            pu_clock: vec![100, 200],
            tasks: Var(3),
            busy_cycles: Var(300),
            cold: (tile % 2 == 1).then(|| ColdRecord {
                cache_tick: Var(9),
                cache_lines: vec![CacheLine::default(); 3],
                ..Default::default()
            }),
            iqs: vec![(0, vec![Payload::from_slice(&[5])])],
            cqs: vec![(
                1,
                vec![OutMsg {
                    dst: 3,
                    task: 1,
                    payload: Payload::from_slice(&[1, 2]),
                    at_pu_cycle: 88,
                    reduce: Some(ReduceOp::SumU32),
                }],
            )],
            scripted: vec![ScheduledSend {
                cycle: 50,
                dst: 1,
                task: 0,
                payload: Payload::empty(),
                reduce: None,
            }],
            app: vec![tile as u8, 2, 3],
        }
    }

    fn sample_chunk(tiles: u32) -> WorkerChunk {
        let mut frames = FrameLog::new(256);
        frames.frames.push(Frame {
            tasks_delta: 5,
            router_busy: vec![(1, 2)],
            ..Default::default()
        });
        let mut latency = LatencyStats::default();
        latency.record(17);
        WorkerChunk {
            max_pu_fs: 123_456,
            frame_tasks: 10,
            frame_injected: 3,
            frame_ejected: 2,
            frames,
            planes: vec![PlaneRecord {
                counters: NocCounters {
                    injected: 9,
                    onchip_flit_mm: 1.25,
                    ..Default::default()
                },
                latency,
                packets: vec![(
                    1,
                    12,
                    Packet::unicast(0, 1, 1, Payload::from_slice(&[1]), 2).ready_at(7),
                )],
                links: vec![(1, 8, 99)],
                rr: vec![(1, 0, 3)],
                busy_frame: vec![(1, 11)],
            }],
            tiles: (0..tiles).map(sample_tile).collect(),
            channels: vec![(2, 77)],
        }
    }

    /// A chunk survives encode → decode → encode unchanged: the derived
    /// writer and reader of every record agree on one layout.
    #[test]
    fn worker_chunk_reencodes_to_the_same_bytes() {
        let mut bytes = Vec::new();
        sample_chunk(2).put(&mut bytes);
        let mut r = ByteReader::new(&bytes);
        let back: WorkerChunk = r.get().unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.planes[0].packets, sample_chunk(2).planes[0].packets);
        assert_eq!(back.tiles[1].cqs, sample_tile(1).cqs);
        assert_eq!(back.tiles[0].cold, None);
        assert_eq!(back.tiles[1].cold, sample_tile(1).cold);
        let mut again = Vec::new();
        back.put(&mut again);
        assert_eq!(again, bytes);
        // the empty chunk is MIN_SIZE bytes, and no shorter prefix parses
        assert!(bytes.len() > WorkerChunk::MIN_SIZE);
        for cut in [0, WorkerChunk::MIN_SIZE - 1, bytes.len() - 1] {
            assert!(ByteReader::new(&bytes[..cut]).get::<WorkerChunk>().is_err());
        }
    }

    #[test]
    fn config_hash_ignores_host_side_knobs() {
        let base = SystemConfig::builder().chiplet_tiles(4, 4).build().unwrap();
        let mut leap_off = base.clone();
        leap_off.time_leap = false;
        let mut ckpt = base.clone();
        ckpt.checkpoint_every = Some(100);
        ckpt.checkpoint_path = Some("x.ckpt".into());
        let mut telem = base.clone();
        telem.telemetry.sample_every = Some(1024);
        telem.telemetry.wards.stall_cycles = Some(50_000);
        assert_eq!(config_hash(&base), config_hash(&leap_off));
        assert_eq!(config_hash(&base), config_hash(&ckpt));
        assert_eq!(config_hash(&base), config_hash(&telem));
        let other = SystemConfig::builder().chiplet_tiles(8, 8).build().unwrap();
        assert_ne!(config_hash(&base), config_hash(&other));
        // the default config differs from itself nowhere: the empty hash
        leap_off = SystemConfig::default();
        leap_off.time_leap = false;
        assert_eq!(config_hash(&leap_off), Fnv::new().finish());
    }

    #[test]
    fn changing_one_simulated_leaf_moves_the_hash() {
        let mut deeper = SystemConfig::default();
        deeper.noc.buffer_depth += 1;
        let dram = SystemConfig {
            memory: muchisim_config::MemoryConfig::Dram(Default::default()),
            ..Default::default()
        };
        let hashes = [SystemConfig::default(), deeper, dram].map(|c| config_hash(&c));
        assert!(hashes[0] != hashes[1] && hashes[0] != hashes[2] && hashes[1] != hashes[2]);
    }

    /// A changed default moves no [`config_hash`], so this pin is what
    /// notices one. When it fails, decide whether the new default alters
    /// simulated behavior (then bump [`SNAPSHOT_VERSION`]; a key added or
    /// deleted at a default that reproduces the old behavior needs no
    /// bump), and paste the new hash either way.
    #[test]
    fn the_default_configs_simulated_leaves_are_pinned() {
        let h = identity_hash(&simulated(&SystemConfig::default()), &Value::Null);
        assert_eq!(
            h, 0x943c_08c7_b7e8_91e5,
            "the default config's simulated leaves now hash to {h:#018x}: see this test's doc"
        );
    }

    /// Adding or removing a key at its default needs no version bump.
    #[test]
    fn a_key_equal_in_both_trees_leaves_the_hash_alone() {
        let mut deeper = SystemConfig::default();
        deeper.noc.buffer_depth = 99;
        let [mut tree, mut base] = [deeper.to_value(), SystemConfig::default().to_value()];
        let before = identity_hash(&tree, &base);
        for t in [&mut tree, &mut base] {
            let Value::Object(root) = t else {
                unreachable!("a config is an object")
            };
            root.insert("a_new_knob".into(), Value::Bool(true));
        }
        assert_eq!(identity_hash(&tree, &base), before);
        assert_ne!(identity_hash(&base, &base), before);
    }

    #[test]
    fn file_round_trip_and_corruption_detection() {
        let dir = std::env::temp_dir().join("muchisim-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join(format!("roundtrip-{}.ckpt", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let header = Header {
            config_hash: 0xABCD,
            app_name: "ping".into(),
            width: 2,
            height: 2,
            pus: 1,
            planes: 1,
            task_types: 2,
            kernels: 1,
        };
        let at = Progress {
            kernel: 0,
            cycle: 42,
            base: 7,
        };
        // two workers, two tiles each, written out of tile order
        let (mut lo, mut hi) = (sample_chunk(0), sample_chunk(0));
        lo.tiles = vec![sample_tile(0), sample_tile(2)];
        hi.tiles = vec![sample_tile(3), sample_tile(1)];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        hi.put(&mut a);
        lo.put(&mut b);
        write_snapshot_file(&path, &header.file_prefix(), at, &[&a, &b]).unwrap();
        let snap = read_snapshot(&path).unwrap();
        assert_eq!((&snap.header, snap.at), (&header, at));
        let state = &snap.state;
        assert_eq!(state.tiles.len(), 4);
        assert_eq!(state.tiles[3].app, vec![3, 2, 3]);
        assert_eq!(state.frame_tasks, 20);
        assert_eq!(state.planes[0].counters.injected, 18);
        assert_eq!(state.planes[0].packets.len(), 2);
        assert_eq!(state.channels, vec![(2, 77), (2, 77)]);

        // flip one byte in the middle: checksum must catch it
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let bad = format!("{path}.bad");
        std::fs::write(&bad, &bytes).unwrap();
        let err = read_snapshot(&bad).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "{err:?}");
        assert!(err.to_string().contains("checksum"), "{err}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn snapshot_hasher_is_split_invariant_and_length_aware() {
        let data: Vec<u8> = (0..1000u32).flat_map(|v| v.to_le_bytes()).collect();
        let mut one = SnapshotHasher::new();
        one.update(&data);
        let whole = one.finish();
        // any update() split yields the same checksum as one shot
        for split in [0usize, 1, 7, 63, 64, 65, 512, data.len()] {
            let mut h = SnapshotHasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split} diverged");
        }
        let mut tiny = SnapshotHasher::new();
        for b in &data {
            tiny.update(std::slice::from_ref(b));
        }
        assert_eq!(tiny.finish(), whole, "byte-at-a-time diverged");
        // the length fold distinguishes zero padding from real zeros
        let mut padded = SnapshotHasher::new();
        padded.update(&data);
        padded.update(&[0u8; 3]);
        assert_ne!(padded.finish(), whole);
        // and a flipped bit anywhere changes the sum
        let mut corrupt = data.clone();
        corrupt[777] ^= 0x10;
        let mut h = SnapshotHasher::new();
        h.update(&corrupt);
        assert_ne!(h.finish(), whole);
    }
}
