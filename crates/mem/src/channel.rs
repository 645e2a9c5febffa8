//! HBM channel contention and tile-to-channel mapping.

use muchisim_config::{MemoryConfig, SystemConfig};
use serde::{Deserialize, Serialize};

/// The contention state of one HBM channel.
///
/// Paper §III-D: "the contention is modeled by imposing that the memory
/// channel can only take one request per cycle, and keeping the count of
/// the transactions of each channel. For example, if a request is done at
/// cycle X, but the memory channel has received Y transactions (where
/// Y > X), then the delay of this request is Y − X + the round trip to the
/// memory channel." Table I's 64 GB/s per channel is not modelled: the
/// one-request-per-cycle rule is the only contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChannelState {
    /// The cycle at which the next request would be accepted.
    pub transactions: u64,
}

impl ChannelState {
    /// Issues one line request at `cycle`; returns the total latency in
    /// cycles including the controller round trip `round_trip`.
    pub(crate) fn request(&mut self, cycle: u64, round_trip: u64) -> u64 {
        let queue_wait = self.transactions.saturating_sub(cycle);
        self.transactions = self.transactions.max(cycle) + 1;
        queue_wait + round_trip
    }

    /// The cycle at which this channel's transaction backlog drains (the
    /// earliest cycle a new request would see no queue wait), or `None`
    /// if the channel is already caught up at `now`.
    ///
    /// Channels never initiate events on their own — request latency is
    /// computed analytically at issue time, and `transactions` is frozen
    /// between dispatches — so folding this horizon is not required for
    /// correctness. The time-leaping driver includes it for layering
    /// completeness; it can only split a leap at the drain instant
    /// (at most once per frozen backlog value), never change results.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        (self.transactions > now).then_some(self.transactions)
    }
}

/// Maps tiles to HBM channels.
///
/// Channels are vertical column bands within each chiplet, so that a
/// channel's tiles form contiguous columns: a 32×32-tile chiplet with one
/// 8-channel HBM device has 4-column bands of 128 tiles per channel
/// (paper Fig. 5's "128 Tile/Ch"). Column alignment also keeps channel
/// state thread-local under the column-sliced parallel driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelMap {
    chiplet_w: u32,
    chiplet_h: u32,
    chiplets_x: u32,
    channels_per_chiplet: u32,
    band_cols: u32,
}

impl ChannelMap {
    /// Builds the channel map, or `None` in scratchpad mode.
    pub fn from_system(cfg: &SystemConfig) -> Option<Self> {
        let dram = match &cfg.memory {
            MemoryConfig::Scratchpad => return None,
            MemoryConfig::Dram(d) => d,
        };
        let channels = dram.devices_per_chiplet * cfg.params.hbm.channels_per_device;
        let chiplet_w = cfg.hierarchy.chiplet.x;
        let band_cols = (chiplet_w / channels).max(1);
        let effective_channels = chiplet_w.div_ceil(band_cols);
        Some(ChannelMap {
            chiplet_w,
            chiplet_h: cfg.hierarchy.chiplet.y,
            chiplets_x: cfg.width() / chiplet_w,
            channels_per_chiplet: effective_channels,
            band_cols,
        })
    }

    /// Total channels in the system given the grid height.
    pub fn total_channels(&self, grid_height: u32) -> u32 {
        let chiplets_y = grid_height / self.chiplet_h;
        self.chiplets_x * chiplets_y * self.channels_per_chiplet
    }

    /// The channel serving the tile at `(x, y)`.
    pub fn channel_of(&self, x: u32, y: u32) -> u32 {
        let chiplet_x = x / self.chiplet_w;
        let chiplet_y = y / self.chiplet_h;
        let band = (x % self.chiplet_w) / self.band_cols;
        let band = band.min(self.channels_per_chiplet - 1);
        (chiplet_y * self.chiplets_x + chiplet_x) * self.channels_per_chiplet + band
    }

    /// Width of a channel's column band.
    pub fn band_cols(&self) -> u32 {
        self.band_cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::DramConfig;

    fn dram_cfg(chiplet: u32) -> SystemConfig {
        SystemConfig::builder()
            .chiplet_tiles(chiplet, chiplet)
            .dram(DramConfig::default())
            .build()
            .unwrap()
    }

    /// Tiles of a `side`-wide chiplet that `map` sends to channel 0.
    fn tiles_per_channel(map: &ChannelMap, side: u32) -> usize {
        (0..side)
            .flat_map(|y| (0..side).map(move |x| (x, y)))
            .filter(|&(x, y)| map.channel_of(x, y) == 0)
            .count()
    }

    #[test]
    fn paper_fig5_tiles_per_channel() {
        // 32x32 chiplet, 8 channels -> 128 tiles/channel in 4-column bands
        let map = ChannelMap::from_system(&dram_cfg(32)).unwrap();
        assert_eq!(tiles_per_channel(&map, 32), 128);
        assert_eq!(map.band_cols(), 4);
        // 16x16 chiplet, 8 channels -> 32 tiles/channel
        let map = ChannelMap::from_system(&dram_cfg(16)).unwrap();
        assert_eq!(tiles_per_channel(&map, 16), 32);
        assert_eq!(map.band_cols(), 2);
    }

    #[test]
    fn scratchpad_has_no_channels() {
        let cfg = SystemConfig::default();
        assert!(ChannelMap::from_system(&cfg).is_none());
    }

    #[test]
    fn channel_ids_dense_and_column_aligned() {
        let cfg = dram_cfg(32);
        let map = ChannelMap::from_system(&cfg).unwrap();
        let total = map.total_channels(cfg.height());
        assert_eq!(total, 8);
        let mut seen = vec![false; total as usize];
        for y in 0..32 {
            for x in 0..32 {
                let c = map.channel_of(x, y);
                assert!(c < total);
                seen[c as usize] = true;
                // all tiles in a column share a channel
                assert_eq!(c, map.channel_of(x, 0));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn channel_request_no_contention() {
        let mut ch = ChannelState::default();
        // first request at cycle 100: no queue wait
        assert_eq!(ch.request(100, 50), 50);
        // immediately after: next slot is 101, request at 100 -> +1 wait
        assert_eq!(ch.request(100, 50), 51);
        assert_eq!(ch.request(100, 50), 52);
    }

    #[test]
    fn channel_request_catches_up() {
        let mut ch = ChannelState::default();
        for _ in 0..10 {
            ch.request(0, 50);
        }
        // much later, the backlog has drained
        assert_eq!(ch.request(1000, 50), 50);
    }

    #[test]
    fn channel_horizon_is_backlog_drain() {
        let mut ch = ChannelState::default();
        assert_eq!(ch.next_event_cycle(0), None);
        for _ in 0..10 {
            ch.request(0, 50);
        }
        assert_eq!(ch.next_event_cycle(0), Some(10));
        assert_eq!(ch.next_event_cycle(9), Some(10));
        assert_eq!(ch.next_event_cycle(10), None);
    }

    #[test]
    fn more_channels_than_columns_clamps() {
        // 4x4 chiplet with 8 channels: bands clamp to 1 column = 4 channels
        let map = ChannelMap::from_system(&dram_cfg(4)).unwrap();
        assert_eq!(map.band_cols(), 1);
        assert_eq!(map.channels_per_chiplet, 4);
        assert_eq!(tiles_per_channel(&map, 4), 4);
    }
}
