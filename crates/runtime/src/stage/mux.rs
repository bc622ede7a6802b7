//! The steal mux: the arbiter that decides which channel feeds a worker next.
//!
//! A hardware mux with an arbiter picks one of N valid inputs per grant; the
//! software analogue here fills a worker's decode batch from a slice of
//! [`Channel`]s.  The pipeline has one discipline, [`StealMux`]: drain
//! the worker's *home* channel first and steal a whole batch from the first
//! busy neighbour only when home runs dry.  That maximizes locality (one
//! lattice's rounds mostly decode on one worker's warm state) while
//! guaranteeing a burst on one channel is drained by the whole pool.  The
//! mux never copies a record twice — it pops straight into the caller's
//! batch records.

use crate::stage::Channel;

/// What one [`StealMux::fill`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FillResult {
    /// Records now resident in `batch[..filled]`.
    pub filled: usize,
    /// How many of them were taken from a non-home channel.
    pub stolen: u64,
}

/// Home-first batch filling with whole-batch stealing: drain the home
/// channel up to the batch size; only if that yields *nothing*, scan
/// neighbours in `(home + offset) % n` order and take a whole batch from the
/// first busy one, counting every record taken there as stolen.
#[derive(Debug, Clone, Copy)]
pub struct StealMux {
    /// The channel this worker drains preferentially.
    home: usize,
}

impl StealMux {
    /// A steal mux anchored at `home` (the worker's own channel index).
    #[must_use]
    pub fn new(home: usize) -> Self {
        StealMux { home }
    }

    /// Pops up to `batch.len()` records from `channels` into `batch`,
    /// returning how many slots were filled and how many were stolen.
    /// Each `batch[i]` must be sized to the channels' record width.
    pub fn fill(&self, channels: &[Channel], batch: &mut [Vec<u64>]) -> FillResult {
        let mut filled = 0usize;
        while filled < batch.len() && channels[self.home].try_recv(&mut batch[filled]) {
            filled += 1;
        }
        let mut stolen = 0u64;
        if filled == 0 && channels.len() > 1 {
            // Home dry: steal a batch from the first busy neighbour so a
            // burst of heavy rounds on one channel is drained by the pool.
            for offset in 1..channels.len() {
                let victim = (self.home + offset) % channels.len();
                while filled < batch.len() && channels[victim].try_recv(&mut batch[filled]) {
                    filled += 1;
                }
                if filled > 0 {
                    stolen = filled as u64;
                    break;
                }
            }
        }
        FillResult { filled, stolen }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel_with(records: &[u64]) -> Channel {
        let channel = Channel::new(records.len().max(1), 1);
        for &record in records {
            assert!(channel.try_send(&[record]));
        }
        channel
    }

    #[test]
    fn steal_mux_prefers_home_and_steals_whole_batches() {
        let channels = [channel_with(&[10, 11]), channel_with(&[20, 21, 22])];
        let mux = StealMux::new(0);
        let mut batch: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64]).collect();
        // Home has two records: the fill takes both and steals nothing even
        // though a neighbour is busy.
        let result = mux.fill(&channels, &mut batch);
        assert_eq!(
            result,
            FillResult {
                filled: 2,
                stolen: 0
            }
        );
        assert_eq!((batch[0][0], batch[1][0]), (10, 11));
        // Home dry: the whole next batch comes from the neighbour, counted
        // as stolen.
        let result = mux.fill(&channels, &mut batch);
        assert_eq!(
            result,
            FillResult {
                filled: 3,
                stolen: 3
            }
        );
        assert_eq!((batch[0][0], batch[1][0], batch[2][0]), (20, 21, 22));
        assert_eq!(mux.fill(&channels, &mut batch), FillResult::default());
    }

    #[test]
    fn steal_mux_scans_neighbours_in_ring_order() {
        let channels = [channel_with(&[]), channel_with(&[]), channel_with(&[30])];
        // Home 1 scans 2 before wrapping to 0.
        let mux = StealMux::new(1);
        let mut batch: Vec<Vec<u64>> = (0..2).map(|_| vec![0u64]).collect();
        let result = mux.fill(&channels, &mut batch);
        assert_eq!(
            result,
            FillResult {
                filled: 1,
                stolen: 1
            }
        );
        assert_eq!(batch[0][0], 30);
    }
}
