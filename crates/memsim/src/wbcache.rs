//! The per-channel 128 KB 64-way victim writeback cache
//! (Section III-E of the paper, reused from FMR).
//!
//! Dirty blocks evicted from the LLC land here instead of the small
//! 128-entry write buffer, so the buffer does not fill before the LLC
//! has accumulated a large write batch. A read that hits the writeback
//! cache is serviced without going to DRAM. When the channel enters
//! write mode the cache's contents are drained to DRAM through the
//! write buffer.

/// The victim writeback cache: 64-way set-associative over block
/// addresses, FIFO within a set (victim-buffer semantics).
#[derive(Debug, Clone)]
pub struct WritebackCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    /// Blocks held across all sets, kept in step by `offer` and
    /// `drain_with`: the node checks it on every simulated op.
    pending: usize,
    read_hits: u64,
}

impl WritebackCache {
    /// Builds the paper's 128 KB, 64-way configuration: 32 sets of 64
    /// blocks.
    pub fn paper_default() -> WritebackCache {
        WritebackCache::new(128 * 1024, 64)
    }

    /// Builds a cache of `size_bytes` with `ways` blocks per set.
    ///
    /// # Panics
    ///
    /// Panics unless the set count is a nonzero power of two.
    pub fn new(size_bytes: usize, ways: usize) -> WritebackCache {
        let sets = size_bytes / (64 * ways);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "writeback cache needs a power-of-two set count"
        );
        WritebackCache {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            pending: 0,
            read_hits: 0,
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    /// Offers an evicted dirty block. Returns `true` when absorbed;
    /// `false` when the set is full and the block must go to the write
    /// buffer instead (the paper's overflow rule).
    pub fn offer(&mut self, block: u64) -> bool {
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        if set.contains(&block) {
            return true; // coalesced with an existing pending write
        }
        if set.len() < self.ways {
            set.push(block);
            self.pending += 1;
            true
        } else {
            false
        }
    }

    /// Read-hit check: a load that finds its block here is serviced
    /// from the cache. The entry stays pending (it is still dirty).
    pub fn read_hit(&mut self, block: u64) -> bool {
        let set_idx = self.set_of(block);
        let hit = self.sets[set_idx].contains(&block);
        if hit {
            self.read_hits += 1;
        }
        hit
    }

    /// Drains every pending block (write-mode entry), leaving the
    /// cache empty.
    pub fn drain(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        self.drain_with(|block| out.push(block));
        out
    }

    /// Drains every pending block through `sink` (same set order as
    /// [`drain`](Self::drain)), leaving the cache empty — the write
    /// path feeds blocks straight into the controller's write queue
    /// without building an intermediate vector.
    pub fn drain_with<F: FnMut(u64)>(&mut self, mut sink: F) {
        for set in &mut self.sets {
            for block in set.drain(..) {
                sink(block);
            }
        }
        self.pending = 0;
    }

    /// Pending block count.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no writes are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Loads serviced by this cache so far.
    pub fn read_hits(&self) -> u64 {
        self.read_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The running count equals the sum of the set lengths after any
        /// mix of offers (absorbed, coalesced or overflowing), read hits
        /// and drains.
        #[test]
        fn len_matches_set_contents(
            ops in proptest::collection::vec((0u8..10, 0u64..512), 0..400),
        ) {
            // 8 sets × 4 ways, so sets fill and overflow often.
            let mut c = WritebackCache::new(8 * 4 * 64, 4);
            for (kind, block) in ops {
                match kind {
                    0..=5 => {
                        c.offer(block);
                    }
                    6..=8 => {
                        c.read_hit(block);
                    }
                    _ => {
                        let before = c.len();
                        prop_assert_eq!(c.drain().len(), before);
                    }
                }
                prop_assert_eq!(c.len(), c.sets.iter().map(Vec::len).sum::<usize>());
            }
        }
    }

    #[test]
    fn paper_dimensions() {
        let c = WritebackCache::paper_default();
        assert_eq!(c.sets.len(), 32);
        assert_eq!(c.ways, 64);
        // 32 sets × 64 ways × 64 B = 128 KB.
        assert_eq!(c.sets.len() * c.ways * 64, 128 * 1024);
    }

    #[test]
    fn absorbs_until_set_full_then_overflows() {
        let mut c = WritebackCache::new(64 * 2 * 64, 2); // 64 sets × 2 ways
        let set_stride = 64u64; // blocks mapping to the same set
        assert!(c.offer(0));
        assert!(c.offer(set_stride));
        assert!(
            !c.offer(2 * set_stride),
            "third block in a 2-way set overflows"
        );
        // A different set still has room.
        assert!(c.offer(1));
    }

    #[test]
    fn duplicate_offers_coalesce() {
        let mut c = WritebackCache::paper_default();
        assert!(c.offer(42));
        assert!(c.offer(42));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn read_hits_are_counted_and_nondestructive() {
        let mut c = WritebackCache::paper_default();
        c.offer(7);
        assert!(c.read_hit(7));
        assert!(c.read_hit(7));
        assert!(!c.read_hit(8));
        assert_eq!(c.read_hits(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn drain_empties_everything() {
        let mut c = WritebackCache::paper_default();
        for b in 0..100u64 {
            c.offer(b);
        }
        let drained = c.drain();
        assert_eq!(drained.len(), 100);
        assert!(c.is_empty());
        let mut sorted = drained;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100u64).collect::<Vec<_>>());
    }
}
