//! Direct-mapped instruction-cache model.
//!
//! The paper's machines fetch one VLIW word per cycle from a distributed
//! on-chip instruction cache of 1024 words (8-cluster models) or 512
//! words (16-cluster models). A demand refill costs well over 100 cycles,
//! so "essentially, all critical loops must fit into the cache" — this
//! model makes that penalty visible in simulation.

/// Tag of a line that holds no word.
const EMPTY: u32 = u32::MAX;

/// Direct-mapped, one-word-per-line instruction cache.
///
/// A line's tag is the word index it holds, or `u32::MAX` when the
/// line is empty: four bytes a line, because every checkpoint copies
/// the tag array (word indices fit in `u32`, as the decoded program's
/// branch targets do).
#[derive(Debug, PartialEq)]
pub struct InstructionCache {
    capacity: u32,
    refill_cycles: u32,
    tags: Vec<u32>,
    misses: u64,
    hits: u64,
}

impl Clone for InstructionCache {
    fn clone(&self) -> Self {
        InstructionCache {
            tags: self.tags.clone(),
            ..*self
        }
    }

    /// Copies `source` into this cache's tag buffer instead of a new
    /// one: checkpoints refresh and restore a cache this way.
    fn clone_from(&mut self, source: &Self) {
        let mut tags = std::mem::take(&mut self.tags);
        tags.clone_from(&source.tags);
        *self = InstructionCache { tags, ..*source };
    }
}

impl InstructionCache {
    /// Creates an empty (cold) cache.
    pub fn new(capacity_words: u32, refill_cycles: u32) -> Self {
        InstructionCache {
            capacity: capacity_words.max(1),
            refill_cycles,
            tags: vec![EMPTY; capacity_words.max(1) as usize],
            misses: 0,
            hits: 0,
        }
    }

    /// Fetches the word at `pc`, returning the stall cycles incurred
    /// (0 on a hit, the refill penalty on a miss).
    pub fn fetch(&mut self, pc: usize) -> u32 {
        debug_assert!(pc < EMPTY as usize, "word index {pc} has no tag");
        let idx = pc % self.capacity as usize;
        if self.tags[idx] == pc as u32 {
            self.hits += 1;
            0
        } else {
            self.tags[idx] = pc as u32;
            self.misses += 1;
            self.refill_cycles
        }
    }

    /// Pre-loads a program of `len` words, as a loader/DMA would before
    /// kernel start, eliminating cold misses for resident words.
    pub fn warm(&mut self, len: usize) {
        for pc in 0..len.min(self.capacity as usize) {
            let idx = pc % self.capacity as usize;
            self.tags[idx] = pc as u32;
        }
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache capacity in words.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_cache_never_misses_on_fitting_loop() {
        let mut c = InstructionCache::new(512, 120);
        c.warm(100);
        for _ in 0..10 {
            for pc in 0..100 {
                assert_eq!(c.fetch(pc), 0);
            }
        }
        assert_eq!(c.misses(), 0);
        assert_eq!(c.hits(), 1000);
    }

    #[test]
    fn cold_cache_pays_refills() {
        let mut c = InstructionCache::new(512, 120);
        assert_eq!(c.fetch(0), 120);
        assert_eq!(c.fetch(0), 0);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn oversized_loop_thrashes() {
        // A loop of 600 words in a 512-word cache: the overlapping 88 + 88
        // indices evict each other every iteration.
        let mut c = InstructionCache::new(512, 120);
        c.warm(600);
        let mut stall = 0;
        for pc in 0..600 {
            stall += c.fetch(pc);
        }
        assert!(stall > 0, "conflicting lines must miss");
        // Second pass keeps missing in the conflict region.
        let mut stall2 = 0;
        for pc in 0..600 {
            stall2 += c.fetch(pc);
        }
        assert!(stall2 >= stall / 2);
    }

    #[test]
    fn clone_from_copies_tags_into_the_existing_buffer() {
        let mut source = InstructionCache::new(8, 50);
        source.warm(3);
        source.fetch(9);
        let mut target = InstructionCache::new(8, 50);
        let buffer = target.tags.as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(target, source.clone());
        assert_eq!(target.tags.as_ptr(), buffer, "buffer reused");
    }

    #[test]
    fn warm_respects_capacity() {
        let mut c = InstructionCache::new(4, 50);
        c.warm(100);
        assert_eq!(c.fetch(0), 0);
        assert_eq!(c.fetch(5), 50, "beyond capacity stays cold");
    }
}
