//! Reference model of a set-associative LRU table: every set is a `Vec`
//! of `(item, dirty)` in LRU order, oldest first. Shared by the
//! `SetAssoc` differential (simbase) and the cache-hierarchy model
//! (cpucache), which includes this file by path.

// Each includer uses a different subset.
#![allow(dead_code)]

use std::collections::HashMap;

pub struct ModelLru {
    sets: HashMap<u64, Vec<(u64, bool)>>,
    num_sets: u64,
    ways: usize,
    pub hits: u64,
    pub misses: u64,
}

impl ModelLru {
    pub fn new(num_sets: u64, ways: usize) -> Self {
        ModelLru {
            sets: HashMap::new(),
            num_sets,
            ways,
            hits: 0,
            misses: 0,
        }
    }

    fn set_mut(&mut self, item: u64) -> &mut Vec<(u64, bool)> {
        self.sets.entry(item % self.num_sets).or_default()
    }

    fn position(&mut self, item: u64) -> Option<usize> {
        self.set_mut(item).iter().position(|&(i, _)| i == item)
    }

    pub fn access(&mut self, item: u64, dirty: bool) -> bool {
        let Some(pos) = self.position(item) else {
            self.misses += 1;
            return false;
        };
        self.hits += 1;
        let set = self.set_mut(item);
        let (i, d) = set.remove(pos);
        set.push((i, d || dirty));
        true
    }

    /// Returns the victim `(item, dirty)` if the set overflowed.
    pub fn fill(&mut self, item: u64, dirty: bool) -> Option<(u64, bool)> {
        let ways = self.ways;
        let pos = self.position(item);
        let set = self.set_mut(item);
        if let Some(pos) = pos {
            let (i, d) = set.remove(pos);
            set.push((i, d || dirty));
            return None;
        }
        let evicted = (set.len() >= ways).then(|| set.remove(0));
        set.push((item, dirty));
        evicted
    }

    pub fn peek(&mut self, item: u64) -> bool {
        self.position(item).is_some()
    }

    pub fn invalidate(&mut self, item: u64) -> Option<bool> {
        let pos = self.position(item)?;
        Some(self.set_mut(item).remove(pos).1)
    }

    pub fn clean(&mut self, item: u64) -> Option<bool> {
        let pos = self.position(item)?;
        Some(std::mem::replace(&mut self.set_mut(item)[pos].1, false))
    }

    /// Empties the model, returning its dirty items sorted.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self
            .sets
            .drain()
            .flat_map(|(_, set)| set)
            .filter_map(|(i, d)| d.then_some(i))
            .collect();
        dirty.sort();
        dirty
    }

    pub fn reset(&mut self) {
        self.sets.clear();
        self.hits = 0;
        self.misses = 0;
    }

    pub fn len(&self) -> usize {
        self.sets.values().map(Vec::len).sum()
    }
}
