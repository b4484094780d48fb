//! Set-associative caches with true-LRU replacement.
//!
//! [`SetAssocCache`] is the conventional instruction cache of the T3
//! baseline, organised as the paper prescribes for associative arrays:
//! the address is hashed to a set, the set's ways are searched
//! associatively, and "the one selected for replacement is that which was
//! used least recently" tracked by a replacement array (§5.2). The DTB's
//! own arrays live in `uhm::Dtb`; they share only [`Geometry`].

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of sets (the hash range).
    pub sets: usize,
    /// Ways per set (associativity degree; the paper's default is 4).
    pub ways: usize,
}

impl Geometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Geometry {
        assert!(sets > 0, "sets must be positive");
        assert!(ways > 0, "ways must be positive");
        Geometry { sets, ways }
    }

    /// A fully associative geometry of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn fully_associative(capacity: usize) -> Geometry {
        Geometry::new(1, capacity)
    }

    /// The smallest geometry of the given associativity holding at least
    /// `capacity` entries, with a power-of-two set count (so the set hash
    /// stays a mask). This is how the analyze plane's DTB pressure pass
    /// turns a static working-set bound into a recommended geometry.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn with_capacity(capacity: usize, ways: usize) -> Geometry {
        assert!(ways > 0, "ways must be positive");
        let sets = capacity.div_ceil(ways).max(1).next_power_of_two();
        Geometry::new(sets, ways)
    }

    /// Total entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The key was present.
    Hit,
    /// The key was absent and has been installed, possibly evicting
    /// another key.
    Miss {
        /// The key displaced to make room, if the set was full.
        evicted: Option<u64>,
    },
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that evicted a resident key.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in [0, 1]; zero when no accesses occurred.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident key and its recency stamp.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    stamp: u64,
}

/// A set-associative LRU cache of `u64` keys.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: Geometry,
    /// `sets * ways` optional entries, row-major by set.
    entries: Vec<Option<Entry>>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: Geometry) -> Self {
        SetAssocCache {
            geometry,
            entries: vec![None; geometry.capacity()],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let set = (key % self.geometry.sets as u64) as usize;
        let start = set * self.geometry.ways;
        start..start + self.geometry.ways
    }

    /// Accesses `key`: on a hit the entry's recency is refreshed; on a
    /// miss the key replaces an empty way of its set, else the LRU way.
    pub fn access(&mut self, key: u64) -> Access {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(key);
        // Hit path.
        for e in self.entries[range.clone()].iter_mut().flatten() {
            if e.key == key {
                e.stamp = clock;
                self.stats.hits += 1;
                return Access::Hit;
            }
        }
        // Miss: pick an empty way, else the LRU way.
        self.stats.misses += 1;
        let victim = self.entries[range.clone()]
            .iter()
            .enumerate()
            .min_by_key(|(_, slot)| slot.as_ref().map(|e| e.stamp).unwrap_or(0))
            .map(|(i, _)| range.start + i)
            .expect("ways > 0");
        let evicted = self.entries[victim].as_ref().map(|e| e.key);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        self.entries[victim] = Some(Entry { key, stamp: clock });
        Access::Miss { evicted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = SetAssocCache::new(Geometry::new(4, 2));
        assert!(matches!(c.access(10), Access::Miss { evicted: None }));
        assert_eq!(c.access(10), Access::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_ratio(), 0.5);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: keys 0, 1 fill it; touching 0 makes 1 the victim.
        let mut c = SetAssocCache::new(Geometry::new(1, 2));
        c.access(0);
        c.access(1);
        c.access(0); // refresh 0
        match c.access(2) {
            Access::Miss { evicted: Some(k) } => assert_eq!(k, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.access(0), Access::Hit);
    }

    #[test]
    fn sets_partition_by_modulo() {
        let mut c = SetAssocCache::new(Geometry::new(2, 1));
        c.access(0); // set 0
        c.access(1); // set 1
                     // key 2 maps to set 0, evicting 0 but not 1.
        match c.access(2) {
            Access::Miss { evicted: Some(k) } => assert_eq!(k, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.access(1), Access::Hit);
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut c = SetAssocCache::new(Geometry::fully_associative(4));
        for k in 0..4 {
            c.access(k);
        }
        for k in 0..4 {
            assert_eq!(c.access(k), Access::Hit, "key {k}");
        }
    }

    #[test]
    fn more_ways_at_fixed_sets_never_hurt() {
        // LRU inclusion holds per set when the set mapping is unchanged and
        // only the ways grow.
        let trace: Vec<u64> = (0..1000).map(|i| (i * 7) % 23).collect();
        let mut misses = Vec::new();
        for ways in [1usize, 2, 4, 8] {
            let mut c = SetAssocCache::new(Geometry::new(4, ways));
            for &k in &trace {
                c.access(k);
            }
            misses.push(c.stats().misses);
        }
        for w in misses.windows(2) {
            assert!(w[1] <= w[0], "associativity increased misses: {misses:?}");
        }
    }

    #[test]
    fn eviction_counting() {
        let mut c = SetAssocCache::new(Geometry::new(1, 1));
        c.access(1);
        c.access(2);
        c.access(3);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    #[should_panic(expected = "sets must be positive")]
    fn zero_sets_rejected() {
        Geometry::new(0, 1);
    }

    /// A trivially-correct LRU model: per set, a recency-ordered list.
    struct ModelLru {
        sets: usize,
        ways: usize,
        lists: Vec<Vec<u64>>, // most recent first
    }

    impl ModelLru {
        fn new(sets: usize, ways: usize) -> Self {
            ModelLru {
                sets,
                ways,
                lists: vec![Vec::new(); sets],
            }
        }

        fn access(&mut self, key: u64) -> bool {
            let list = &mut self.lists[(key % self.sets as u64) as usize];
            match list.iter().position(|&k| k == key) {
                Some(i) => {
                    list.remove(i);
                    list.insert(0, key);
                    true
                }
                None => {
                    if list.len() == self.ways {
                        list.pop();
                    }
                    list.insert(0, key);
                    false
                }
            }
        }
    }

    #[test]
    fn matches_reference_lru_model_on_random_streams() {
        // Deterministic pseudo-random streams across several geometries.
        for (sets, ways, seed) in [(1usize, 4usize, 11u64), (4, 2, 23), (8, 1, 5), (2, 8, 97)] {
            let mut cache = SetAssocCache::new(Geometry::new(sets, ways));
            let mut model = ModelLru::new(sets, ways);
            let mut x = seed | 1;
            for step in 0..5000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = x % 37;
                let want_hit = model.access(key);
                let got_hit = cache.access(key) == Access::Hit;
                assert_eq!(
                    got_hit, want_hit,
                    "divergence at step {step} ({sets}x{ways}, key {key})"
                );
            }
        }
    }
}
