//! The memory last-write table.
//!
//! Section 4.4 of the paper: "Since the simulator cannot record the data
//! dependences in a limited scheduling window, it records the time of the
//! most recent write to each register and memory location. A large hash
//! table is used to record writes to memory."
//!
//! This is that hash table: open addressing with linear probing, keyed by
//! word address, storing the cycle of the most recent store. Lookups on a
//! hot path of hundreds of millions of trace events motivated a dedicated
//! structure over `std::collections::HashMap` (the benchmark suite
//! measures the difference).

/// Maps word addresses to the cycle of their most recent write.
#[derive(Clone, Debug)]
pub struct LastWriteTable {
    keys: Vec<u32>,
    values: Vec<u64>,
    len: usize,
    mask: usize,
}

const EMPTY: u32 = u32::MAX;

impl LastWriteTable {
    /// Creates a table with capacity for at least `capacity` entries
    /// before the first grow.
    pub fn with_capacity(capacity: usize) -> LastWriteTable {
        let slots = (capacity.max(16) * 2).next_power_of_two();
        LastWriteTable {
            keys: vec![EMPTY; slots],
            values: vec![0; slots],
            len: 0,
            mask: slots - 1,
        }
    }

    /// Creates an empty table with a small default capacity.
    pub fn new() -> LastWriteTable {
        LastWriteTable::with_capacity(1 << 12)
    }

    /// Number of distinct addresses recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no writes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot(&self, key: u32) -> usize {
        // Fibonacci hashing spreads sequential word addresses well.
        let hash = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> 32) as usize & self.mask
    }

    /// The last-write cycle for `word_addr`, or 0 if never written.
    #[inline]
    pub fn get(&self, word_addr: u32) -> u64 {
        debug_assert_ne!(word_addr, EMPTY, "sentinel address");
        let mut slot = self.slot(word_addr);
        loop {
            let key = self.keys[slot];
            if key == word_addr {
                return self.values[slot];
            }
            if key == EMPTY {
                return 0;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Records a write to `word_addr` at `cycle`.
    #[inline]
    pub fn set(&mut self, word_addr: u32, cycle: u64) {
        debug_assert_ne!(word_addr, EMPTY, "sentinel address");
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mut slot = self.slot(word_addr);
        loop {
            let key = self.keys[slot];
            if key == word_addr {
                self.values[slot] = cycle;
                return;
            }
            if key == EMPTY {
                self.keys[slot] = word_addr;
                self.values[slot] = cycle;
                self.len += 1;
                return;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_values = std::mem::take(&mut self.values);
        let new_slots = (old_keys.len() * 2).max(32);
        self.keys = vec![EMPTY; new_slots];
        self.values = vec![0; new_slots];
        self.mask = new_slots - 1;
        // Reinsert directly: the doubled table cannot hit the load factor
        // again, so skip `set()`'s check, and every key is distinct, so
        // probing can stop at the first empty slot.
        for (key, value) in old_keys.into_iter().zip(old_values) {
            if key != EMPTY {
                let mut slot = self.slot(key);
                while self.keys[slot] != EMPTY {
                    slot = (slot + 1) & self.mask;
                }
                self.keys[slot] = key;
                self.values[slot] = value;
            }
        }
    }
}

impl Default for LastWriteTable {
    fn default() -> LastWriteTable {
        LastWriteTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_addresses_read_zero() {
        let table = LastWriteTable::new();
        assert_eq!(table.get(123), 0);
        assert!(table.is_empty());
    }

    #[test]
    fn set_then_get() {
        let mut table = LastWriteTable::new();
        table.set(0x1000, 7);
        table.set(0x1001, 9);
        assert_eq!(table.get(0x1000), 7);
        assert_eq!(table.get(0x1001), 9);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn overwrite_updates_in_place() {
        let mut table = LastWriteTable::new();
        table.set(5, 1);
        table.set(5, 99);
        assert_eq!(table.get(5), 99);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut table = LastWriteTable::with_capacity(16);
        for i in 0..10_000u32 {
            table.set(i, (i as u64) * 3);
        }
        assert_eq!(table.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(table.get(i), (i as u64) * 3, "key {i}");
        }
    }

    #[test]
    fn matches_std_hashmap_on_random_ops() {
        use std::collections::HashMap;
        let mut table = LastWriteTable::new();
        let mut reference = HashMap::new();
        let mut state = 0x12345678u64;
        for step in 0..50_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = ((state >> 33) as u32) % 5000;
            if state & 1 == 0 {
                table.set(addr, step);
                reference.insert(addr, step);
            } else {
                assert_eq!(table.get(addr), reference.get(&addr).copied().unwrap_or(0));
            }
        }
        assert_eq!(table.len(), reference.len());
    }

    #[test]
    fn zero_address_is_valid() {
        let mut table = LastWriteTable::new();
        table.set(0, 42);
        assert_eq!(table.get(0), 42);
    }
}
