//! A fixed-capacity open-addressing table from pre-hashed `u64` keys to
//! non-zero `u32` values — the gram index of the language-id model and
//! the window counter of the repetition ratios.
//!
//! Keys are outputs of [`dj_hash::hash64`], already well mixed, so a key's
//! low bits pick its home slot directly and a lookup costs one probe in
//! the common case; a general-purpose map re-hashes every key and pays for
//! growth the callers here never need. A value of 0 marks an empty slot.

#[derive(Debug, Clone)]
pub(crate) struct U64Table {
    keys: Vec<u64>,
    vals: Vec<u32>,
    mask: usize,
}

impl U64Table {
    /// A table for up to `n` distinct keys, kept at most half full.
    pub(crate) fn with_capacity(n: usize) -> U64Table {
        let cap = (n.max(1) * 2).next_power_of_two();
        U64Table {
            keys: vec![0; cap],
            vals: vec![0; cap],
            mask: cap - 1,
        }
    }

    /// The value slot of `key`: its value if present, else a free slot
    /// holding 0 that the caller claims by writing a non-zero value. The
    /// table never grows: callers size it from an upper bound on distinct
    /// keys, which keeps at least half the slots free.
    #[inline]
    pub(crate) fn slot(&mut self, key: u64) -> &mut u32 {
        let i = self.find(key);
        self.keys[i] = key;
        &mut self.vals[i]
    }

    /// The value of `key`, 0 when absent.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> u32 {
        self.vals[self.find(key)]
    }

    /// Non-zero values, in slot order.
    pub(crate) fn values(&self) -> impl Iterator<Item = u32> + '_ {
        self.vals.iter().copied().filter(|&v| v != 0)
    }

    #[inline]
    fn find(&self, key: u64) -> usize {
        let mut i = key as usize & self.mask;
        while self.vals[i] != 0 && self.keys[i] != key {
            i = (i + 1) & self.mask;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_colliding_keys_separately() {
        let mut t = U64Table::with_capacity(4);
        // Same low bits, different keys: they probe to distinct slots.
        for k in [8u64, 16, 8, 24, 8] {
            *t.slot(k) += 1;
        }
        assert_eq!(t.get(8), 3);
        assert_eq!(t.get(16), 1);
        assert_eq!(t.get(24), 1);
        assert_eq!(t.get(32), 0);
        let mut vals: Vec<u32> = t.values().collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![1, 1, 3]);
    }
}
