//! The engine's hash for its own maps: the lock table's stripes and
//! slots, a transaction's write buffer and the catalog's name maps.
//!
//! One word at a time, a multiply-rotate step (FxHash's, rotating by 26
//! so a word's high bits, where the multiply puts what it mixed, land
//! in the middle of the next), then Murmur3's 64-bit finalizer, so every
//! output bit depends on every input bit. The final mix carries the
//! spread: a lock stripe is picked by the low bits and a `HashMap` slot
//! by both ends of the hash, while an index key's tail word is read
//! overlapping the one before it, so the key of an `Int` (tag, then
//! eight big-endian bytes) varies only in the top bytes of the words it
//! adds. It has no seed, so a fresh database touches (and allocates) its
//! maps the same way on every run.
//!
//! Seedless means keys can be chosen to collide. Every map it keys holds
//! only what the program is working on: the keys in-flight transactions
//! hold or wait for, one transaction's own writes, the catalog's names.
//! Stored data is indexed by ordered maps, not by this hash.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd, with its bits spread: the 64-bit golden ratio.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-rotate over words, with a final mix (see the module docs).
#[derive(Default)]
pub(crate) struct WordHasher(u64);

/// What a map hashed by [`WordHasher`] is built with.
pub(crate) type WordHash = BuildHasherDefault<WordHasher>;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let word = |at: &[u8]| u64::from_le_bytes(at.try_into().expect("eight bytes"));
        let mut words = bytes.chunks_exact(8);
        for at in &mut words {
            self.add(word(at));
        }
        let rest = words.remainder();
        if rest.is_empty() {
            return;
        }
        if bytes.len() >= 8 {
            // the last eight bytes, overlapping words already taken
            self.add(word(&bytes[bytes.len() - 8..]));
        } else {
            // the length in the top byte: "ab" and "ab\0" pad apart
            let mut padded = [0u8; 8];
            padded[..rest.len()].copy_from_slice(rest);
            padded[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(padded));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn equal_keys_hash_alike_and_unequal_ones_apart() {
        let h = |s: &str| WordHash::default().hash_one(s);
        assert_eq!(h("users"), h("users"));
        // a short tail word carries its length
        assert_ne!(h("ab"), h("ab\0"));
        assert_ne!(h("users"), h("usert"));
        assert_ne!(h("a_fairly_long_table_name"), h("a_fairly_long_table_namf"));
    }
}
