//! Packed validity bitmap.
//!
//! Every nullable column carries a [`Bitmap`] with one bit per row: a set bit
//! means the value is present (valid), a clear bit means NULL. The same
//! structure doubles as a cheap set-of-rows for predicate evaluation before
//! materializing a selection vector.

/// A fixed-length packed bitmap with one bit per row.
///
/// Bits beyond `len` inside the last word are kept at zero so that word-wise
/// operations (`count_ones`, `and`, `or`) need no masking on the hot path.
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

impl Bitmap {
    /// Creates a bitmap of `len` bits, all clear (all NULL / empty set).
    pub fn new_clear(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a bitmap of `len` bits, all set (no NULLs / full set).
    pub fn new_set(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(WORD_BITS)];
        let tail = len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Builds a bitmap from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bm = Bitmap::new_clear(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bm.set(i);
            }
        }
        bm
    }

    /// Number of bits (rows) covered by this bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of bounds ({})",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Sets the bit at `index`.
    #[inline]
    pub fn set(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of bounds ({})",
            self.len
        );
        self.words[index / WORD_BITS] |= 1u64 << (index % WORD_BITS);
    }

    /// Clears the bit at `index`.
    #[inline]
    pub fn clear(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of bounds ({})",
            self.len
        );
        self.words[index / WORD_BITS] &= !(1u64 << (index % WORD_BITS));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// In-place intersection with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place union with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place complement (respecting the tail mask).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collects the indices of set bits into a selection vector.
    pub fn to_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        out.extend(self.iter_ones().map(|i| i as u32));
        out
    }

    /// Builds a bitmap of length `len` with the given sorted indices set.
    pub fn from_indices(len: usize, indices: &[u32]) -> Self {
        let mut bm = Bitmap::new_clear(len);
        for &i in indices {
            bm.set(i as usize);
        }
        bm
    }

    /// The backing words, least-significant bit first within each word.
    ///
    /// Bits at positions `>= len` in the last word are guaranteed zero, so
    /// the slice can be hashed, checksummed or written out verbatim.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap of `len` bits from backing words (the inverse of
    /// [`Bitmap::words`], e.g. when decoding a snapshot blob).
    ///
    /// Returns `None` when the word count does not match `len` or when any
    /// bit beyond `len` is set — both indicate a corrupt or foreign blob,
    /// and silently masking would hide that.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(WORD_BITS) {
            return None;
        }
        let tail = len % WORD_BITS;
        if tail != 0 {
            let last = words.last().copied().unwrap_or(0);
            if last & !((1u64 << tail) - 1) != 0 {
                return None;
            }
        }
        Some(Bitmap { words, len })
    }

    /// Word-wise intersection into a new bitmap.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Word-wise union into a new bitmap.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Number of set bits in `start..end`, counted word-at-a-time with edge
    /// masks (no per-bit probing).
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len`.
    pub fn count_ones_range(&self, start: usize, end: usize) -> usize {
        assert!(start <= end, "inverted range {start}..{end}");
        assert!(
            end <= self.len,
            "range end {end} out of bounds ({})",
            self.len
        );
        if start == end {
            return 0;
        }
        let (first, last) = (start / WORD_BITS, (end - 1) / WORD_BITS);
        let head_mask = u64::MAX << (start % WORD_BITS);
        let tail_bits = end - last * WORD_BITS; // 1..=64 bits used in `last`
        let tail_mask = if tail_bits == WORD_BITS {
            u64::MAX
        } else {
            (1u64 << tail_bits) - 1
        };
        if first == last {
            return (self.words[first] & head_mask & tail_mask).count_ones() as usize;
        }
        let mut total = (self.words[first] & head_mask).count_ones() as usize;
        for w in &self.words[first + 1..last] {
            total += w.count_ones() as usize;
        }
        total + (self.words[last] & tail_mask).count_ones() as usize
    }

    /// Counts how many of the given row indices carry a set bit.
    ///
    /// The hot loop caches the current backing word, so runs of indices that
    /// fall in the same word (the common case for sorted selection vectors)
    /// cost one shift each instead of a bounds-checked [`Bitmap::get`].
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn count_ones_at(&self, rows: &[u32]) -> usize {
        let mut total = 0usize;
        let mut cached_idx = usize::MAX;
        let mut cached_word = 0u64;
        for &row in rows {
            let row = row as usize;
            assert!(
                row < self.len,
                "bit index {row} out of bounds ({})",
                self.len
            );
            let w = row / WORD_BITS;
            if w != cached_idx {
                cached_idx = w;
                cached_word = self.words[w];
            }
            total += ((cached_word >> (row % WORD_BITS)) & 1) as usize;
        }
        total
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap({}/{} set)", self.count_ones(), self.len)
    }
}

/// Iterator over set-bit indices of a [`Bitmap`].
pub struct OnesIter<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clear_has_no_bits() {
        let bm = Bitmap::new_clear(100);
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.count_zeros(), 100);
    }

    #[test]
    fn new_set_has_all_bits() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            let bm = Bitmap::new_set(len);
            assert_eq!(bm.count_ones(), len, "len={len}");
            assert_eq!(bm.count_zeros(), 0, "len={len}");
        }
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bm = Bitmap::new_clear(130);
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(63) && !bm.get(128));
        assert_eq!(bm.count_ones(), 3);
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let bm = Bitmap::new_clear(10);
        bm.get(10);
    }

    #[test]
    fn and_or_not() {
        let a = Bitmap::from_bools(&[true, true, false, false, true]);
        let b = Bitmap::from_bools(&[true, false, true, false, true]);

        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.to_indices(), vec![0, 4]);

        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(or.to_indices(), vec![0, 1, 2, 4]);

        let mut not = a.clone();
        not.not_assign();
        assert_eq!(not.to_indices(), vec![2, 3]);
        // Tail bits must stay clear: complement twice returns the original.
        not.not_assign();
        assert_eq!(not, a);
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let mut bm = Bitmap::new_clear(200);
        let idx = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &idx {
            bm.set(i);
        }
        let collected: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(collected, idx);
    }

    #[test]
    fn indices_roundtrip() {
        let indices = vec![2u32, 5, 64, 65, 99];
        let bm = Bitmap::from_indices(100, &indices);
        assert_eq!(bm.to_indices(), indices);
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new_clear(0);
        assert!(bm.is_empty());
        assert_eq!(bm.iter_ones().count(), 0);
        assert_eq!(bm.count_zeros(), 0);
    }

    #[test]
    fn from_bools_matches() {
        let bools = [true, false, true];
        let bm = Bitmap::from_bools(&bools);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(bm.get(i), b);
        }
    }

    #[test]
    fn words_roundtrip_and_tail_validation() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            let mut bm = Bitmap::new_clear(len);
            for i in (0..len).step_by(3) {
                bm.set(i);
            }
            let back = Bitmap::from_words(bm.words().to_vec(), len).expect("valid words");
            assert_eq!(back, bm, "len={len}");
        }
        // Wrong word count is rejected.
        assert!(Bitmap::from_words(vec![0, 0], 64).is_none());
        // Stray tail bits are rejected, not masked.
        assert!(Bitmap::from_words(vec![1u64 << 63], 63).is_none());
        assert!(Bitmap::from_words(vec![1u64 << 62], 63).is_some());
    }

    #[test]
    fn binary_and_or_match_assign_forms() {
        let a = Bitmap::from_bools(&[true, true, false, false, true]);
        let b = Bitmap::from_bools(&[true, false, true, false, true]);
        let mut and_ref = a.clone();
        and_ref.and_assign(&b);
        assert_eq!(a.and(&b), and_ref);
        let mut or_ref = a.clone();
        or_ref.or_assign(&b);
        assert_eq!(a.or(&b), or_ref);
    }

    #[test]
    fn count_ones_range_matches_per_bit() {
        let mut bm = Bitmap::new_clear(200);
        for i in (0..200).step_by(7) {
            bm.set(i);
        }
        for &(s, e) in &[
            (0usize, 0usize),
            (0, 200),
            (0, 1),
            (63, 64),
            (63, 65),
            (64, 128),
            (1, 199),
            (130, 130),
        ] {
            let naive = (s..e).filter(|&i| bm.get(i)).count();
            assert_eq!(bm.count_ones_range(s, e), naive, "range {s}..{e}");
        }
    }

    #[test]
    fn count_ones_at_matches_per_bit() {
        let mut bm = Bitmap::new_clear(150);
        for i in (0..150).step_by(2) {
            bm.set(i);
        }
        let rows: Vec<u32> = vec![0, 1, 2, 64, 65, 63, 149, 10, 10];
        let naive = rows.iter().filter(|&&r| bm.get(r as usize)).count();
        assert_eq!(bm.count_ones_at(&rows), naive);
        assert_eq!(bm.count_ones_at(&[]), 0);
    }
}
