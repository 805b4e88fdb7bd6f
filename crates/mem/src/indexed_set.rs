//! Disjoint sets over one dense domain, with O(1) insert, remove,
//! membership test and LIFO pop, and no hashing. Used for the buddy
//! allocator's per-order free lists: a class is an order, a value is the
//! first frame of a free block, and a frame heads at most one free block
//! at a time.
//!
//! Each class keeps its values in a vector (swap-remove, LIFO pop). One
//! `u32` per domain value records the value's position in its class's
//! vector plus one, with the class in the low bits; 0 means absent. So
//! every class shares one position array of `domain` entries, and a
//! lookup is one array read.

/// Bits of a position word that hold the class.
const CLASS_BITS: u32 = 4;
const CLASS_MASK: u32 = (1 << CLASS_BITS) - 1;

/// Disjoint sets ("classes") of values in `0..domain`: a value belongs to
/// at most one class at a time.
///
/// ```
/// use sipt_mem::indexed_set::IndexedSets;
/// let mut s = IndexedSets::new(2, 8);
/// s.insert(0, 3);
/// s.insert(1, 7);
/// assert!(s.contains(0, 3) && !s.contains(1, 3));
/// assert!(s.remove(0, 3));
/// assert!(!s.contains(0, 3));
/// assert_eq!((s.len(0), s.pop(1)), (0, Some(7)));
/// ```
#[derive(Debug, Clone)]
pub struct IndexedSets {
    /// Per class: its values, in insertion order disturbed only by
    /// swap-removes.
    items: Vec<Vec<u64>>,
    /// Per value: `(index in its class + 1) << CLASS_BITS | class`, or 0.
    pos: Vec<u32>,
}

impl IndexedSets {
    /// `classes` empty sets over values `0..domain`.
    ///
    /// # Panics
    ///
    /// Panics if `classes` exceeds 16 or `domain` the positions a `u32`
    /// word holds next to the class.
    pub fn new(classes: u32, domain: u64) -> Self {
        assert!(classes <= 1 << CLASS_BITS, "{classes} classes exceed {CLASS_BITS} bits");
        assert!(domain < 1 << (32 - CLASS_BITS), "domain {domain} exceeds u32 positions");
        Self { items: vec![Vec::new(); classes as usize], pos: vec![0; domain as usize] }
    }

    /// Number of values in `class`.
    pub fn len(&self, class: u32) -> usize {
        self.items[class as usize].len()
    }

    /// Whether `value` is in `class` (false for values beyond the domain).
    pub fn contains(&self, class: u32, value: u64) -> bool {
        self.pos.get(value as usize).is_some_and(|&p| p != 0 && p & CLASS_MASK == class)
    }

    /// Insert `value` into `class`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `value` is beyond the domain or in another class.
    pub fn insert(&mut self, class: u32, value: u64) -> bool {
        let p = self.pos[value as usize];
        if p != 0 {
            assert_eq!(p & CLASS_MASK, class, "{value:#x} is in another class");
            return false;
        }
        let items = &mut self.items[class as usize];
        items.push(value);
        self.pos[value as usize] = (items.len() as u32) << CLASS_BITS | class;
        true
    }

    /// Remove `value` from `class`; returns `true` if it was present.
    pub fn remove(&mut self, class: u32, value: u64) -> bool {
        if !self.contains(class, value) {
            return false;
        }
        let p = std::mem::take(&mut self.pos[value as usize]);
        let items = &mut self.items[class as usize];
        let last = items.pop().expect("positions and items in sync");
        let index = (p >> CLASS_BITS) as usize - 1;
        if index < items.len() {
            items[index] = last;
            self.pos[last as usize] = p;
        }
        true
    }

    /// Remove and return the most recently placed value of `class`
    /// (LIFO order). `None` if the class is empty.
    pub fn pop(&mut self, class: u32) -> Option<u64> {
        let value = self.items[class as usize].pop()?;
        self.pos[value as usize] = 0;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The hashed set each buddy free list was before the shared
    /// position array: the differential oracle for one class.
    #[derive(Default)]
    struct HashIndexedSet {
        items: Vec<u64>,
        index: HashMap<u64, usize>,
    }

    impl HashIndexedSet {
        fn insert(&mut self, value: u64) -> bool {
            if self.index.contains_key(&value) {
                return false;
            }
            self.index.insert(value, self.items.len());
            self.items.push(value);
            true
        }

        fn remove(&mut self, value: u64) -> bool {
            match self.index.remove(&value) {
                None => false,
                Some(pos) => {
                    let last = self.items.pop().expect("index and items in sync");
                    if pos < self.items.len() {
                        self.items[pos] = last;
                        self.index.insert(last, pos);
                    }
                    true
                }
            }
        }

        fn pop(&mut self) -> Option<u64> {
            let value = self.items.pop()?;
            self.index.remove(&value);
            Some(value)
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = IndexedSets::new(1, 4);
        assert!(s.insert(0, 1));
        assert!(!s.insert(0, 1));
        assert!(s.contains(0, 1));
        assert!(s.remove(0, 1));
        assert!(!s.remove(0, 1));
        assert_eq!(s.len(0), 0);
        assert!(!s.contains(0, 9), "beyond the domain is absent, not a panic");
        assert!(!s.remove(0, 9));
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let mut s = IndexedSets::new(1, 100);
        for v in 0..100 {
            s.insert(0, v);
        }
        // Remove from the middle repeatedly; every remaining element must
        // still be findable.
        for v in (0..100).step_by(3) {
            assert!(s.remove(0, v));
        }
        for v in 0..100u64 {
            assert_eq!(s.contains(0, v), v % 3 != 0);
        }
    }

    #[test]
    fn pop_drains_everything() {
        let mut s = IndexedSets::new(3, 50);
        for v in 0..50 {
            s.insert((v % 3) as u32, v);
        }
        let mut seen = HashSet::new();
        for class in 0..3 {
            while let Some(v) = s.pop(class) {
                assert_eq!(v % 3, class as u64);
                assert!(seen.insert(v));
            }
        }
        assert_eq!(seen.len(), 50);
    }

    #[test]
    #[should_panic(expected = "in another class")]
    fn a_value_joins_one_class_at_a_time() {
        let mut s = IndexedSets::new(2, 4);
        s.insert(0, 2);
        s.insert(1, 2);
    }

    proptest! {
        #[test]
        fn behaves_like_hashset(ops in proptest::collection::vec((any::<bool>(), 0u64..64), 0..200)) {
            let mut model = HashSet::new();
            let mut sut = IndexedSets::new(1, 64);
            for (is_insert, v) in ops {
                if is_insert {
                    prop_assert_eq!(sut.insert(0, v), model.insert(v));
                } else {
                    prop_assert_eq!(sut.remove(0, v), model.remove(&v));
                }
                prop_assert_eq!(sut.len(0), model.len());
            }
            for v in 0..64 {
                prop_assert_eq!(sut.contains(0, v), model.contains(&v));
            }
        }

        /// Differential against one hashed oracle per class: every
        /// insert, remove and pop answers the same and leaves the same
        /// element order, so the buddy allocator's LIFO pops are
        /// unchanged. Inserts of a value held by another class are
        /// skipped (the buddy allocator never makes them).
        #[test]
        fn matches_hashed_oracle_order(
            ops in proptest::collection::vec((0u8..3, 0u32..4, 0u64..48), 0..400),
        ) {
            let mut oracle: Vec<HashIndexedSet> = (0..4).map(|_| HashIndexedSet::default()).collect();
            let mut sut = IndexedSets::new(4, 48);
            for (op, class, v) in ops {
                let c = class as usize;
                match op {
                    0 if oracle.iter().enumerate().any(|(o, s)| o != c && s.index.contains_key(&v)) => {}
                    0 => prop_assert_eq!(sut.insert(class, v), oracle[c].insert(v)),
                    1 => prop_assert_eq!(sut.remove(class, v), oracle[c].remove(v)),
                    _ => prop_assert_eq!(sut.pop(class), oracle[c].pop()),
                }
                prop_assert_eq!(sut.len(class), oracle[c].items.len());
                prop_assert_eq!(&sut.items[c], &oracle[c].items);
                prop_assert_eq!(sut.contains(class, v), oracle[c].index.contains_key(&v));
            }
        }
    }
}
