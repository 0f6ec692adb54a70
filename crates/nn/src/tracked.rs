//! The tracked set: a DropBack model's only stored weights.
//!
//! A DropBack-trained network is fully described by its init seed plus
//! the `k` tracked `(global index, value)` entries — every other weight
//! regenerates from `regen(seed, index)`. [`TrackedSet`] is that set, and
//! the one representation of it the workspace uses: optimizer capture,
//! both checkpoint formats and serving all hold one.
//!
//! Entries are a sorted `Vec` with strictly ascending, unique indices,
//! checked once at construction. Sorted order makes every walk over the
//! set reproducible (the `regen(seed, index)` replay contract), lets a
//! layer take its entries as one contiguous sub-slice, and makes the
//! bounds check a single comparison against the last index.

use crate::ParamStore;
use std::fmt;

/// Why a [`TrackedSet`] could not be built or applied.
#[derive(Debug, Clone, PartialEq)]
pub enum TrackedError {
    /// An entry's index does not come strictly after its predecessor's:
    /// the indices are unordered or duplicated.
    Unordered {
        /// Position of the offending entry.
        position: usize,
        /// Index of the entry before it.
        prev: u64,
        /// The offending index.
        index: u64,
    },
    /// An index does not exist in the target parameter store.
    OutOfRange {
        /// The offending index.
        index: u64,
        /// The store's parameter count.
        len: usize,
    },
}

impl fmt::Display for TrackedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrackedError::Unordered {
                position,
                prev,
                index,
            } => write!(
                f,
                "tracked entry {position} has index {index}, not above the previous \
                 index {prev}; entries must be strictly ascending and unique"
            ),
            TrackedError::OutOfRange { index, len } => write!(
                f,
                "tracked index {index} out of range for a {len}-parameter network"
            ),
        }
    }
}

impl std::error::Error for TrackedError {}

/// Index-sorted `(global index, value)` entries: the weights a DropBack
/// model actually stores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackedSet {
    entries: Vec<(u64, f32)>,
}

impl TrackedSet {
    /// Validates `entries` as a tracked set.
    ///
    /// # Errors
    ///
    /// Returns [`TrackedError::Unordered`] unless the indices are strictly
    /// ascending (which also rules out duplicates).
    pub fn from_entries(entries: Vec<(u64, f32)>) -> Result<Self, TrackedError> {
        if let Some(position) = entries.windows(2).position(|w| w[0].0 >= w[1].0) {
            return Err(TrackedError::Unordered {
                position: position + 1,
                prev: entries[position].0,
                index: entries[position + 1].0,
            });
        }
        Ok(Self { entries })
    }

    /// The `params` values at every index `mask` selects. An empty mask
    /// (nothing selected yet) gives an empty set; any other mask must
    /// cover `params` exactly.
    pub fn from_mask(params: &[f32], mask: &[bool]) -> Self {
        debug_assert!(
            mask.is_empty() || mask.len() == params.len(),
            "mask covers {} of {} params",
            mask.len(),
            params.len()
        );
        let entries = params
            .iter()
            .zip(mask)
            .enumerate()
            .filter(|(_, (_, &m))| m)
            .map(|(i, (&p, _))| (i as u64, p))
            .collect();
        Self { entries }
    }

    /// Every parameter of `ps` whose bits differ from its regenerated
    /// init value — the smallest set that [`TrackedSet::overlay`]s back to
    /// exactly `ps.params()`.
    pub fn deltas(ps: &ParamStore) -> Self {
        let (seed, params) = (ps.seed(), ps.params());
        let mut entries = Vec::new();
        for r in ps.ranges() {
            let scheme = r.scheme();
            for (i, &p) in (r.start()..).zip(&params[r.start()..r.end()]) {
                if p.to_bits() != scheme.value(seed, i as u64).to_bits() {
                    entries.push((i as u64, p));
                }
            }
        }
        Self { entries }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in ascending index order.
    pub fn entries(&self) -> &[(u64, f32)] {
        &self.entries
    }

    /// The contiguous run of entries whose index lies in `start..end`
    /// (found by binary search).
    pub fn within(&self, start: usize, end: usize) -> &[(u64, f32)] {
        let lo = self.entries.partition_point(|&(i, _)| i < start as u64);
        let hi = self.entries.partition_point(|&(i, _)| i < end as u64);
        &self.entries[lo..hi.max(lo)]
    }

    /// Checks that every index exists in a store of `len` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TrackedError::OutOfRange`] naming the largest index if it
    /// is `>= len`.
    pub fn check_bounds(&self, len: usize) -> Result<(), TrackedError> {
        match self.entries.last() {
            Some(&(index, _)) if index >= len as u64 => {
                Err(TrackedError::OutOfRange { index, len })
            }
            _ => Ok(()),
        }
    }

    /// Densifies the set into `ps`: every parameter is reset to its
    /// regenerated init value, then each entry is written over it. The
    /// store is untouched on error.
    ///
    /// # Errors
    ///
    /// Returns [`TrackedError::OutOfRange`] if an index does not exist in
    /// `ps`.
    pub fn overlay(&self, ps: &mut ParamStore) -> Result<(), TrackedError> {
        self.check_bounds(ps.len())?;
        ps.reset();
        self.write_into(ps)
    }

    /// Writes each entry over `ps` and leaves every other parameter as it
    /// is. On a freshly built store, whose parameters all hold their init
    /// values, this densifies the set without [`TrackedSet::overlay`]'s
    /// second regeneration of every init value. The store is untouched on
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`TrackedError::OutOfRange`] if an index does not exist in
    /// `ps`.
    pub fn write_into(&self, ps: &mut ParamStore) -> Result<(), TrackedError> {
        self.check_bounds(ps.len())?;
        let params = ps.params_mut();
        for &(i, w) in &self.entries {
            params[i as usize] = w;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InitScheme;

    fn store() -> ParamStore {
        let mut ps = ParamStore::new(4);
        ps.register("w", 10, InitScheme::lecun_normal(5));
        ps.register("b", 3, InitScheme::Constant(0.5));
        ps
    }

    #[test]
    fn unordered_and_duplicate_entries_are_typed_errors() {
        assert_eq!(
            TrackedSet::from_entries(vec![(1, 0.0), (5, 0.0), (3, 0.0)]),
            Err(TrackedError::Unordered {
                position: 2,
                prev: 5,
                index: 3
            })
        );
        assert_eq!(
            TrackedSet::from_entries(vec![(2, 0.0), (2, 1.0)]),
            Err(TrackedError::Unordered {
                position: 1,
                prev: 2,
                index: 2
            })
        );
        assert!(TrackedSet::from_entries(vec![(0, 1.0), (7, 2.0)]).is_ok());
    }

    #[test]
    fn out_of_range_index_is_rejected_before_any_write() {
        let mut ps = store();
        ps.params_mut()[0] = 9.0;
        let set = TrackedSet::from_entries(vec![(1, 1.0), (13, 2.0)]).unwrap();
        assert_eq!(
            set.overlay(&mut ps),
            Err(TrackedError::OutOfRange { index: 13, len: 13 })
        );
        assert_eq!(ps.params()[0], 9.0, "store modified on error");
        assert!(set.check_bounds(14).is_ok());
    }

    #[test]
    fn overlaying_an_empty_set_equals_a_fresh_store() {
        let mut ps = store();
        ps.params_mut().iter_mut().for_each(|p| *p += 1.0);
        TrackedSet::default().overlay(&mut ps).unwrap();
        assert_eq!(ps.params(), store().params());
    }

    #[test]
    fn deltas_overlay_back_to_the_exact_params() {
        let mut ps = store();
        ps.params_mut()[2] = 7.0;
        ps.params_mut()[11] = -1.0;
        let set = TrackedSet::deltas(&ps);
        assert_eq!(set.entries(), &[(2, 7.0), (11, -1.0)]);
        let mut fresh = store();
        set.overlay(&mut fresh).unwrap();
        assert_eq!(fresh.params(), ps.params());
    }

    #[test]
    fn mask_selection_and_range_lookup() {
        let params = [0.5, 1.5, 2.5, 3.5, 4.5];
        let set = TrackedSet::from_mask(&params, &[true, false, true, true, false]);
        assert_eq!(set.entries(), &[(0, 0.5), (2, 2.5), (3, 3.5)]);
        assert_eq!(set.within(1, 3), &[(2, 2.5)]);
        assert_eq!(set.within(3, 10), &[(3, 3.5)]);
        assert!(set.within(4, 5).is_empty());
        assert!(set.within(3, 2).is_empty());
    }
}
