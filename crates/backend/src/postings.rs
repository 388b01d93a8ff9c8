//! The posting list of one indexed term: the ids of the documents holding it.

use std::collections::HashSet;

/// A set of document ids that costs nothing on the heap until it holds two.
///
/// Most terms of a trace are held by one document — every distinct
/// timestamp, latency and offset is a term of its own — and a `HashSet<u64>`
/// per such term (48 B inline and a table of its own) made the inverted
/// index cost more than the keys and strings of the documents it indexes.
/// The surface is the part of `HashSet<u64>` the index uses.
#[derive(Debug, Default)]
pub(crate) enum Postings {
    #[default]
    Empty,
    One(u64),
    /// Two ids or more. Boxed on purpose: a `HashSet` is 48 B inline, and
    /// inline it every one-id list would pay for them.
    #[allow(clippy::box_collection)]
    Many(Box<HashSet<u64>>),
}

impl Postings {
    pub(crate) fn insert(&mut self, id: u64) {
        match self {
            Postings::Empty => *self = Postings::One(id),
            Postings::One(held) if *held == id => {}
            Postings::One(held) => *self = Postings::Many(Box::new(HashSet::from([*held, id]))),
            Postings::Many(ids) => {
                ids.insert(id);
            }
        }
    }

    pub(crate) fn remove(&mut self, id: u64) {
        match self {
            Postings::One(held) if *held == id => *self = Postings::Empty,
            Postings::Many(ids) => {
                ids.remove(&id);
                if ids.len() == 1 {
                    *self = Postings::One(*ids.iter().next().expect("one id left"));
                }
            }
            Postings::Empty | Postings::One(_) => {}
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, Postings::Empty)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (one, many) = match self {
            Postings::Empty => (None, None),
            Postings::One(id) => (Some(*id), None),
            Postings::Many(ids) => (None, Some(ids.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// The ids as a set of their own (a table copy for a large list, not a
    /// re-hash of every id).
    pub(crate) fn to_set(&self) -> HashSet<u64> {
        match self {
            Postings::Many(ids) => HashSet::clone(ids),
            few => few.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any insert/remove history leaves the same ids as a `HashSet`
        /// model, in the representation the id count calls for: growing
        /// past one id and shrinking back both change it.
        #[test]
        fn postings_match_hashset_model(
            ops in proptest::collection::vec((any::<bool>(), 0u64..6), 0..64),
        ) {
            let mut postings = Postings::default();
            let mut model: HashSet<u64> = HashSet::new();
            for (insert, id) in ops {
                if insert {
                    postings.insert(id);
                    model.insert(id);
                } else {
                    postings.remove(id);
                    model.remove(&id);
                }
                prop_assert_eq!(postings.is_empty(), model.is_empty());
                prop_assert_eq!(postings.to_set(), model.clone());
                prop_assert_eq!(postings.iter().collect::<HashSet<_>>(), model.clone());
                prop_assert_eq!(postings.iter().count(), model.len());
                let expected_repr = match (model.len(), &postings) {
                    (0, Postings::Empty) | (1, Postings::One(_)) => true,
                    (n, Postings::Many(_)) => n >= 2,
                    _ => false,
                };
                prop_assert!(expected_repr, "{} ids held as {:?}", model.len(), postings);
            }
        }
    }
}
