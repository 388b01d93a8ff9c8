//! The posting list of one indexed term: the ids of the documents holding it,
//! ascending.

/// A block holds the ids that share `id >> BLOCK_BITS`, as their low halves:
/// 16 bits, so a low half is a `u16` and the high 48 stay in the block's key.
const BLOCK_BITS: u32 = 16;
/// A sorted `u16` array costs 2 B an id, a bitmap over the block's 65 536 ids
/// 8 KiB whatever it holds: they cost the same at 4 096 ids, and a block
/// holding more is a bitmap.
const ARRAY_MAX: usize = (1 << BLOCK_BITS) / 16;
const BITMAP_WORDS: usize = (1 << BLOCK_BITS) / 64;

/// A set of document ids that costs nothing on the heap until it holds two,
/// and no hash table when it does.
///
/// Most terms of a trace are held by one document — every distinct timestamp
/// is a term of its own — so one id is held inline. The index hands ids out
/// densely and ascending, so a longer list is what Lucene and roaring bitmaps
/// make of such ids: blocks of 65 536 in ascending order, each a sorted array
/// of low halves or, once dense, a bitmap. Appending an id above every held
/// one is O(1), an insert or removal anywhere moves at most one block, and
/// iteration is ascending — which is insertion order, so the index can merge
/// lists instead of hashing them.
#[derive(Debug, Default)]
pub(crate) enum Postings {
    #[default]
    Empty,
    One(u64),
    /// Two ids or more, in blocks ascending by key; no block is empty. Boxed
    /// on purpose: a `Vec` is 24 B inline, and inline it every one-id list
    /// would pay for them.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<Block>>),
}

#[derive(Debug)]
pub(crate) struct Block {
    /// `id >> BLOCK_BITS` of every id held.
    key: u64,
    ids: Ids,
}

/// The low halves of one block's ids.
#[derive(Debug)]
enum Ids {
    /// Ascending, at most [`ARRAY_MAX`].
    Array(Vec<u16>),
    /// More than [`ARRAY_MAX`].
    Bitmap(Box<Bitmap>),
}

struct Bitmap {
    len: u32,
    words: [u64; BITMAP_WORDS],
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bitmap").field("len", &self.len).finish_non_exhaustive()
    }
}

impl Bitmap {
    fn of(ids: &[u16]) -> Bitmap {
        let mut bitmap = Bitmap { len: 0, words: [0; BITMAP_WORDS] };
        for &low in ids {
            bitmap.insert(low);
        }
        bitmap
    }

    fn insert(&mut self, low: u16) {
        let (word, bit) = (&mut self.words[usize::from(low / 64)], 1u64 << (low % 64));
        self.len += u32::from(*word & bit == 0);
        *word |= bit;
    }

    fn remove(&mut self, low: u16) {
        let (word, bit) = (&mut self.words[usize::from(low / 64)], 1u64 << (low % 64));
        self.len -= u32::from(*word & bit != 0);
        *word &= !bit;
    }

    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some((at as u32 * 64 + bit) as u16)
            })
        })
    }
}

impl Ids {
    fn len(&self) -> usize {
        match self {
            Ids::Array(ids) => ids.len(),
            Ids::Bitmap(bitmap) => bitmap.len as usize,
        }
    }

    fn insert(&mut self, low: u16) {
        match self {
            Ids::Array(ids) => {
                // Refresh indexes ids ascending: past the last one is the
                // place nearly every time.
                let at = match ids.last() {
                    Some(&last) if last < low => ids.len(),
                    _ => match ids.binary_search(&low) {
                        Ok(_) => return,
                        Err(at) => at,
                    },
                };
                if ids.len() < ARRAY_MAX {
                    ids.insert(at, low);
                } else {
                    let mut bitmap = Bitmap::of(ids);
                    bitmap.insert(low);
                    *self = Ids::Bitmap(Box::new(bitmap));
                }
            }
            Ids::Bitmap(bitmap) => bitmap.insert(low),
        }
    }

    fn remove(&mut self, low: u16) {
        match self {
            Ids::Array(ids) => {
                if let Ok(at) = ids.binary_search(&low) {
                    ids.remove(at);
                }
            }
            Ids::Bitmap(bitmap) => {
                bitmap.remove(low);
                if bitmap.len as usize <= ARRAY_MAX {
                    let mut ids = Vec::with_capacity(bitmap.len as usize);
                    ids.extend(bitmap.iter());
                    *self = Ids::Array(ids);
                }
            }
        }
    }
}

impl Block {
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (array, bitmap) = match &self.ids {
            Ids::Array(ids) => (Some(ids.iter().copied()), None),
            Ids::Bitmap(bitmap) => (None, Some(bitmap.iter())),
        };
        let lows = array.into_iter().flatten().chain(bitmap.into_iter().flatten());
        lows.map(move |low| self.key << BLOCK_BITS | u64::from(low))
    }
}

/// Where the block of `key` is, or where it would go. The last block is
/// tried first: refresh appends.
fn find_block(blocks: &[Block], key: u64) -> Result<usize, usize> {
    match blocks.last() {
        Some(last) if last.key < key => Err(blocks.len()),
        Some(last) if last.key == key => Ok(blocks.len() - 1),
        _ => blocks.binary_search_by_key(&key, |block| block.key),
    }
}

impl Postings {
    /// Adds `ids`, ascending, a block at a time: the block's array grows
    /// once for the ids that fall in it, where inserting them one by one grows
    /// it as they come.
    pub(crate) fn merge(&mut self, ids: impl Iterator<Item = u64> + Clone) {
        let mut ids = ids.peekable();
        while let Some(first) = ids.next() {
            let key = first >> BLOCK_BITS;
            self.insert(first);
            if let Postings::Many(blocks) = self {
                let n = ids.clone().take_while(|id| id >> BLOCK_BITS == key).count();
                if let Ok(Ids::Array(lows)) = find_block(blocks, key).map(|at| &mut blocks[at].ids)
                {
                    if lows.len() + n <= ARRAY_MAX {
                        lows.reserve(n);
                    }
                }
            }
            while let Some(id) = ids.next_if(|id| id >> BLOCK_BITS == key) {
                self.insert(id);
            }
        }
    }

    /// Adds `id`; a no-op if it is held (a JSON array can name one term twice).
    pub(crate) fn insert(&mut self, id: u64) {
        let (key, low) = (id >> BLOCK_BITS, id as u16);
        match self {
            Postings::Empty => *self = Postings::One(id),
            Postings::One(held) if *held == id => {}
            Postings::One(held) => {
                // Both ids at once, each vector allocated at its length: the
                // one block two ids nearly always share holds both lows.
                let (held_key, held_low) = (*held >> BLOCK_BITS, *held as u16);
                let blocks = if held_key == key {
                    let lows = if held_low < low { [held_low, low] } else { [low, held_low] };
                    vec![Block { key, ids: Ids::Array(lows.to_vec()) }]
                } else {
                    let held = Block { key: held_key, ids: Ids::Array(vec![held_low]) };
                    let new = Block { key, ids: Ids::Array(vec![low]) };
                    if held_key < key {
                        vec![held, new]
                    } else {
                        vec![new, held]
                    }
                };
                *self = Postings::Many(Box::new(blocks));
            }
            Postings::Many(blocks) => match find_block(blocks, key) {
                Ok(at) => blocks[at].ids.insert(low),
                Err(at) => blocks.insert(at, Block { key, ids: Ids::Array(vec![low]) }),
            },
        }
    }

    pub(crate) fn remove(&mut self, id: u64) {
        match self {
            Postings::One(held) if *held == id => *self = Postings::Empty,
            Postings::Many(blocks) => {
                let Ok(at) = find_block(blocks, id >> BLOCK_BITS) else { return };
                blocks[at].ids.remove(id as u16);
                if blocks[at].ids.len() == 0 {
                    blocks.remove(at);
                }
                if let [last] = blocks.as_slice() {
                    if last.ids.len() == 1 {
                        let id = last.iter().next().expect("one id left");
                        *self = Postings::One(id);
                    }
                }
            }
            Postings::Empty | Postings::One(_) => {}
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, Postings::Empty)
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Postings::Empty => 0,
            Postings::One(_) => 1,
            Postings::Many(blocks) => blocks.iter().map(|block| block.ids.len()).sum(),
        }
    }

    /// The ids, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (one, many) = match self {
            Postings::Empty => (None, None),
            Postings::One(id) => (Some(*id), None),
            Postings::Many(blocks) => (None, Some(blocks.iter().flat_map(Block::iter))),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// `postings` holds exactly `model`, ascending, in the representation
    /// the ids call for.
    fn assert_is(postings: &Postings, model: &BTreeSet<u64>) {
        assert_eq!(postings.is_empty(), model.is_empty());
        assert_eq!(postings.len(), model.len());
        assert!(postings.iter().eq(model.iter().copied()), "{postings:?} is not {model:?}");
        match postings {
            Postings::Empty => assert_eq!(model.len(), 0),
            Postings::One(_) => assert_eq!(model.len(), 1),
            Postings::Many(blocks) => {
                assert!(model.len() >= 2, "{} ids held as {postings:?}", model.len());
                let keys: Vec<u64> = blocks.iter().map(|block| block.key).collect();
                let held: BTreeSet<u64> = model.iter().map(|id| id >> BLOCK_BITS).collect();
                assert!(keys.iter().eq(&held), "blocks {keys:?} for {model:?}");
                for block in blocks.iter() {
                    let dense = matches!(block.ids, Ids::Bitmap(_));
                    assert_eq!(dense, block.ids.len() > ARRAY_MAX, "{block:?}");
                }
            }
        }
    }

    proptest! {
        /// Any insert/remove history over three blocks leaves the same ids
        /// as a `BTreeSet` model, ascending, in the representation the ids
        /// call for: growing past one id and shrinking back both change it,
        /// and a block leaves with its last id.
        #[test]
        fn postings_match_btreeset_model(
            ops in proptest::collection::vec((any::<bool>(), 0u64..3, 0u64..4), 0..96),
        ) {
            let mut postings = Postings::default();
            let mut model: BTreeSet<u64> = BTreeSet::new();
            for (insert, high, low) in ops {
                // Far apart, and past what 32 bits hold.
                let id = (high * 70_000) << BLOCK_BITS | low;
                if insert {
                    postings.insert(id);
                    model.insert(id);
                } else {
                    postings.remove(id);
                    model.remove(&id);
                }
                assert_is(&postings, &model);
            }
        }

        /// A merge of ascending ids, some held already, leaves what inserting
        /// them does, in the representation the ids call for: enough of them
        /// in one block make it a bitmap.
        #[test]
        fn a_merge_holds_what_the_inserts_would(
            held in proptest::collection::vec((0u64..2, 0u64..5_000), 0..64),
            added in proptest::collection::vec((0u64..2, 0u64..5_000), 0..20_000),
        ) {
            let id = |&(high, low): &(u64, u64)| (high * 70_000) << BLOCK_BITS | low;
            let mut postings = Postings::default();
            let mut model: BTreeSet<u64> = held.iter().map(id).collect();
            model.iter().for_each(|&id| postings.insert(id));
            let added: BTreeSet<u64> = added.iter().map(id).collect();
            postings.merge(added.iter().copied());
            model.extend(added);
            assert_is(&postings, &model);
        }
    }

    #[test]
    fn a_block_becomes_a_bitmap_past_4096_ids_and_an_array_again_below() {
        let base = 3u64 << BLOCK_BITS;
        let mut postings = Postings::default();
        let mut model = BTreeSet::new();
        // Odd ids first, ascending (appends), until the array is full.
        for id in (0..ARRAY_MAX as u64).map(|i| base + 2 * i + 1) {
            postings.insert(id);
            model.insert(id);
        }
        assert_is(&postings, &model);
        let Postings::Many(blocks) = &postings else { panic!("{postings:?}") };
        assert!(matches!(blocks[0].ids, Ids::Array(_)), "4 096 ids are an array");
        // A held id again changes nothing; one more, in the middle, does.
        postings.insert(base + 1);
        assert_is(&postings, &model);
        for id in [base + 4, base, base + 65_535, base + 4] {
            postings.insert(id);
            model.insert(id);
            assert_is(&postings, &model);
        }
        let Postings::Many(blocks) = &postings else { panic!("{postings:?}") };
        assert!(matches!(blocks[0].ids, Ids::Bitmap(_)), "4 099 ids are a bitmap");
        // Removals from the bitmap, an absent id among them, down to an array.
        for id in [base + 2, base + 4, base + 65_535, base + 1, base] {
            postings.remove(id);
            model.remove(&id);
            assert_is(&postings, &model);
        }
        // Neighbouring blocks are untouched by all of it.
        for id in [0, 7 << BLOCK_BITS] {
            postings.insert(id);
            model.insert(id);
        }
        assert_is(&postings, &model);
        for id in model.clone() {
            postings.remove(id);
            model.remove(&id);
        }
        assert_is(&postings, &model);
    }

    #[test]
    fn a_list_is_sixteen_bytes_inline() {
        assert_eq!(std::mem::size_of::<Postings>(), 16);
        assert_eq!(std::mem::size_of::<Block>(), 32);
    }
}
