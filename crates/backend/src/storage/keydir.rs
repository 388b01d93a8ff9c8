//! The in-memory keydir: latest on-disk location of every live document.
//!
//! Bitcask's core trade: every key lives in memory, every value lives in
//! exactly one place on disk. Ours is two-level — index (session) name,
//! then document id — so whole-index drops and per-index loads stay O(1)
//! lookups instead of scans over one flat map.
//!
//! During recovery the keydir also remembers tombstones and drop-index
//! barriers it has seen (`KeyState::seqno` with no slot), because
//! segments are replayed oldest-first but — after an interrupted
//! compaction — the *same* logical record can appear in two files, and
//! only the per-key sequence number says which wins. [`KeyDir::live`]
//! resolves all of that into the surviving document set.

use std::collections::HashMap;

/// Location of one record's frame on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Segment generation holding the frame.
    pub gen: u64,
    /// Frame offset within the segment.
    pub offset: u64,
    /// Total frame length.
    pub frame_len: u32,
    /// The record's shard-local sequence number.
    pub seqno: u64,
}

/// Newest known state of one (index, doc id) key.
#[derive(Debug, Clone, Copy)]
struct KeyState {
    seqno: u64,
    /// `Some` = live value at this slot; `None` = tombstoned.
    slot: Option<Slot>,
}

/// A displaced frame (it became garbage): which segment, how many bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Displaced {
    /// Segment generation of the now-dead frame.
    pub gen: u64,
    /// Dead bytes added to that segment.
    pub bytes: u64,
}

/// The per-shard keydir (see module docs).
#[derive(Debug, Default)]
pub struct KeyDir {
    entries: HashMap<String, HashMap<u64, KeyState>>,
    /// Per-index drop barrier: records with `seqno <=` this are dead.
    barriers: HashMap<String, u64>,
}

impl KeyDir {
    /// Creates an empty keydir.
    pub fn new() -> Self {
        Self::default()
    }

    /// The keys of `index`, created empty if it has none. The name is
    /// copied only then, not once per applied record.
    fn keys_of(&mut self, index: &str) -> &mut HashMap<u64, KeyState> {
        if !self.entries.contains_key(index) {
            self.entries.insert(index.to_string(), HashMap::new());
        }
        self.entries.get_mut(index).expect("present or just inserted")
    }

    /// Applies a value record, newest-seqno-wins. Returns the frame it
    /// displaced, if any (for dead-byte accounting).
    pub fn apply_put(&mut self, index: &str, doc_id: u64, slot: Slot) -> Option<Displaced> {
        if self.barriers.get(index).is_some_and(|&b| slot.seqno <= b) {
            return Some(Displaced { gen: slot.gen, bytes: slot.frame_len as u64 });
        }
        let per_index = self.keys_of(index);
        match per_index.get_mut(&doc_id) {
            Some(state) if state.seqno >= slot.seqno => {
                // A duplicate or older copy (interrupted-merge leftovers):
                // the incoming frame itself is the garbage.
                Some(Displaced { gen: slot.gen, bytes: slot.frame_len as u64 })
            }
            Some(state) => {
                let displaced =
                    state.slot.map(|old| Displaced { gen: old.gen, bytes: old.frame_len as u64 });
                *state = KeyState { seqno: slot.seqno, slot: Some(slot) };
                displaced
            }
            None => {
                per_index.insert(doc_id, KeyState { seqno: slot.seqno, slot: Some(slot) });
                None
            }
        }
    }

    /// Applies a tombstone record. Returns the displaced value frame.
    pub fn apply_tombstone(&mut self, index: &str, doc_id: u64, seqno: u64) -> Option<Displaced> {
        let per_index = self.keys_of(index);
        match per_index.get_mut(&doc_id) {
            Some(state) if state.seqno >= seqno => None,
            Some(state) => {
                let displaced =
                    state.slot.map(|old| Displaced { gen: old.gen, bytes: old.frame_len as u64 });
                *state = KeyState { seqno, slot: None };
                displaced
            }
            None => {
                per_index.insert(doc_id, KeyState { seqno, slot: None });
                None
            }
        }
    }

    /// Applies a whole-index drop barrier: every key of `index` with an
    /// older seqno dies. Returns all displaced value frames.
    pub fn apply_drop_index(&mut self, index: &str, seqno: u64) -> Vec<Displaced> {
        let barrier = self.barriers.entry(index.to_string()).or_insert(0);
        *barrier = (*barrier).max(seqno);
        let mut displaced = Vec::new();
        if let Some(per_index) = self.entries.get_mut(index) {
            per_index.retain(|_, state| {
                if state.seqno <= seqno {
                    if let Some(old) = state.slot {
                        displaced.push(Displaced { gen: old.gen, bytes: old.frame_len as u64 });
                    }
                    false
                } else {
                    true
                }
            });
            if per_index.is_empty() {
                self.entries.remove(index);
            }
        }
        displaced
    }

    /// Moves a live key to a new frame holding the *same* seqno (a
    /// compaction repoint). Returns false — and changes nothing — when
    /// the key advanced past `slot.seqno` in the meantime.
    pub fn repoint(&mut self, index: &str, doc_id: u64, slot: Slot) -> bool {
        let Some(state) = self.entries.get_mut(index).and_then(|m| m.get_mut(&doc_id)) else {
            return false;
        };
        if state.seqno != slot.seqno || state.slot.is_none() {
            return false;
        }
        state.slot = Some(slot);
        true
    }

    /// Looks up the live slot of a key.
    pub fn get(&self, index: &str, doc_id: u64) -> Option<Slot> {
        self.entries.get(index)?.get(&doc_id)?.slot
    }

    /// Iterates every live (index, doc id, slot).
    pub fn live(&self) -> impl Iterator<Item = (&str, u64, Slot)> + '_ {
        self.entries.iter().flat_map(|(index, per_index)| {
            per_index
                .iter()
                .filter_map(move |(&id, state)| state.slot.map(|s| (index.as_str(), id, s)))
        })
    }

    /// Number of live keys.
    pub fn live_len(&self) -> usize {
        self.entries.values().flat_map(|m| m.values()).filter(|s| s.slot.is_some()).count()
    }

    /// Drops remembered tombstones and barriers. Called once recovery
    /// replay is complete: from then on, appends carry strictly
    /// increasing seqnos, so shadow state is no longer needed.
    pub fn prune_shadows(&mut self) {
        for per_index in self.entries.values_mut() {
            per_index.retain(|_, state| state.slot.is_some());
        }
        self.entries.retain(|_, m| !m.is_empty());
        self.barriers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(gen: u64, offset: u64, seqno: u64) -> Slot {
        Slot { gen, offset, frame_len: 32, seqno }
    }

    #[test]
    fn newer_put_displaces_older() {
        let mut kd = KeyDir::new();
        assert!(kd.apply_put("a", 1, slot(1, 0, 1)).is_none());
        let displaced = kd.apply_put("a", 1, slot(1, 32, 5)).unwrap();
        assert_eq!(displaced, Displaced { gen: 1, bytes: 32 });
        assert_eq!(kd.get("a", 1).unwrap().seqno, 5);
    }

    #[test]
    fn older_duplicate_is_self_garbage() {
        let mut kd = KeyDir::new();
        kd.apply_put("a", 1, slot(2, 0, 9));
        // A merge leftover in a higher-gen file with an older seqno.
        let displaced = kd.apply_put("a", 1, slot(3, 0, 4)).unwrap();
        assert_eq!(displaced.gen, 3);
        assert_eq!(kd.get("a", 1).unwrap().seqno, 9);
    }

    #[test]
    fn tombstone_shadows_even_across_replay_order() {
        let mut kd = KeyDir::new();
        kd.apply_put("a", 1, slot(1, 0, 1));
        kd.apply_tombstone("a", 1, 2);
        assert!(kd.get("a", 1).is_none());
        // An older copy replayed later (merge duplicate) cannot resurrect.
        kd.apply_put("a", 1, slot(4, 0, 1));
        assert!(kd.get("a", 1).is_none());
        // A genuinely newer write can.
        kd.apply_put("a", 1, slot(4, 32, 3));
        assert_eq!(kd.get("a", 1).unwrap().seqno, 3);
    }

    #[test]
    fn drop_index_kills_older_spares_newer() {
        let mut kd = KeyDir::new();
        kd.apply_put("a", 1, slot(1, 0, 1));
        kd.apply_put("a", 2, slot(1, 32, 2));
        kd.apply_put("b", 1, slot(1, 64, 3));
        let displaced = kd.apply_drop_index("a", 4);
        assert_eq!(displaced.len(), 2);
        assert!(kd.get("a", 1).is_none());
        assert_eq!(kd.get("b", 1).unwrap().seqno, 3);
        // Replayed-later older put of "a" stays dead behind the barrier.
        kd.apply_put("a", 1, slot(2, 0, 2));
        assert!(kd.get("a", 1).is_none());
        // Newer one lives.
        kd.apply_put("a", 3, slot(2, 32, 9));
        assert_eq!(kd.get("a", 3).unwrap().seqno, 9);
    }

    #[test]
    fn live_iteration_and_prune() {
        let mut kd = KeyDir::new();
        kd.apply_put("a", 1, slot(1, 0, 1));
        kd.apply_put("a", 2, slot(1, 32, 2));
        kd.apply_tombstone("a", 2, 3);
        assert_eq!(kd.live_len(), 1);
        kd.prune_shadows();
        assert_eq!(kd.live().count(), 1);
        let (index, id, s) = kd.live().next().unwrap();
        assert_eq!((index, id, s.seqno), ("a", 1, 1));
    }
}
