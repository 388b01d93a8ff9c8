//! The in-memory keydir: latest on-disk location of every live document.
//!
//! Bitcask's core trade: every key lives in memory, every value lives in
//! exactly one place on disk. Ours is two-level — index (session) name,
//! then document id — so whole-index drops and per-index loads stay O(1)
//! lookups instead of scans over one flat map.
//!
//! A run of events is one frame for many consecutive ids, and one entry
//! here: a `Run`. An id has an entry of its own only when its newest record
//! is not its run's — a later write or tombstone shadowed it — or when it
//! was written alone (a JSON document). So a traced session costs one entry
//! per run, and the keys it holds live are counted as they change, not
//! recounted.
//!
//! During recovery the keydir also remembers tombstones and drop-index
//! barriers it has seen (`KeyState::slot` of `None`), because segments are
//! replayed oldest-first but — after an interrupted compaction — the *same*
//! logical record can appear in two files, and only the per-key sequence
//! number says which wins.

use std::collections::{BTreeMap, HashMap};

/// Location of one record's frame on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Segment generation holding the frame.
    pub gen: u64,
    /// Frame offset within the segment.
    pub offset: u64,
    /// Total frame length.
    pub frame_len: u32,
    /// Ids the frame holds: 1 for a document, a run's length for a run.
    pub ids: u32,
    /// The record's shard-local sequence number.
    pub seqno: u64,
}

impl Slot {
    /// The bytes one of the frame's ids accounts for, pro rata.
    fn share(&self) -> Displaced {
        Displaced { gen: self.gen, bytes: u64::from(self.frame_len / self.ids.max(1)) }
    }

    fn whole(&self) -> Displaced {
        Displaced { gen: self.gen, bytes: u64::from(self.frame_len) }
    }
}

/// Newest known state of one (index, doc id) key held on its own.
#[derive(Debug, Clone, Copy)]
struct KeyState {
    seqno: u64,
    /// `Some` = live value at this slot; `None` = tombstoned.
    slot: Option<Slot>,
}

/// A run frame's ids `[first, first + slot.ids)`: each is live at the frame
/// unless the index holds a [`KeyState`] of its own for it, which is then
/// newer than the run.
#[derive(Debug, Clone, Copy)]
struct Run {
    slot: Slot,
    /// Ids of the run that such a newer state shadows.
    shadowed: u32,
}

impl Run {
    /// Shadows one more id; returns the bytes that became garbage (the last
    /// id takes what the pro-rata shares left over).
    fn shadow(&mut self) -> Displaced {
        self.shadowed += 1;
        let mut dead = self.slot.share();
        if self.shadowed == self.slot.ids {
            dead.bytes += u64::from(self.slot.frame_len % self.slot.ids);
        }
        dead
    }
}

/// A displaced frame (it became garbage): which segment, how many bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Displaced {
    /// Segment generation of the now-dead frame.
    pub gen: u64,
    /// Dead bytes added to that segment.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct IndexKeys {
    ids: HashMap<u64, KeyState>,
    /// Runs by first id; they never overlap.
    runs: BTreeMap<u64, Run>,
}

/// The first id of the run of `runs` holding `id`.
fn run_of(runs: &BTreeMap<u64, Run>, id: u64) -> Option<u64> {
    let (&first, run) = runs.range(..=id).next_back()?;
    (id - first < u64::from(run.slot.ids)).then_some(first)
}

impl IndexKeys {
    fn overlaps_a_run(&self, first: u64, end: u64) -> bool {
        self.runs
            .range(..end)
            .next_back()
            .is_some_and(|(&at, run)| at + u64::from(run.slot.ids) > first)
    }

    /// Applies one id's record — a document, a tombstone (`slot` of
    /// `None`), one id of a run — newest-seqno-wins. Returns how the live
    /// count moved.
    fn apply_one(
        &mut self,
        id: u64,
        seqno: u64,
        slot: Option<Slot>,
        dead: &mut impl FnMut(Displaced),
    ) -> isize {
        if let Some(state) = self.ids.get_mut(&id) {
            if state.seqno >= seqno {
                // A duplicate or older copy (interrupted-merge leftovers):
                // the incoming record itself is the garbage.
                slot.iter().for_each(|s| dead(s.share()));
                return 0;
            }
            let was = state.slot.map(|old| dead(old.share())).is_some();
            *state = KeyState { seqno, slot };
            return slot.is_some() as isize - was as isize;
        }
        let mut moved = 0;
        if let Some(first) = run_of(&self.runs, id) {
            let run = self.runs.get_mut(&first).expect("found above");
            if run.slot.seqno >= seqno {
                slot.iter().for_each(|s| dead(s.share()));
                return 0;
            }
            dead(run.shadow());
            if run.shadowed == run.slot.ids {
                self.runs.remove(&first);
            }
            moved -= 1;
        }
        self.ids.insert(id, KeyState { seqno, slot });
        moved + slot.is_some() as isize
    }

    /// The live slot of `id`.
    fn get(&self, id: u64) -> Option<Slot> {
        match self.ids.get(&id) {
            Some(state) => state.slot,
            None => Some(self.runs[&run_of(&self.runs, id)?].slot),
        }
    }

    /// Live keys, counted entry by entry.
    fn count_live(&self) -> usize {
        let runs = self.runs.values().map(|run| (run.slot.ids - run.shadowed) as usize);
        self.ids.values().filter(|s| s.slot.is_some()).count() + runs.sum::<usize>()
    }
}

/// The per-shard keydir (see module docs).
#[derive(Debug, Default)]
pub struct KeyDir {
    entries: HashMap<String, IndexKeys>,
    /// Per-index drop barrier: records with `seqno <=` this are dead.
    barriers: HashMap<String, u64>,
    /// Live keys, kept as every apply moves them.
    live: usize,
}

/// The keys of `index` in `entries`, created empty if it has none — one
/// lookup when it has some, and the name copied only when it has none.
macro_rules! keys_of {
    ($entries:expr, $index:expr) => {
        match $entries.get_mut($index) {
            Some(keys) => keys,
            None => $entries.entry($index.to_string()).or_default(),
        }
    };
}

impl KeyDir {
    /// Creates an empty keydir.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a barrier seen drops the records of `index` up to `seqno`.
    pub fn barred(&self, index: &str, seqno: u64) -> bool {
        self.barriers.get(index).is_some_and(|&b| seqno <= b)
    }

    fn moved(&mut self, by: isize) {
        self.live = self.live.checked_add_signed(by).expect("live keys never go negative");
    }

    /// Applies a document record, newest-seqno-wins. Calls `dead` with the
    /// frames it displaced (for dead-byte accounting) — the incoming one,
    /// when it lost.
    pub fn apply_put(
        &mut self,
        index: &str,
        doc_id: u64,
        slot: Slot,
        dead: &mut impl FnMut(Displaced),
    ) {
        if self.barred(index, slot.seqno) {
            return dead(slot.whole());
        }
        let moved = keys_of!(self.entries, index).apply_one(doc_id, slot.seqno, Some(slot), dead);
        self.moved(moved);
    }

    /// Applies a tombstone record, calling `dead` with the frame it
    /// displaced.
    pub fn apply_tombstone(
        &mut self,
        index: &str,
        doc_id: u64,
        seqno: u64,
        dead: &mut impl FnMut(Displaced),
    ) {
        let moved = keys_of!(self.entries, index).apply_one(doc_id, seqno, None, dead);
        self.moved(moved);
    }

    /// Applies a run frame of `slot.ids` events from `first` on. Where it
    /// overlaps no run, it becomes one entry, shadowed where an id already
    /// holds something newer; otherwise — a rewrite of events another run
    /// holds — each of its ids is applied on its own.
    pub fn apply_run(
        &mut self,
        index: &str,
        first: u64,
        slot: Slot,
        dead: &mut impl FnMut(Displaced),
    ) {
        if self.barred(index, slot.seqno) {
            return dead(slot.whole());
        }
        let keys = keys_of!(self.entries, index);
        let end = first + u64::from(slot.ids);
        let mut moved = 0;
        if keys.overlaps_a_run(first, end) {
            for id in first..end {
                moved += keys.apply_one(id, slot.seqno, Some(slot), dead);
            }
        } else {
            let mut run = Run { slot, shadowed: 0 };
            // Fresh ids hold nothing yet: only a recovering or rewritten
            // index looks them up.
            if !keys.ids.is_empty() {
                for id in first..end {
                    let Some(state) = keys.ids.get(&id) else { continue };
                    if state.seqno >= slot.seqno {
                        dead(run.shadow());
                    } else {
                        let state = keys.ids.remove(&id).expect("found above");
                        moved -= state.slot.map(|old| dead(old.share())).is_some() as isize;
                    }
                }
            }
            moved += (run.slot.ids - run.shadowed) as isize;
            if run.shadowed < run.slot.ids {
                keys.runs.insert(first, run);
            }
        }
        self.moved(moved);
    }

    /// Applies a whole-index drop barrier: every key of `index` with an
    /// older seqno dies; `dead` is called with every displaced frame.
    pub fn apply_drop_index(&mut self, index: &str, seqno: u64, dead: &mut impl FnMut(Displaced)) {
        let barrier = self.barriers.entry(index.to_string()).or_insert(0);
        *barrier = (*barrier).max(seqno);
        let Some(keys) = self.entries.get_mut(index) else { return };
        let mut gone = 0;
        keys.ids.retain(|_, state| {
            if state.seqno > seqno {
                return true;
            }
            if let Some(old) = state.slot {
                dead(old.share());
                gone += 1;
            }
            false
        });
        keys.runs.retain(|_, run| {
            if run.slot.seqno > seqno {
                return true;
            }
            // What is left of the frame: its shadowed ids were charged.
            let left = run.slot.ids - run.shadowed;
            gone += left as usize;
            for _ in 0..left {
                dead(run.shadow());
            }
            false
        });
        if keys.ids.is_empty() && keys.runs.is_empty() {
            self.entries.remove(index);
        }
        self.live -= gone;
    }

    /// Moves a live document to a new frame holding the *same* seqno (a
    /// compaction repoint). Returns false — and changes nothing — when
    /// the key advanced past `slot.seqno` in the meantime.
    pub fn repoint(&mut self, index: &str, doc_id: u64, slot: Slot) -> bool {
        let Some(state) = self.entries.get_mut(index).and_then(|k| k.ids.get_mut(&doc_id)) else {
            return false;
        };
        if state.seqno != slot.seqno || state.slot.is_none() {
            return false;
        }
        state.slot = Some(slot);
        true
    }

    /// Moves the live ids of the run frame `was` to `pieces` — the
    /// compaction output that re-encoded them, each `(first id, slot)` under
    /// `was`'s seqno. Returns the bytes of the pieces that are garbage from
    /// birth: ids a write shadowed while the merge ran.
    pub fn repoint_run(&mut self, index: &str, was: Slot, pieces: &[(u64, Slot)]) -> u64 {
        let Some(keys) = self.entries.get_mut(index) else {
            return pieces.iter().map(|(_, s)| u64::from(s.frame_len)).sum();
        };
        let mut dead = 0;
        let held = pieces.first().and_then(|&(first, _)| run_of(&keys.runs, first));
        match held.map(|first| (first, keys.runs[&first])) {
            Some((first, run)) if run.slot == was => {
                // The run entry splits into one entry per piece. A tombstone
                // that only shadowed an id no piece holds any more goes too.
                keys.runs.remove(&first);
                let end = first + u64::from(was.ids);
                let ids: Vec<u64> = (first..end).filter(|id| keys.ids.contains_key(id)).collect();
                let mut covered = 0;
                for &(at, slot) in pieces {
                    let mut piece = Run { slot, shadowed: 0 };
                    for _ in ids.iter().filter(|&&id| id >= at && id - at < u64::from(slot.ids)) {
                        dead += piece.shadow().bytes;
                        covered += 1;
                    }
                    if piece.shadowed < slot.ids {
                        keys.runs.insert(at, piece);
                    }
                }
                if covered < ids.len() {
                    for id in ids.into_iter().filter(|id| run_of(&keys.runs, *id).is_none()) {
                        if keys.ids[&id].slot.is_none() {
                            keys.ids.remove(&id);
                        }
                    }
                }
            }
            _ => {
                // The ids went on their own: a rewrite that overlapped a run.
                for &(at, slot) in pieces {
                    for id in at..at + u64::from(slot.ids) {
                        match keys.ids.get_mut(&id) {
                            Some(state) if state.slot == Some(was) => state.slot = Some(slot),
                            _ => dead += slot.share().bytes,
                        }
                    }
                }
            }
        }
        dead
    }

    /// Looks up the live slot of a key.
    pub fn get(&self, index: &str, doc_id: u64) -> Option<Slot> {
        self.entries.get(index)?.get(doc_id)
    }

    /// The ids of the run frame at `slot`, from `first` on, that are live
    /// at it.
    pub fn live_ids(&self, index: &str, first: u64, slot: Slot) -> Vec<u64> {
        let Some(keys) = self.entries.get(index) else { return Vec::new() };
        let ids = first..first + u64::from(slot.ids);
        if keys.ids.is_empty() && keys.runs.get(&first).is_some_and(|run| run.slot == slot) {
            return ids.collect();
        }
        ids.filter(|&id| keys.get(id) == Some(slot)).collect()
    }

    /// Every live frame: `(index, id, slot)` for a document or an id held
    /// on its own, `(index, first id, slot)` for a run entry.
    pub fn frames(&self) -> impl Iterator<Item = (&str, u64, Slot)> + '_ {
        self.entries.iter().flat_map(|(index, keys)| {
            let ids = keys.ids.iter().filter_map(|(&id, s)| Some((index.as_str(), id, s.slot?)));
            ids.chain(keys.runs.iter().map(|(&first, run)| (index.as_str(), first, run.slot)))
        })
    }

    /// Number of live keys, as kept.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Number of live keys, recounted entry by entry ([`Self::live_len`]
    /// must agree).
    pub fn count_live(&self) -> usize {
        self.entries.values().map(IndexKeys::count_live).sum()
    }

    /// Drops remembered tombstones and barriers no run needs. Called once
    /// recovery replay is complete: from then on, appends carry strictly
    /// increasing seqnos, so shadow state is no longer needed — except a
    /// tombstone over an id of a live run, which is what keeps it dead.
    pub fn prune_shadows(&mut self) {
        for keys in self.entries.values_mut() {
            let runs = &keys.runs;
            keys.ids.retain(|&id, state| state.slot.is_some() || run_of(runs, id).is_some());
        }
        self.entries.retain(|_, k| !k.ids.is_empty() || !k.runs.is_empty());
        self.barriers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(gen: u64, offset: u64, seqno: u64) -> Slot {
        Slot { gen, offset, frame_len: 32, ids: 1, seqno }
    }

    fn run(gen: u64, offset: u64, ids: u32, seqno: u64) -> Slot {
        Slot { gen, offset, frame_len: 100 * ids, ids, seqno }
    }

    /// Applies with the displaced frames collected.
    fn dead_of(f: impl FnOnce(&mut dyn FnMut(Displaced))) -> Vec<Displaced> {
        let mut dead = Vec::new();
        f(&mut |d| dead.push(d));
        dead
    }

    fn put(kd: &mut KeyDir, index: &str, id: u64, s: Slot) -> Vec<Displaced> {
        dead_of(|dead| kd.apply_put(index, id, s, &mut |d| dead(d)))
    }

    fn tomb(kd: &mut KeyDir, index: &str, id: u64, seqno: u64) -> Vec<Displaced> {
        dead_of(|dead| kd.apply_tombstone(index, id, seqno, &mut |d| dead(d)))
    }

    fn apply_run(kd: &mut KeyDir, index: &str, first: u64, s: Slot) -> Vec<Displaced> {
        dead_of(|dead| kd.apply_run(index, first, s, &mut |d| dead(d)))
    }

    fn assert_counts(kd: &KeyDir, live: usize) {
        assert_eq!(kd.live_len(), live);
        assert_eq!(kd.count_live(), live, "kept and recounted agree");
    }

    #[test]
    fn newer_put_displaces_older() {
        let mut kd = KeyDir::new();
        assert!(put(&mut kd, "a", 1, slot(1, 0, 1)).is_empty());
        assert_eq!(put(&mut kd, "a", 1, slot(1, 32, 5)), [Displaced { gen: 1, bytes: 32 }]);
        assert_eq!(kd.get("a", 1).unwrap().seqno, 5);
        assert_counts(&kd, 1);
    }

    #[test]
    fn older_duplicate_is_self_garbage() {
        let mut kd = KeyDir::new();
        put(&mut kd, "a", 1, slot(2, 0, 9));
        // A merge leftover in a higher-gen file with an older seqno.
        assert_eq!(put(&mut kd, "a", 1, slot(3, 0, 4))[0].gen, 3);
        assert_eq!(kd.get("a", 1).unwrap().seqno, 9);
    }

    #[test]
    fn tombstone_shadows_even_across_replay_order() {
        let mut kd = KeyDir::new();
        put(&mut kd, "a", 1, slot(1, 0, 1));
        tomb(&mut kd, "a", 1, 2);
        assert!(kd.get("a", 1).is_none());
        // An older copy replayed later (merge duplicate) cannot resurrect.
        put(&mut kd, "a", 1, slot(4, 0, 1));
        assert!(kd.get("a", 1).is_none());
        // A genuinely newer write can.
        put(&mut kd, "a", 1, slot(4, 32, 3));
        assert_eq!(kd.get("a", 1).unwrap().seqno, 3);
        assert_counts(&kd, 1);
    }

    #[test]
    fn drop_index_kills_older_spares_newer() {
        let mut kd = KeyDir::new();
        put(&mut kd, "a", 1, slot(1, 0, 1));
        put(&mut kd, "a", 2, slot(1, 32, 2));
        apply_run(&mut kd, "a", 10, run(1, 64, 4, 3));
        put(&mut kd, "b", 1, slot(1, 464, 4));
        let displaced = dead_of(|dead| kd.apply_drop_index("a", 5, &mut |d| dead(d)));
        assert_eq!(displaced.iter().map(|d| d.bytes).sum::<u64>(), 32 + 32 + 400);
        assert!(kd.get("a", 1).is_none() && kd.get("a", 11).is_none());
        assert_eq!(kd.get("b", 1).unwrap().seqno, 4);
        // Replayed-later older put of "a" stays dead behind the barrier.
        put(&mut kd, "a", 1, slot(2, 0, 2));
        assert!(kd.get("a", 1).is_none());
        // Newer one lives.
        put(&mut kd, "a", 3, slot(2, 32, 9));
        assert_eq!(kd.get("a", 3).unwrap().seqno, 9);
        assert_counts(&kd, 2);
    }

    #[test]
    fn a_run_is_one_entry_and_a_later_write_shadows_one_of_its_ids() {
        let mut kd = KeyDir::new();
        let r = run(1, 0, 8, 1);
        assert!(apply_run(&mut kd, "a", 16, r).is_empty());
        assert_counts(&kd, 8);
        assert_eq!((kd.get("a", 16), kd.get("a", 23), kd.get("a", 24)), (Some(r), Some(r), None));
        // A rewrite of one id, then a tombstone of another: 100 B each.
        assert_eq!(
            apply_run(&mut kd, "a", 18, run(1, 800, 1, 2)),
            [Displaced { gen: 1, bytes: 100 }]
        );
        assert_eq!(tomb(&mut kd, "a", 20, 3), [Displaced { gen: 1, bytes: 100 }]);
        assert_eq!(kd.get("a", 18).unwrap().seqno, 2);
        assert_eq!(kd.get("a", 20), None);
        assert_eq!(kd.live_ids("a", 16, r), [16, 17, 19, 21, 22, 23]);
        assert_counts(&kd, 7);
        // The tombstone keeps the run's id dead across a prune.
        kd.prune_shadows();
        assert_eq!(kd.get("a", 20), None);
        assert_counts(&kd, 7);
    }

    #[test]
    fn a_run_replayed_after_what_shadowed_it_is_shadowed() {
        let mut kd = KeyDir::new();
        tomb(&mut kd, "a", 2, 7);
        put(&mut kd, "a", 3, slot(2, 0, 8));
        put(&mut kd, "a", 4, slot(2, 32, 1));
        // The run (seqno 5) comes from a compaction output in a newer file.
        let dead = apply_run(&mut kd, "a", 0, run(3, 0, 5, 5));
        assert_eq!(
            dead,
            [
                Displaced { gen: 3, bytes: 100 },
                Displaced { gen: 3, bytes: 100 },
                Displaced { gen: 2, bytes: 32 }
            ]
        );
        assert_eq!(kd.live_ids("a", 0, run(3, 0, 5, 5)), [0, 1, 4]);
        assert_counts(&kd, 4);
        // Its duplicate in a later file is garbage, id by id.
        let dead = apply_run(&mut kd, "a", 0, run(4, 0, 2, 5));
        assert_eq!(dead.len(), 2);
        assert_counts(&kd, 4);
    }

    #[test]
    fn a_compacted_run_splits_into_its_pieces() {
        let mut kd = KeyDir::new();
        let r = run(1, 0, 6, 1);
        apply_run(&mut kd, "a", 0, r);
        tomb(&mut kd, "a", 2, 2);
        // The merge wrote ids 0-1 and 3-5; id 4 was rewritten meanwhile.
        put(&mut kd, "a", 4, slot(5, 0, 9));
        let pieces = [(0, run(4, 0, 2, 1)), (3, run(4, 200, 3, 1))];
        assert_eq!(kd.repoint_run("a", r, &pieces), 100, "id 4's copy is garbage from birth");
        assert_eq!(kd.get("a", 1), Some(pieces[0].1));
        assert_eq!(kd.get("a", 5), Some(pieces[1].1));
        assert_eq!(kd.get("a", 4).unwrap().seqno, 9);
        assert_eq!(kd.get("a", 2), None);
        assert_counts(&kd, 5);
        assert_eq!(kd.frames().count(), 3, "two runs and the rewritten id");
    }
}
