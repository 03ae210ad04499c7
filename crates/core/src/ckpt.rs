//! In-memory chare checkpointing.
//!
//! Models the double in-memory checkpoint/restart protocol of Charm++
//! (Zheng et al., "FTC-Charm++"): each chare periodically serializes its
//! state and ships the snapshot to a *buddy* PE's memory. The
//! [`CkptStore`] holds those copies and resolves the *cut*: the newest
//! epoch every chare holds, plus each chare's newest snapshot at or
//! before it. Keeping the last *two* epochs guarantees a consistent
//! recovery line even when a failure lands in the middle of a
//! checkpoint wave.
//!
//! The runtime has one rollback path (`Machine::rollback`) that resolves
//! the cut before touching anything, then tears down in-flight state,
//! moves chares, restores every chare from the cut, and broadcasts the
//! registered resume entry. PE-failure recovery (after dropping the dead
//! PE's copies and re-placing its chares) and the load balancer (with
//! the planner's moves) both go through it. When the cut is incomplete —
//! say a PE fails before the first checkpoint wave — the rollback
//! returns [`RollbackError`] and the world is left as it is: recovery
//! does not happen, the surviving chares run until they block, and the
//! run drains as a stall; the balancer declines the round.

use crate::msg::ChareId;

/// A serialized chare: the state that survives a PE failure.
///
/// Chares marshal themselves into flat integer and float arrays (the
/// PUP analogue, reduced to the two scalar kinds the simulated
/// applications need). The wire size charged when the snapshot travels
/// to its buddy is derived from these lengths.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChareSnapshot {
    /// Integer state: counters, indices, flags.
    pub ints: Vec<i64>,
    /// Floating-point state: field data.
    pub floats: Vec<f64>,
}

impl ChareSnapshot {
    /// Marshalled size of the snapshot on the wire (header + payload).
    pub fn wire_bytes(&self) -> u64 {
        16 + 8 * (self.ints.len() as u64 + self.floats.len() as u64)
    }
}

/// Why a rollback declined. Returned before any state is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackError {
    /// The application registered no resume entry
    /// (`Machine::set_recovery_resume`), so a restored world could not
    /// restart.
    NoResumeEntry,
    /// `chare` holds no surviving snapshot at or before the cut (a
    /// machine without chares reports chare 0).
    IncompleteCut {
        /// The first chare without a usable snapshot.
        chare: ChareId,
    },
}

/// One stored copy: epoch, the PE whose memory holds it, the snapshot.
type Held = (u64, usize, ChareSnapshot);

/// Buddy-held snapshots, indexed by chare id: per chare, up to the last
/// two epochs (more while the cut lags) in ascending `(epoch, PE)` order.
#[derive(Clone, Default)]
pub(crate) struct CkptStore {
    copies: Vec<Vec<Held>>,
}

impl CkptStore {
    /// Make room for one more chare (ids are dense, in creation order).
    pub(crate) fn add_chare(&mut self) {
        self.copies.push(Vec::new());
    }

    /// Accept one copy of `chare`'s snapshot at `epoch` into
    /// `stored_on`'s memory, replacing an earlier copy of the same epoch
    /// on the same PE.
    ///
    /// Epochs older than the newest two are discarded, with one clamp:
    /// asynchrony lets fast chares run several epochs ahead of a
    /// straggler, so pruning to the newest two alone would evict the cut
    /// from the fast chares' stores. Each chare also keeps its newest
    /// epoch at or below the cut; retention stays bounded by the drift
    /// the application's dependences allow.
    pub(crate) fn store(
        &mut self,
        chare: ChareId,
        epoch: u64,
        stored_on: usize,
        snap: ChareSnapshot,
    ) {
        let slots = &mut self.copies[chare.0];
        slots.retain(|&(e, on, _)| !(e == epoch && on == stored_on));
        slots.push((epoch, stored_on, snap));
        slots.sort_by_key(|&(e, on, _)| (e, on));
        // Until every chare holds a copy there is no cut: prune nothing.
        let cut = self.cut_epoch().unwrap_or(0);
        let slots = &mut self.copies[chare.0];
        let mut epochs: Vec<u64> = slots.iter().map(|&(e, _, _)| e).collect();
        epochs.dedup();
        if epochs.len() > 2 {
            let newest_two = epochs[epochs.len() - 2];
            let held_cut = at_or_before(slots, cut).map_or(0, |&(e, _, _)| e);
            let cutoff = newest_two.min(held_cut);
            slots.retain(|&(e, _, _)| e >= cutoff);
        }
    }

    /// Forget every copy held in `pe`'s memory (it died with the PE).
    pub(crate) fn drop_pe(&mut self, pe: usize) {
        for slots in &mut self.copies {
            slots.retain(|&(_, on, _)| on != pe);
        }
    }

    /// The cut epoch: the newest epoch every chare holds. `Err` names
    /// the first chare that holds no copy at all.
    fn cut_epoch(&self) -> Result<u64, ChareId> {
        let mut cut = None;
        for (c, slots) in self.copies.iter().enumerate() {
            let &(e, _, _) = slots.last().ok_or(ChareId(c))?;
            cut = Some(cut.map_or(e, |m: u64| m.min(e)));
        }
        cut.ok_or(ChareId(0))
    }

    /// Resolve the cut: its epoch, and per chare (in id order) a copy of
    /// the newest snapshot at or before it. Reads only, so a caller can
    /// decline on `Err` with the world untouched.
    pub(crate) fn cut(&self) -> Result<(u64, Vec<ChareSnapshot>), RollbackError> {
        let epoch = self
            .cut_epoch()
            .map_err(|chare| RollbackError::IncompleteCut { chare })?;
        let snaps = self
            .copies
            .iter()
            .enumerate()
            .map(|(c, slots)| {
                at_or_before(slots, epoch)
                    .map(|(_, _, s)| s.clone())
                    .ok_or(RollbackError::IncompleteCut { chare: ChareId(c) })
            })
            .collect::<Result<_, _>>()?;
        Ok((epoch, snaps))
    }
}

/// The newest copy at or before epoch `cut` in one chare's sorted list.
fn at_or_before(slots: &[Held], cut: u64) -> Option<&Held> {
    slots.iter().rev().find(|&&(e, _, _)| e <= cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_counts_both_arrays() {
        let s = ChareSnapshot {
            ints: vec![1, 2, 3],
            floats: vec![0.5; 10],
        };
        assert_eq!(s.wire_bytes(), 16 + 8 * 13);
    }

    fn snap(tag: i64) -> ChareSnapshot {
        ChareSnapshot {
            ints: vec![tag],
            floats: Vec::new(),
        }
    }

    #[test]
    fn cut_is_min_of_newest_with_each_chare_at_or_before_it() {
        let mut store = CkptStore::default();
        store.add_chare();
        store.add_chare();
        let cut = |s: &CkptStore| {
            s.cut()
                .map(|(e, v)| (e, v.iter().map(|s| s.ints[0]).collect()))
        };
        assert_eq!(
            cut(&store),
            Err(RollbackError::IncompleteCut { chare: ChareId(0) })
        );
        // Chare 0 runs ahead (epochs 2, 4, 6); chare 1 has reached 4.
        for e in [2, 4, 6] {
            store.store(ChareId(0), e, 0, snap(e as i64));
        }
        assert_eq!(
            cut(&store),
            Err(RollbackError::IncompleteCut { chare: ChareId(1) })
        );
        store.store(ChareId(1), 4, 1, snap(40));
        assert_eq!(cut(&store), Ok((4, vec![4, 40])));
        // The copy of chare 1's only epoch died with PE 1.
        store.drop_pe(1);
        assert_eq!(
            cut(&store),
            Err(RollbackError::IncompleteCut { chare: ChareId(1) })
        );
        assert!(CkptStore::default().cut().is_err(), "no chares, no cut");
    }

    #[test]
    fn pruning_keeps_the_cut_while_a_straggler_lags() {
        let mut store = CkptStore::default();
        store.add_chare();
        store.add_chare();
        store.store(ChareId(1), 2, 1, snap(20));
        for e in [2, 4, 6, 8] {
            store.store(ChareId(0), e, 0, snap(e as i64));
        }
        // The straggler holds the cut at 2, so chare 0 keeps every epoch
        // from 2 on, not just its newest two.
        let epochs = |s: &CkptStore| s.copies[0].iter().map(|&(e, _, _)| e).collect::<Vec<_>>();
        assert_eq!(epochs(&store), vec![2, 4, 6, 8]);
        assert_eq!(store.cut().map(|(e, _)| e), Ok(2));
        // Once the cut moves to 6, epochs below it are pruned.
        store.store(ChareId(1), 6, 1, snap(60));
        store.store(ChareId(0), 10, 0, snap(10));
        assert_eq!(epochs(&store), vec![6, 8, 10]);
    }
}
