//! Piece selection.
//!
//! NetSession downloads from the edge and from peers *in parallel* (§3.3).
//! The picker keeps the two source kinds from duplicating work:
//!
//! * peer connections use **rarest-first** among the pieces the remote peer
//!   has and we lack (keeping swarm piece diversity high, as in
//!   BitTorrent),
//! * the always-on edge connection uses an **in-order cursor** (the edge
//!   has everything, so it should fill whatever the swarm doesn't),
//! * a piece is requested from at most one source at a time; failed or
//!   cancelled requests return to the pool.

use netsession_core::piece::{PieceIndex, PieceMap};
use netsession_core::rng::DetRng;
use std::collections::HashSet;

/// Piece picker for one in-progress download.
#[derive(Clone, Debug)]
pub struct PiecePicker {
    /// How many connected remote peers have each piece.
    availability: Vec<u32>,
    /// Pieces currently requested from some source.
    in_flight: HashSet<PieceIndex>,
    /// The edge cursor: next index the in-order scan starts from.
    edge_cursor: PieceIndex,
}

impl PiecePicker {
    /// Picker over `pieces` pieces.
    pub fn new(pieces: u32) -> Self {
        PiecePicker {
            availability: vec![0; pieces as usize],
            in_flight: HashSet::new(),
            edge_cursor: 0,
        }
    }

    /// A remote peer joined with this have-map.
    pub fn peer_joined(&mut self, map: &PieceMap) {
        for p in map.held() {
            self.availability[p as usize] += 1;
        }
    }

    /// A remote peer left.
    pub fn peer_left(&mut self, map: &PieceMap) {
        for p in map.held() {
            let a = &mut self.availability[p as usize];
            *a = a.saturating_sub(1);
        }
    }

    /// A connected peer announced a new piece.
    pub fn have_announced(&mut self, piece: PieceIndex) {
        self.availability[piece as usize] += 1;
    }

    /// Choose the next piece to request from a peer holding `theirs`,
    /// given we hold `mine`: rarest-first, random tie-break, skipping
    /// in-flight pieces. Marks the piece in flight.
    pub fn next_for_peer(
        &mut self,
        mine: &PieceMap,
        theirs: &PieceMap,
        rng: &mut DetRng,
    ) -> Option<PieceIndex> {
        let mut best: Option<(u32, PieceIndex)> = None;
        let mut ties = 0u32;
        for p in theirs.held() {
            if mine.has(p) || self.in_flight.contains(&p) {
                continue;
            }
            let avail = self.availability[p as usize];
            match best {
                None => {
                    best = Some((avail, p));
                    ties = 1;
                }
                Some((b, _)) if avail < b => {
                    best = Some((avail, p));
                    ties = 1;
                }
                Some((b, _)) if avail == b => {
                    // Reservoir-sample among ties for an unbiased pick.
                    ties += 1;
                    if rng.below(ties as u64) == 0 {
                        best = Some((avail, p));
                    }
                }
                _ => {}
            }
        }
        let (_, piece) = best?;
        self.in_flight.insert(piece);
        Some(piece)
    }

    /// Choose the next piece to request from the edge: in-order from the
    /// cursor, skipping held and in-flight pieces. Marks it in flight.
    pub fn next_for_edge(&mut self, mine: &PieceMap) -> Option<PieceIndex> {
        let n = mine.len();
        if n == 0 {
            return None;
        }
        for k in 0..n {
            let p = (self.edge_cursor + k) % n;
            if !mine.has(p) && !self.in_flight.contains(&p) {
                self.in_flight.insert(p);
                self.edge_cursor = (p + 1) % n;
                return Some(p);
            }
        }
        None
    }

    /// A request completed (successfully or not): the piece leaves the
    /// in-flight set. On failure it becomes requestable again.
    pub fn request_finished(&mut self, piece: PieceIndex) {
        self.in_flight.remove(&piece);
    }

    /// Availability of a piece among connected peers.
    pub fn availability(&self, piece: PieceIndex) -> u32 {
        self.availability[piece as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with(pieces: u32, held: &[u32]) -> PieceMap {
        let mut m = PieceMap::empty(pieces);
        for p in held {
            m.set(*p);
        }
        m
    }

    #[test]
    fn rarest_first_prefers_low_availability() {
        let mut picker = PiecePicker::new(4);
        // Piece 3 is on one peer; pieces 0-2 on three peers.
        picker.peer_joined(&map_with(4, &[0, 1, 2, 3]));
        picker.peer_joined(&map_with(4, &[0, 1, 2]));
        picker.peer_joined(&map_with(4, &[0, 1, 2]));
        let mine = PieceMap::empty(4);
        let theirs = map_with(4, &[0, 1, 2, 3]);
        let mut rng = DetRng::seeded(1);
        let pick = picker.next_for_peer(&mine, &theirs, &mut rng);
        assert_eq!(pick, Some(3), "rarest piece must be chosen");
    }

    #[test]
    fn never_picks_held_or_inflight() {
        let mut picker = PiecePicker::new(3);
        picker.peer_joined(&map_with(3, &[0, 1, 2]));
        let mine = map_with(3, &[0]);
        let theirs = map_with(3, &[0, 1, 2]);
        let mut rng = DetRng::seeded(2);
        let first = picker.next_for_peer(&mine, &theirs, &mut rng).unwrap();
        let second = picker.next_for_peer(&mine, &theirs, &mut rng).unwrap();
        assert_ne!(first, second);
        assert!(first != 0 && second != 0);
        assert_eq!(picker.next_for_peer(&mine, &theirs, &mut rng), None);
    }

    #[test]
    fn finished_requests_become_requestable_again() {
        let mut picker = PiecePicker::new(2);
        picker.peer_joined(&map_with(2, &[0, 1]));
        let mine = PieceMap::empty(2);
        let theirs = map_with(2, &[0]);
        let mut rng = DetRng::seeded(3);
        let p = picker.next_for_peer(&mine, &theirs, &mut rng).unwrap();
        assert_eq!(picker.next_for_peer(&mine, &theirs, &mut rng), None);
        picker.request_finished(p);
        assert_eq!(picker.next_for_peer(&mine, &theirs, &mut rng), Some(p));
    }

    #[test]
    fn edge_cursor_walks_in_order_and_skips() {
        let mut picker = PiecePicker::new(4);
        let mine = map_with(4, &[1]);
        assert_eq!(picker.next_for_edge(&mine), Some(0));
        assert_eq!(picker.next_for_edge(&mine), Some(2), "skips held piece 1");
        assert_eq!(picker.next_for_edge(&mine), Some(3));
        assert_eq!(picker.next_for_edge(&mine), None, "all held or in flight");
        picker.request_finished(2);
        assert_eq!(picker.next_for_edge(&mine), Some(2));
    }

    #[test]
    fn availability_tracks_joins_leaves_announcements() {
        let mut picker = PiecePicker::new(2);
        let m = map_with(2, &[0]);
        picker.peer_joined(&m);
        picker.peer_joined(&m);
        assert_eq!(picker.availability(0), 2);
        picker.have_announced(1);
        assert_eq!(picker.availability(1), 1);
        picker.peer_left(&m);
        assert_eq!(picker.availability(0), 1);
        // Underflow-safe.
        picker.peer_left(&m);
        picker.peer_left(&m);
        assert_eq!(picker.availability(0), 0);
    }

    #[test]
    fn tie_break_is_not_always_the_same_piece() {
        let mut seen = HashSet::new();
        for seed in 0..20 {
            let mut picker = PiecePicker::new(8);
            picker.peer_joined(&map_with(8, &[0, 1, 2, 3, 4, 5, 6, 7]));
            let mine = PieceMap::empty(8);
            let theirs = map_with(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
            let mut rng = DetRng::seeded(seed);
            seen.insert(picker.next_for_peer(&mine, &theirs, &mut rng).unwrap());
        }
        assert!(seen.len() > 2, "tie-break must randomize (saw {seen:?})");
    }
}
