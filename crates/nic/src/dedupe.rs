//! The receive-side duplicate-suppression table of one sequenced
//! channel.

use std::collections::VecDeque;

/// The sequence numbers already processed on one `(src, dst)` channel.
///
/// Every sequence number at or below `floor` has been seen; `above`
/// holds, in increasing order, the seen ones past it. Senders number a
/// channel's packets 1, 2, 3, … and nearly all arrive in order, so the
/// floor advances with the stream and `above` only holds the packets
/// that overtook a lost or delayed one. Filling a gap collapses the
/// run behind it into the floor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SeenSeqs {
    floor: u64,
    above: VecDeque<u64>,
}

impl SeenSeqs {
    /// Records `seq` as processed. Returns `false` if it already was.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq <= self.floor {
            return false;
        }
        if seq == self.floor + 1 {
            self.floor = seq;
            while self.above.front() == Some(&(self.floor + 1)) {
                self.above.pop_front();
                self.floor += 1;
            }
            return true;
        }
        match self.above.binary_search(&seq) {
            Ok(_) => false,
            Err(i) => {
                self.above.insert(i, seq);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(floor: u64, above: &[u64]) -> SeenSeqs {
        SeenSeqs {
            floor,
            above: above.iter().copied().collect(),
        }
    }

    #[test]
    fn in_order_delivery_advances_the_floor() {
        let mut t = SeenSeqs::default();
        for s in 1..=5 {
            assert!(t.insert(s));
        }
        assert_eq!(t, seen(5, &[]));
    }

    #[test]
    fn out_of_order_delivery_waits_above_the_floor() {
        let mut t = SeenSeqs::default();
        assert!(t.insert(1));
        assert!(t.insert(4));
        assert!(t.insert(3));
        assert_eq!(t, seen(1, &[3, 4]));
    }

    #[test]
    fn duplicate_below_the_floor_is_rejected() {
        let mut t = SeenSeqs::default();
        for s in 1..=3 {
            t.insert(s);
        }
        assert!(!t.insert(2));
        assert!(!t.insert(3));
        assert_eq!(t, seen(3, &[]));
    }

    #[test]
    fn duplicate_above_the_floor_is_rejected() {
        let mut t = SeenSeqs::default();
        t.insert(1);
        t.insert(5);
        assert!(!t.insert(5));
        assert_eq!(t, seen(1, &[5]));
    }

    #[test]
    fn gap_fill_collapses_the_set() {
        let mut t = SeenSeqs::default();
        for s in [1, 3, 4, 6] {
            t.insert(s);
        }
        assert_eq!(t, seen(1, &[3, 4, 6]));
        assert!(t.insert(2));
        assert_eq!(t, seen(4, &[6]));
        assert!(t.insert(5));
        assert_eq!(t, seen(6, &[]));
        assert!(!t.insert(4));
    }

    #[test]
    fn long_in_order_stream_keeps_no_set() {
        let mut t = SeenSeqs::default();
        for s in 1..=100_000 {
            assert!(t.insert(s));
        }
        assert_eq!(t, seen(100_000, &[]));
        assert_eq!(t.above.capacity(), 0, "an in-order stream never allocates");
    }
}
