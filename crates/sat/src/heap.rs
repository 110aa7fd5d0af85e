//! Indexed max-heap ordered by variable activity (the VSIDS order heap).
//!
//! Both sifts move through a hole: the moving variable is held aside,
//! each parent or child it passes is written one slot over, and the
//! variable itself is written once, where it stops. That is half the
//! stores of swapping at every level, with the same final layout: a
//! sift down takes the right child only if it beats the left one, so
//! ties go left, and pops come out in the same order as with swaps.

use crate::lit::Var;

/// A binary max-heap over variables keyed by an external activity array,
/// with O(log n) insert/remove and O(1) membership.
#[derive(Debug, Clone, Default)]
pub struct OrderHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    position: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl OrderHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        OrderHeap::default()
    }

    /// Number of queued variables.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no variable is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` if `v` is currently queued.
    pub fn contains(&self, v: Var) -> bool {
        self.position.get(v.index()).is_some_and(|&p| p != ABSENT)
    }

    /// Moves the variable at `i` up while its parent has lower activity.
    /// The moving variable is held aside and written once, into the
    /// hole left where it stops; each parent it passes slides down.
    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let act = activity[v.index()];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if activity[pv.index()] >= act {
                break;
            }
            self.heap[i] = pv;
            self.position[pv.index()] = i;
            i = parent;
        }
        self.heap[i] = v;
        self.position[v.index()] = i;
    }

    /// Moves the variable at `i` down while a child has higher activity,
    /// through a hole like [`Self::sift_up`]. The right child is taken
    /// only if it beats the left one, so ties go left.
    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let act = activity[v.index()];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && activity[self.heap[l].index()] < activity[self.heap[r].index()]
            {
                r
            } else {
                l
            };
            let cv = self.heap[child];
            if act >= activity[cv.index()] {
                break;
            }
            self.heap[i] = cv;
            self.position[cv.index()] = i;
            i = child;
        }
        self.heap[i] = v;
        self.position[v.index()] = i;
    }

    /// Inserts `v` (no-op if already present). Only a variable beyond
    /// every one seen so far grows the position table.
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        let vi = v.index();
        if vi >= self.position.len() {
            self.position.resize(vi + 1, ABSENT);
        } else if self.position[vi] != ABSENT {
            return;
        }
        self.position[vi] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Removes and returns the highest-activity variable.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.position[top.index()] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores heap order for `v` after its activity increased.
    pub fn decrease_key(&mut self, v: Var, activity: &[f64]) {
        if let Some(&p) = self.position.get(v.index()) {
            if p != ABSENT {
                self.sift_up(p, activity);
            }
        }
    }

    /// Rebuilds the heap from scratch (after a global activity rescale).
    pub fn rebuild(&mut self, activity: &[f64]) {
        let vars: Vec<Var> = self.heap.drain(..).collect();
        for &v in &vars {
            self.position[v.index()] = ABSENT;
        }
        for v in vars {
            self.insert(v, activity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![1.0, 5.0, 3.0, 4.0, 2.0];
        let mut h = OrderHeap::new();
        for i in 0..5 {
            h.insert(Var(i), &activity);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop(&activity))
            .map(|v| v.0)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn ties_pop_in_a_fixed_order() {
        // Equal activities leave the order to the sifts alone: this is
        // the order the swap-based sifts gave, which the hole sifts keep.
        let activity = vec![2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 2.0, 3.0, 1.0];
        let mut h = OrderHeap::new();
        for i in 0..12 {
            h.insert(Var(i), &activity);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop(&activity))
            .map(|v| v.0)
            .collect();
        assert_eq!(order, vec![3, 10, 6, 8, 0, 9, 2, 5, 4, 11, 7, 1]);
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut h = OrderHeap::new();
        h.insert(Var(0), &activity);
        h.insert(Var(0), &activity);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = OrderHeap::new();
        for i in 0..3 {
            h.insert(Var(i), &activity);
        }
        activity[0] = 10.0;
        h.decrease_key(Var(0), &activity);
        assert_eq!(h.pop(&activity), Some(Var(0)));
    }

    #[test]
    fn contains_tracks_membership() {
        let activity = vec![1.0; 4];
        let mut h = OrderHeap::new();
        h.insert(Var(2), &activity);
        assert!(h.contains(Var(2)));
        assert!(!h.contains(Var(1)));
        h.pop(&activity);
        assert!(!h.contains(Var(2)));
        assert!(h.is_empty());
    }

    #[test]
    fn rebuild_preserves_membership() {
        let mut activity = vec![3.0, 1.0, 2.0];
        let mut h = OrderHeap::new();
        for i in 0..3 {
            h.insert(Var(i), &activity);
        }
        // Rescale: order flips.
        activity[0] = 0.1;
        h.rebuild(&activity);
        assert_eq!(h.pop(&activity), Some(Var(2)));
        assert_eq!(h.len(), 2);
    }
}
