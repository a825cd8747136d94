//! Variable-move-to-front decision queue (VMTF, as in CaDiCaL).
//!
//! All variables sit on one doubly linked list ordered by the time of their
//! last bump: conflict analysis moves every variable it touches to the front
//! (keeping their relative order), and the next decision is the most recently
//! bumped variable that is still free. Every operation is O(1) except the
//! pick, which walks from a cursor toward older entries — and the cursor only
//! has to move back toward the front when a variable in front of it is
//! unassigned, so a conflict-free descent over n variables is one linear
//! pass, not n heap operations. That descent is what most cone queries
//! are: a few thousand decisions and propagations, a handful of conflicts.
//!
//! ## Invariant
//!
//! Every variable strictly in front of `search` (bumped later than it) is
//! assigned. `search` itself may be either. The solver keeps it by calling
//! [`VmtfQueue::on_free`] whenever backtracking unassigns a variable.

use crate::lit::Var;

const NONE: u32 = u32::MAX;

/// Doubly linked list of all variables in bump order plus a search cursor.
#[derive(Debug)]
pub(crate) struct VmtfQueue {
    /// Neighbour bumped just before `v` (toward the back), or `NONE`.
    older: Vec<u32>,
    /// Neighbour bumped just after `v` (toward the front), or `NONE`.
    newer: Vec<u32>,
    /// Time of `v`'s last bump; strictly increasing from back to front.
    stamp: Vec<u64>,
    /// Most recently bumped variable (`NONE` while empty).
    front: u32,
    /// Where the next pick starts walking toward older entries.
    search: u32,
    /// Last stamp handed out.
    clock: u64,
}

impl VmtfQueue {
    pub(crate) fn new() -> VmtfQueue {
        VmtfQueue {
            older: Vec::new(),
            newer: Vec::new(),
            stamp: Vec::new(),
            front: NONE,
            search: NONE,
            clock: 0,
        }
    }

    /// Registers the next variable (index = number registered so far) at the
    /// front of the queue. New variables are free, so the cursor moves to it.
    pub(crate) fn push_var(&mut self) {
        let v = self.stamp.len() as u32;
        self.older.push(NONE);
        self.newer.push(NONE);
        self.stamp.push(0);
        self.link_front(v);
        self.search = v;
    }

    fn link_front(&mut self, v: u32) {
        self.clock += 1;
        self.stamp[v as usize] = self.clock;
        self.older[v as usize] = self.front;
        self.newer[v as usize] = NONE;
        if self.front != NONE {
            self.newer[self.front as usize] = v;
        }
        self.front = v;
    }

    /// Moves `v`, which must not be free, to the front.
    fn bump(&mut self, v: Var) {
        let v = v.0;
        let newer = self.newer[v as usize];
        if newer == NONE {
            return; // already at the front
        }
        if self.search == v {
            // Nothing in front of `v` is free and neither is `v`, so its
            // newer neighbour is a valid cursor.
            self.search = newer;
        }
        let older = self.older[v as usize];
        self.older[newer as usize] = older;
        if older != NONE {
            self.newer[older as usize] = newer;
        }
        self.link_front(v);
    }

    /// Bumps every variable of one conflict analysis (none of them free),
    /// oldest first so the group keeps its relative order at the front, and
    /// empties `vars`.
    pub(crate) fn bump_all(&mut self, vars: &mut Vec<Var>) {
        vars.sort_unstable_by_key(|v| self.stamp[v.index()]);
        for v in vars.drain(..) {
            self.bump(v);
        }
    }

    /// Heap bytes held by the per-variable arrays.
    pub(crate) fn bytes(&self) -> u64 {
        ((self.older.capacity() + self.newer.capacity()) * 4 + self.stamp.capacity() * 8) as u64
    }

    /// Records that `v` became free (unassigned on backtrack): if it sits in
    /// front of the cursor, the cursor moves up to it.
    #[inline]
    pub(crate) fn on_free(&mut self, v: Var) {
        if self.stamp[v.index()] > self.stamp[self.search as usize] {
            self.search = v.0;
        }
    }

    /// The most recently bumped variable for which `is_free` holds, or
    /// `None` if there is none. Leaves the cursor on the returned variable.
    pub(crate) fn pick(&mut self, is_free: impl Fn(Var) -> bool) -> Option<Var> {
        let mut v = self.search;
        while v != NONE {
            self.search = v;
            if is_free(Var(v)) {
                return Some(Var(v));
            }
            v = self.older[v as usize];
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(n: usize) -> VmtfQueue {
        let mut q = VmtfQueue::new();
        for _ in 0..n {
            q.push_var();
        }
        q
    }

    #[test]
    fn picks_most_recently_bumped_free_variable() {
        let mut q = queue(4);
        // Registration order is bump order: the newest variable comes first.
        assert_eq!(q.pick(|_| true), Some(Var(3)));
        // 1 is assigned, bumped, and freed again.
        q.bump_all(&mut vec![Var(1)]);
        q.on_free(Var(1));
        assert_eq!(q.pick(|_| true), Some(Var(1)));
        // With 1 and 3 taken the walk reaches 2, then 0.
        assert_eq!(q.pick(|v| v.0 != 1 && v.0 != 3), Some(Var(2)));
        assert_eq!(q.pick(|v| v.0 == 0), Some(Var(0)));
        assert_eq!(q.pick(|_| false), None);
    }

    #[test]
    fn group_bump_keeps_relative_order() {
        let mut q = queue(5);
        // Queue front-to-back: 4 3 2 1 0. Bumping {0, 3, 1} in any order
        // must give 3 1 0 4 2.
        q.bump_all(&mut vec![Var(0), Var(3), Var(1)]);
        q.on_free(Var(3));
        let mut taken = [false; 5];
        let mut order = Vec::new();
        while let Some(v) = q.pick(|v| !taken[v.index()]) {
            taken[v.index()] = true;
            order.push(v.0);
        }
        assert_eq!(order, vec![3, 1, 0, 4, 2]);
    }

    #[test]
    fn freeing_a_variable_in_front_of_the_cursor_moves_it_back() {
        let mut q = queue(3);
        assert_eq!(q.pick(|v| v.0 == 0), Some(Var(0)));
        q.on_free(Var(2));
        assert_eq!(q.pick(|v| v.0 != 1), Some(Var(2)));
        // Freeing something behind the cursor must not move it.
        q.on_free(Var(0));
        assert_eq!(q.pick(|v| v.0 != 1), Some(Var(2)));
    }

    /// Random assign / unassign / bump interleavings
    /// against a model that recomputes the answer from scratch: the pick is
    /// always the free variable with the latest bump, so the cursor never
    /// skipped one.
    #[test]
    fn random_interleavings_agree_with_a_scan() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for round in 0..200 {
            let n = 1 + next(24);
            let mut q = queue(n);
            // Model: variables front-to-back, plus who is assigned.
            let mut order: Vec<u32> = (0..n as u32).rev().collect();
            let mut assigned = vec![false; n];
            for step in 0..400 {
                let v = next(n);
                match next(4) {
                    0 => assigned[v] = true,
                    1 if assigned[v] => {
                        assigned[v] = false;
                        q.on_free(Var(v as u32));
                    }
                    2 => {
                        // Conflict analysis: bump a few assigned variables.
                        let mut group: Vec<Var> = (0..n)
                            .filter(|&u| assigned[u] && next(3) == 0)
                            .map(|u| Var(u as u32))
                            .collect();
                        let moved: Vec<u32> = order
                            .iter()
                            .rev()
                            .copied()
                            .filter(|u| group.contains(&Var(*u)))
                            .collect();
                        order.retain(|u| !moved.contains(u));
                        for u in moved {
                            order.insert(0, u);
                        }
                        q.bump_all(&mut group);
                        assert!(group.is_empty());
                    }
                    _ => {
                        let free = |u: usize| !assigned[u];
                        let want = order.iter().copied().find(|&u| free(u as usize));
                        let got = q.pick(|u| free(u.index()));
                        assert_eq!(got.map(|u| u.0), want, "round {round} step {step}");
                        // A decision assigns the picked variable.
                        if let Some(u) = got {
                            assigned[u.index()] = true;
                        }
                    }
                }
            }
        }
    }
}
