//! The host's fault-stream interleave: smooth weighted round-robin.
//!
//! The textbook form adds every VM's weight to its accumulator on every
//! pick, takes the largest (lowest index on ties) and subtracts the total
//! weight from the winner — O(N) per pick, over N cold VM slots. Between
//! two of its own wins a VM's accumulator is `base + t·weight`, with `t`
//! the number of picks so far, so VMs of equal weight keep their relative
//! order until one of them wins. [`Interleave`] therefore keeps one
//! max-heap of `base` per distinct weight and compares only the heap
//! tops: the same pick sequence in O(#weights + log N), touching no slot
//! but the winner's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One weight class: VMs of this weight, ordered by `(base, lowest
/// index first)`.
#[derive(Debug)]
struct WeightClass {
    weight: i64,
    heap: BinaryHeap<(i64, Reverse<usize>)>,
}

/// Smooth-weighted-round-robin state for the VMs of one host, addressed
/// by slot index.
#[derive(Debug, Default)]
pub(crate) struct Interleave {
    weights: Vec<i64>,
    total_weight: i64,
    /// Picks since the classes were last rebuilt.
    picks: i64,
    classes: Vec<WeightClass>,
}

impl Interleave {
    /// Appends a VM (index = current length) with a zero accumulator.
    pub(crate) fn push(&mut self, weight: u64) {
        let mut accumulators = self.accumulators();
        accumulators.push(0);
        self.weights.push(weight as i64);
        self.rebuild(&accumulators);
    }

    /// Removes the VM at `index`; later VMs shift down by one, keeping
    /// their accumulators.
    pub(crate) fn remove(&mut self, index: usize) {
        let mut accumulators = self.accumulators();
        accumulators.remove(index);
        self.weights.remove(index);
        self.rebuild(&accumulators);
    }

    /// The index of the VM that issues the next access.
    ///
    /// # Panics
    ///
    /// Panics if there are no VMs.
    pub(crate) fn pick(&mut self) -> usize {
        self.picks += 1;
        let picks = self.picks;
        let winner = self
            .classes
            .iter_mut()
            .max_by_key(|class| {
                let &(base, index) = class.heap.peek().expect("weight classes are never empty");
                (base + picks * class.weight, index)
            })
            .expect("pick on a host with no VMs");
        let mut top = winner.heap.peek_mut().expect("checked non-empty above");
        top.0 -= self.total_weight;
        top.1 .0
    }

    /// Every VM's current accumulator, by index.
    fn accumulators(&self) -> Vec<i64> {
        let mut out = vec![0; self.weights.len()];
        for class in &self.classes {
            for &(base, Reverse(index)) in &class.heap {
                out[index] = base + self.picks * class.weight;
            }
        }
        out
    }

    /// Regroups the VMs by `self.weights`, restarting the pick count.
    fn rebuild(&mut self, accumulators: &[i64]) {
        self.picks = 0;
        self.total_weight = self.weights.iter().sum();
        self.classes.clear();
        for (index, (&weight, &base)) in self.weights.iter().zip(accumulators).enumerate() {
            let entry = (base, Reverse(index));
            match self.classes.iter_mut().find(|c| c.weight == weight) {
                Some(class) => class.heap.push(entry),
                None => self.classes.push(WeightClass {
                    weight,
                    heap: BinaryHeap::from([entry]),
                }),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fluidmem_sim::{prop, SimRng};

    /// The textbook O(N) scan the host agent used to run inline. Kept as
    /// the behavioral reference the heap-picked interleave is checked
    /// against.
    #[derive(Debug, Default)]
    pub(crate) struct ScanInterleave {
        /// `(weight, accumulator)` per VM.
        slots: Vec<(i64, i64)>,
    }

    impl ScanInterleave {
        pub(crate) fn push(&mut self, weight: u64) {
            self.slots.push((weight as i64, 0));
        }

        pub(crate) fn remove(&mut self, index: usize) {
            self.slots.remove(index);
        }

        pub(crate) fn pick(&mut self) -> usize {
            let total_weight: i64 = self.slots.iter().map(|s| s.0).sum();
            let mut best = 0;
            for i in 0..self.slots.len() {
                self.slots[i].1 += self.slots[i].0;
                if self.slots[i].1 > self.slots[best].1 {
                    best = i;
                }
            }
            self.slots[best].1 -= total_weight;
            best
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// One `run` call of this many picks.
        Run(u64),
        Add(u64),
        /// Removes the VM at `index % len` (skipped on a one-VM host).
        Remove(usize),
    }

    fn random_ops(rng: &mut SimRng) -> Vec<Op> {
        const WEIGHTS: [u64; 5] = [1, 1, 4, 7, 7];
        let mut ops: Vec<Op> = WEIGHTS.iter().map(|&w| Op::Add(w)).collect();
        ops.extend(prop::vec_of(rng, 20, 120, |r| match r.gen_index(8) {
            0 => Op::Add(WEIGHTS[r.gen_index(5) as usize]),
            1 => Op::Remove(r.gen_index(64) as usize),
            // Uneven chunks: single picks up to a few full cycles.
            _ => Op::Run(1 + r.gen_index(90)),
        }));
        ops
    }

    fn replay_against_scan(ops: &[Op]) -> Result<(), String> {
        let mut heap = Interleave::default();
        let mut scan = ScanInterleave::default();
        let mut len = 0;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Add(weight) => {
                    heap.push(weight);
                    scan.push(weight);
                    len += 1;
                }
                Op::Remove(index) if len > 1 => {
                    heap.remove(index % len);
                    scan.remove(index % len);
                    len -= 1;
                }
                Op::Remove(_) => {}
                Op::Run(_) if len == 0 => {}
                Op::Run(picks) => {
                    for n in 0..picks {
                        let (got, want) = (heap.pick(), scan.pick());
                        if got != want {
                            return Err(format!(
                                "step {step}, pick {n}: heap picked VM {got}, scan picks VM {want}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn heap_pick_sequence_matches_the_scan() {
        prop::forall_sequences("swrr-heap-vs-scan", 4, random_ops, replay_against_scan);
    }

    #[test]
    fn a_weight_four_vm_issues_four_sevenths_without_bursts() {
        let mut il = Interleave::default();
        for weight in [4, 1, 1, 1] {
            il.push(weight);
        }
        let picks: Vec<usize> = (0..7).map(|_| il.pick()).collect();
        assert_eq!(picks, [0, 1, 0, 2, 0, 3, 0]);
    }
}
