//! Event-driven single-fault forward propagation over pattern words,
//! generic over the lane width.

use crate::Fault;
use lbist_exec::LaneWord;
use lbist_netlist::{GateKind, NodeId};
use lbist_sim::{eval_gate, CompiledCircuit};

/// Reusable scratch state for event-driven fault propagation.
///
/// The serial reference builds one `Propagator` per batch and reuses it
/// for every fault injection; per-fault cleanup is O(1) thanks to epoch
/// stamps.
#[derive(Debug)]
pub(crate) struct Propagator<W: LaneWord = u64> {
    faulty: Vec<W>,
    stamp: Vec<u32>,
    epoch: u32,
    buckets: Vec<Vec<NodeId>>,
    queued: Vec<u32>,
    fanin_scratch: Vec<W>,
}

impl<W: LaneWord> Propagator<W> {
    pub(crate) fn new(cc: &CompiledCircuit) -> Self {
        Propagator {
            faulty: vec![W::zero(); cc.num_nodes()],
            stamp: vec![0u32; cc.num_nodes()],
            epoch: 0,
            buckets: vec![Vec::new(); cc.max_level() as usize + 2],
            queued: vec![0u32; cc.num_nodes()],
            fanin_scratch: Vec::new(),
        }
    }

    /// Starts a new fault injection (invalidates all previous overlay
    /// values in O(1)).
    pub(crate) fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: do the full reset once.
            self.stamp.fill(0);
            self.queued.fill(0);
            self.epoch = 1;
        }
        for b in &mut self.buckets {
            b.clear();
        }
    }

    /// The node's value under the current fault (overlay or good).
    #[inline]
    pub(crate) fn value(&self, node: NodeId, good: &[W]) -> W {
        if self.stamp[node.index()] == self.epoch {
            self.faulty[node.index()]
        } else {
            good[node.index()]
        }
    }

    /// Forces a node's faulty value (fault injection site).
    #[inline]
    pub(crate) fn set(&mut self, node: NodeId, word: W) {
        self.faulty[node.index()] = word;
        self.stamp[node.index()] = self.epoch;
    }

    /// Queues the combinational fanouts of `node` for re-evaluation.
    /// Flip-flops are skipped — fault effects cross them only at capture,
    /// which the frame-level simulators handle explicitly.
    pub(crate) fn enqueue_fanouts(&mut self, cc: &CompiledCircuit, node: NodeId) {
        for &succ in cc.fanouts(node) {
            if cc.kind(succ) == GateKind::Dff {
                continue;
            }
            if self.queued[succ.index()] != self.epoch {
                self.queued[succ.index()] = self.epoch;
                self.buckets[cc.level(succ) as usize].push(succ);
            }
        }
    }

    /// Drains the event queue in level order, re-evaluating each reached
    /// gate against the overlay. `on_diff(node, diff)` fires for every node
    /// whose faulty value differs from `good` (diff is the per-pattern
    /// difference mask). A `pin`ned node keeps its injected value even if
    /// it is reached by other events (used for fault-site injection in the
    /// presence of upstream state differences).
    ///
    /// Exact for single faults: level order guarantees all fanins are final
    /// before a node is evaluated, so reconvergent fanout needs no
    /// iteration.
    pub(crate) fn run(
        &mut self,
        cc: &CompiledCircuit,
        good: &[W],
        pin: Option<NodeId>,
        mut on_diff: impl FnMut(NodeId, W),
    ) {
        for level in 0..self.buckets.len() {
            // Buckets may grow at higher levels while this one drains.
            let mut i = 0;
            while i < self.buckets[level].len() {
                let node = self.buckets[level][i];
                i += 1;
                if pin == Some(node) {
                    continue; // injected value stays authoritative
                }
                let kind = cc.kind(node);
                debug_assert!(!kind.is_frame_source());
                self.fanin_scratch.clear();
                for &f in cc.fanins(node) {
                    self.fanin_scratch.push(self.value(f, good));
                }
                let val = eval_gate(kind, &self.fanin_scratch);
                if val != good[node.index()] {
                    self.set(node, val);
                    on_diff(node, val.xor(good[node.index()]));
                    self.enqueue_fanouts(cc, node);
                }
                // val == good: event dies (no overlay entry needed: `value`
                // falls back to good for un-stamped nodes).
            }
            self.buckets[level].clear();
        }
    }

    /// Injects stuck-at `fault` into the fault-free `good` frame and
    /// propagates it: `on_diff(node, diff)` fires for the injection node
    /// and every node the effect reaches. A flip-flop `D`-pin fault is
    /// captured directly, so it reports its diff at the flip-flop site
    /// with no propagation inside the frame.
    ///
    /// Returns `false` when no lane excites the fault.
    pub(crate) fn stuck_at(
        &mut self,
        cc: &CompiledCircuit,
        fault: &Fault,
        good: &[W],
        mut on_diff: impl FnMut(NodeId, W),
    ) -> bool {
        let Some((site, word)) = inject_stuck_at(cc, fault, good) else {
            return false;
        };
        if cc.kind(site) == GateKind::Dff {
            on_diff(site, word.xor(good[cc.fanins(site)[0].index()]));
            return true;
        }
        self.begin();
        self.set(site, word);
        on_diff(site, word.xor(good[site.index()]));
        self.enqueue_fanouts(cc, site);
        self.run(cc, good, None, on_diff);
        true
    }
}

/// Computes a stuck-at fault's injection: the faulty word at the injection
/// node and whether injection happens at the site node itself (stem) or at
/// the reading gate (branch re-evaluation).
///
/// Returns `None` when the fault is not excited by any of the lanes.
pub(crate) fn inject_stuck_at<W: LaneWord>(
    cc: &CompiledCircuit,
    fault: &Fault,
    good: &[W],
) -> Option<(NodeId, W)> {
    let forced = if fault.kind.faulty_value() { W::ones() } else { W::zero() };
    match fault.pin {
        None => {
            let g = good[fault.node.index()];
            if g == forced {
                return None;
            }
            Some((fault.node, forced))
        }
        Some(pin) => {
            let kind = cc.kind(fault.node);
            if kind == GateKind::Dff {
                // A D-pin branch fault is captured directly; the caller
                // treats activation as detection (the pin is observed).
                let src = cc.fanins(fault.node)[0];
                let g = good[src.index()];
                if g == forced {
                    return None;
                }
                // Report the faulty *captured* value at the FF itself.
                return Some((fault.node, forced));
            }
            let fanins = cc.fanins(fault.node);
            let mut words: Vec<W> = fanins.iter().map(|&f| good[f.index()]).collect();
            words[pin as usize] = forced;
            let val = eval_gate(kind, &words);
            if val == good[fault.node.index()] {
                return None;
            }
            Some((fault.node, val))
        }
    }
}

/// Propagates a single stuck-at fault through an already-evaluated good
/// frame and reports every node whose value changes.
///
/// `visitor(node, diff)` is called once per affected node with the
/// per-pattern difference mask. This is the primitive the DFT crate's
/// fault-simulation-guided test point insertion uses to build propagation
/// profiles of undetected faults.
///
/// Returns `true` if the fault was excited by at least one pattern.
///
/// # Example
///
/// ```
/// use lbist_netlist::{Netlist, GateKind};
/// use lbist_sim::CompiledCircuit;
/// use lbist_fault::{propagate_fault, Fault, FaultKind};
///
/// let mut nl = Netlist::new("p");
/// let a = nl.add_input("a");
/// let g = nl.add_gate(GateKind::Not, &[a]);
/// nl.add_output("y", g);
/// let cc = CompiledCircuit::compile(&nl).unwrap();
/// let mut frame = cc.new_frame();
/// frame[a.index()] = 0; // all patterns drive a = 0
/// cc.eval2(&mut frame);
///
/// let mut reached = Vec::new();
/// let excited = propagate_fault(&cc, &Fault::stem(a, FaultKind::StuckAt1), &frame,
///                               |node, _diff| reached.push(node));
/// assert!(excited);
/// assert!(reached.contains(&g));
/// ```
pub fn propagate_fault<W: LaneWord>(
    cc: &CompiledCircuit,
    fault: &Fault,
    good_frame: &[W],
    visitor: impl FnMut(NodeId, W),
) -> bool {
    assert!(fault.kind.is_stuck_at(), "propagate_fault grades stuck-at faults");
    Propagator::new(cc).stuck_at(cc, fault, good_frame, visitor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use lbist_netlist::Netlist;

    #[test]
    fn stem_fault_propagates_through_chain() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_gate(GateKind::Not, &[a]);
        let n2 = nl.add_gate(GateKind::Buf, &[n1]);
        let y = nl.add_output("y", n2);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = 0b10;
        cc.eval2(&mut frame);

        let mut diffs = std::collections::HashMap::new();
        let excited = propagate_fault(&cc, &Fault::stem(a, FaultKind::StuckAt0), &frame, |n, d| {
            diffs.insert(n, d);
        });
        assert!(excited);
        // a=1 only in pattern 1, so the diff mask is 0b10 everywhere.
        assert_eq!(diffs[&a], 0b10);
        assert_eq!(diffs[&n1], 0b10);
        assert_eq!(diffs[&n2], 0b10);
        assert_eq!(diffs[&y], 0b10);
    }

    #[test]
    fn unexcited_fault_reports_false() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Buf, &[a]);
        nl.add_output("y", g);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = 0; // a always 0: SA0 not excited
        cc.eval2(&mut frame);
        let excited =
            propagate_fault(&cc, &Fault::stem(a, FaultKind::StuckAt0), &frame, |_, _| panic!());
        assert!(!excited);
    }

    #[test]
    fn branch_fault_affects_only_reading_gate() {
        // a fans out to g1 (AND with b=1) and g2 (OR with 0).
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]);
        let g2 = nl.add_gate(GateKind::Or, &[a, a]);
        nl.add_output("y1", g1);
        nl.add_output("y2", g2);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = !0;
        frame[b.index()] = !0;
        cc.eval2(&mut frame);

        let mut reached = Vec::new();
        propagate_fault(&cc, &Fault::branch(g1, 0, FaultKind::StuckAt0), &frame, |n, _| {
            reached.push(n)
        });
        assert!(reached.contains(&g1));
        assert!(!reached.contains(&g2), "branch fault leaked to sibling gate");
        assert!(!reached.contains(&a), "branch fault must not affect the stem");
    }

    #[test]
    fn masking_blocks_propagation() {
        // AND(a, b) with b=0: a-fault cannot pass.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]);
        nl.add_output("y", g);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = !0;
        frame[b.index()] = 0;
        cc.eval2(&mut frame);
        let mut reached = Vec::new();
        propagate_fault(&cc, &Fault::stem(a, FaultKind::StuckAt0), &frame, |n, _| reached.push(n));
        assert_eq!(reached, vec![a], "effect must die at the masked AND");
    }

    #[test]
    fn reconvergence_is_exact() {
        // a -> (NOT, BUF) -> XOR: the two paths reconverge; with both
        // inverted/buffered the XOR output is constant 1 regardless of a,
        // so an a-fault must NOT reach the XOR output.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, &[a]);
        let buf = nl.add_gate(GateKind::Buf, &[a]);
        let x = nl.add_gate(GateKind::Xor, &[inv, buf]);
        nl.add_output("y", x);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = 0b0101;
        cc.eval2(&mut frame);
        let mut reached = Vec::new();
        propagate_fault(&cc, &Fault::stem(a, FaultKind::StuckAt1), &frame, |n, _| reached.push(n));
        assert!(reached.contains(&inv));
        assert!(reached.contains(&buf));
        assert!(!reached.contains(&x), "XOR of complementary diffs must cancel");
    }
}
