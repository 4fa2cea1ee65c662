//! The PODEM test generation algorithm.
//!
//! # Search order is part of the output
//!
//! PODEM's verdicts and cubes depend on the order in which it meets
//! things, so the engine keeps that order fixed:
//!
//! * implication is event-driven with a strict FIFO queue, and every
//!   value change goes through `set_value`, which appends to the undo
//!   trail;
//! * the D-node list is the trail's nodes in first-occurrence order (then
//!   the fault site), and the D-frontier takes the first gate of minimal
//!   distance to an observed node in that order.
//!
//! The trail order therefore breaks every D-frontier tie, and with it
//! decides which cube a fault gets. A change to this module that is meant
//! to be only faster must keep the queue FIFO and the `set_value` order as
//! they are; the pinned outcome digests in the workspace tests check it.
//!
//! The search loop allocates nothing per decision: the event queue, the
//! D-node list, the X-path stack and the decision stack are buffers owned
//! by the engine and reused across decisions and across faults.

use crate::pattern::TestCube;
use crate::values::{controlling_value, eval_logic_with, inverts};
use lbist_fault::Fault;
use lbist_netlist::{GateKind, NodeId};
use lbist_sim::{CompiledCircuit, Logic};

/// Outcome of one PODEM run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtpgOutcome {
    /// A test cube detecting the fault.
    Test(TestCube),
    /// The fault is proven untestable (search space exhausted).
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

/// PODEM: path-oriented decision making on the full-scan combinational
/// view.
///
/// Decisions are made only at primary inputs and flip-flop outputs
/// (pseudo-PIs); objectives are backtraced to them, implications run
/// forward event-driven over a `(good, faulty)` ternary pair per node,
/// and the search backtracks on conflicts (fault not excitable, empty
/// D-frontier, or no X-path to an observed node).
#[derive(Debug)]
pub struct Podem<'a> {
    cc: &'a CompiledCircuit,
    observed: Vec<bool>,
    assignable: Vec<bool>,
    backtrack_limit: usize,
    /// Constant nodes and their values, in schedule order.
    consts: Vec<(NodeId, Logic)>,
    good: Vec<Logic>,
    faulty: Vec<Logic>,
    /// Undo trail: (node, old good, old faulty).
    trail: Vec<(NodeId, Logic, Logic)>,
    /// The fault currently being targeted (its transform is applied during
    /// node evaluation).
    target: Option<Target>,
    /// Decision stack of the current search.
    decisions: Vec<Decision>,
    /// Implication event queue (FIFO: `imply_from` walks it by index).
    queue: Vec<NodeId>,
    /// Nodes carrying a fault effect, computed once per decision by
    /// `status` and read again by `objective`.
    d_nodes: Vec<NodeId>,
    /// X-path search stack.
    xpath: Vec<NodeId>,
    /// Epoch-stamped marks shared by the D-node scan and the X-path
    /// search.
    scratch_stamp: Vec<u32>,
    scratch_epoch: u32,
    /// Per-node hop distance to the nearest observed node (u32::MAX when
    /// unreachable) — guides the D-frontier choice toward the easiest
    /// propagation path.
    obs_distance: Vec<u32>,
}

/// The active fault target.
#[derive(Clone, Copy, Debug)]
struct Target {
    site: NodeId,
    pin: Option<u8>,
    stuck: Logic,
}

/// One primary-input decision on the search stack.
#[derive(Clone, Copy, Debug)]
struct Decision {
    pi: NodeId,
    value: bool,
    /// The other value was already tried.
    flipped: bool,
    /// Trail length before the decision was implied.
    mark: usize,
}

impl<'a> Podem<'a> {
    /// Creates a generator observing the given nodes (typically
    /// [`lbist_fault::StuckAtSim::observe_all_captures`]).
    pub fn new(cc: &'a CompiledCircuit, observed: Vec<NodeId>) -> Self {
        let mut obs = vec![false; cc.num_nodes()];
        for o in observed {
            obs[o.index()] = true;
        }
        let mut assignable = vec![false; cc.num_nodes()];
        for &pi in cc.inputs() {
            assignable[pi.index()] = true;
        }
        for &ff in cc.dffs() {
            assignable[ff.index()] = true;
        }
        let consts = cc
            .schedule()
            .iter()
            .filter_map(|&id| match cc.kind(id) {
                GateKind::Const0 => Some((id, Logic::Zero)),
                GateKind::Const1 => Some((id, Logic::One)),
                _ => None,
            })
            .collect();
        // Reverse BFS from the observed set over fanin edges gives each
        // node its hop distance to the nearest observation.
        let mut obs_distance = vec![u32::MAX; cc.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        for (i, &o) in obs.iter().enumerate() {
            if o {
                obs_distance[i] = 0;
                queue.push_back(NodeId::from_index(i));
            }
        }
        while let Some(n) = queue.pop_front() {
            let d = obs_distance[n.index()];
            for &f in cc.fanins(n) {
                if obs_distance[f.index()] == u32::MAX {
                    obs_distance[f.index()] = d + 1;
                    queue.push_back(f);
                }
            }
        }
        Podem {
            good: vec![Logic::X; cc.num_nodes()],
            faulty: vec![Logic::X; cc.num_nodes()],
            trail: Vec::new(),
            observed: obs,
            assignable,
            backtrack_limit: 512,
            consts,
            target: None,
            decisions: Vec::new(),
            queue: Vec::new(),
            d_nodes: Vec::new(),
            xpath: Vec::new(),
            scratch_stamp: vec![0u32; cc.num_nodes()],
            scratch_epoch: 0,
            obs_distance,
            cc,
        }
    }

    /// Adjusts the backtrack limit (default 512).
    pub fn set_backtrack_limit(&mut self, limit: usize) {
        self.backtrack_limit = limit.max(1);
    }

    /// Attempts to generate a test for `fault`.
    ///
    /// # Panics
    ///
    /// Panics if the fault is not stuck-at.
    pub fn generate(&mut self, fault: &Fault) -> AtpgOutcome {
        assert!(fault.kind.is_stuck_at(), "PODEM targets stuck-at faults");
        let cc = self.cc;
        self.good.fill(Logic::X);
        self.faulty.fill(Logic::X);
        self.trail.clear();
        self.decisions.clear();
        self.target = Some(Target {
            site: fault.node,
            pin: fault.pin,
            stuck: Logic::from_bool(fault.kind.faulty_value()),
        });
        // X-sources are zero-bounded in test mode; treat them as constant 0
        // (the bounding AND makes this exact when test_mode=1, which the
        // session guarantees).
        for &x in cc.xsources() {
            self.good[x.index()] = Logic::Zero;
            self.faulty[x.index()] = Logic::Zero;
        }
        // Constants participate in implication from the start.
        for i in 0..self.consts.len() {
            let (id, v) = self.consts[i];
            self.good[id.index()] = v;
            self.faulty[id.index()] = v;
            self.imply_from(id);
        }
        for &x in cc.xsources() {
            self.imply_from(x);
        }
        self.trail.clear(); // initial implications are permanent for this run

        match self.search(fault) {
            Ok(()) => {
                let mut cube = TestCube::new();
                for d in &self.decisions {
                    cube.assign(d.pi, d.value);
                }
                AtpgOutcome::Test(cube)
            }
            Err(verdict) => verdict,
        }
    }

    /// The decision loop. `Ok` means the decisions on the stack detect the
    /// fault; `Err` carries the verdict that ended the search otherwise.
    fn search(&mut self, fault: &Fault) -> Result<(), AtpgOutcome> {
        let mut backtracks = 0usize;
        loop {
            match self.status(fault) {
                Status::Detected => return Ok(()),
                // Unwind to the newest decision whose other value is untried.
                Status::Conflict => while !self.backtrack(&mut backtracks)? {},
                Status::Undecided => {
                    match self.objective(fault).and_then(|(n, v)| self.backtrace(n, v)) {
                        Some((pi, value)) => self.decide(pi, value, false),
                        // No objective, or none reachable from a free input:
                        // undo the newest decision and look again.
                        None => {
                            self.backtrack(&mut backtracks)?;
                        }
                    }
                }
            }
        }
    }

    /// Pops the newest decision and, if its other value is untried, takes
    /// that value as a flipped decision (returning `true`). Ends the search
    /// with `Untestable` when no decision is left and with `Aborted` when
    /// the backtrack limit is exceeded.
    fn backtrack(&mut self, backtracks: &mut usize) -> Result<bool, AtpgOutcome> {
        let Some(d) = self.decisions.pop() else {
            return Err(AtpgOutcome::Untestable);
        };
        self.undo_to(d.mark);
        *backtracks += 1;
        if *backtracks > self.backtrack_limit {
            return Err(AtpgOutcome::Aborted);
        }
        if d.flipped {
            return Ok(false);
        }
        self.decide(d.pi, !d.value, true);
        Ok(true)
    }

    /// Assigns a PI, runs forward implication and pushes the decision.
    fn decide(&mut self, pi: NodeId, value: bool, flipped: bool) {
        debug_assert!(self.assignable[pi.index()]);
        let mark = self.trail.len();
        let v = Logic::from_bool(value);
        self.set_value(pi, v, v);
        self.imply_from(pi);
        self.decisions.push(Decision { pi, value, flipped, mark });
    }

    fn set_value(&mut self, node: NodeId, g: Logic, f: Logic) {
        self.trail.push((node, self.good[node.index()], self.faulty[node.index()]));
        self.good[node.index()] = g;
        self.faulty[node.index()] = f;
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (node, g, f) = self.trail.pop().expect("len checked");
            self.good[node.index()] = g;
            self.faulty[node.index()] = f;
        }
    }

    /// Event-driven forward implication from `start`, in strict FIFO
    /// order. Faulty values diverge at the site through `eval_node`.
    fn imply_from(&mut self, start: NodeId) {
        let cc = self.cc;
        self.queue.clear();
        self.queue.extend_from_slice(cc.fanouts(start));
        let mut head = 0;
        while head < self.queue.len() {
            let node = self.queue[head];
            head += 1;
            if cc.kind(node) == GateKind::Dff {
                continue;
            }
            let (g, f) = self.eval_node(node);
            if g != self.good[node.index()] || f != self.faulty[node.index()] {
                self.set_value(node, g, f);
                self.queue.extend_from_slice(cc.fanouts(node));
            }
        }
    }

    /// Evaluates a node's (good, faulty) pair, applying the current fault
    /// transform at the site.
    fn eval_node(&self, node: NodeId) -> (Logic, Logic) {
        let kind = self.cc.kind(node);
        let fi = self.cc.fanins(node);
        let good = eval_logic_with(kind, fi.len(), |i| self.good[fi[i].index()]);
        let faulty = match self.target {
            Some(t) if t.site == node => match t.pin {
                None => t.stuck,
                Some(pin) => eval_logic_with(kind, fi.len(), |i| {
                    if i == pin as usize {
                        t.stuck
                    } else {
                        self.faulty[fi[i].index()]
                    }
                }),
            },
            _ => eval_logic_with(kind, fi.len(), |i| self.faulty[fi[i].index()]),
        };
        (good, faulty)
    }

    /// Refills `d_nodes`: the nodes that carry a fault effect now. Only
    /// nodes the trail touched (values change only through `set_value`)
    /// and the site can, taken in the trail's first-occurrence order.
    fn collect_d_nodes(&mut self, site: NodeId) {
        self.bump_epoch();
        let epoch = self.scratch_epoch;
        self.d_nodes.clear();
        for &(n, _, _) in &self.trail {
            if self.scratch_stamp[n.index()] != epoch {
                self.scratch_stamp[n.index()] = epoch;
                if carries_d(self.good[n.index()], self.faulty[n.index()]) {
                    self.d_nodes.push(n);
                }
            }
        }
        if self.scratch_stamp[site.index()] != epoch
            && carries_d(self.good[site.index()], self.faulty[site.index()])
        {
            self.d_nodes.push(site);
        }
    }

    fn bump_epoch(&mut self) {
        self.scratch_epoch = self.scratch_epoch.wrapping_add(1);
        if self.scratch_epoch == 0 {
            self.scratch_stamp.fill(0);
            self.scratch_epoch = 1;
        }
    }

    fn status(&mut self, fault: &Fault) -> Status {
        let stuck = Logic::from_bool(fault.kind.faulty_value());
        let site = fault.node;
        if fault.pin.is_none() {
            let g = self.good[site.index()];
            if g == stuck {
                return Status::Conflict; // cannot excite
            }
            // Stem faults at sources are never evaluated: install the
            // faulty value here once the good value is known.
            if self.faulty[site.index()] != stuck && !g.is_x() {
                self.set_value(site, g, stuck);
                self.imply_from(site);
            }
        }
        self.collect_d_nodes(site);
        if self.d_nodes.iter().any(|n| self.observed[n.index()]) {
            return Status::Detected;
        }
        if let Some(pin) = fault.pin {
            let src = self.cc.fanins(site)[pin as usize];
            if self.good[src.index()] == stuck {
                return Status::Conflict; // cannot excite
            }
        }
        if self.x_path_to_observed(site) {
            Status::Undecided
        } else {
            Status::Conflict
        }
    }

    /// Multi-source search forward through not-yet-blocked logic from
    /// every live D node (or the still-unexcited site) toward any
    /// observed node.
    fn x_path_to_observed(&mut self, site: NodeId) -> bool {
        self.bump_epoch();
        let epoch = self.scratch_epoch;
        let cc = self.cc;
        self.xpath.clear();
        if self.d_nodes.is_empty() {
            self.xpath.push(site);
        } else {
            self.xpath.extend_from_slice(&self.d_nodes);
        }
        for &n in &self.xpath {
            self.scratch_stamp[n.index()] = epoch;
        }
        while let Some(n) = self.xpath.pop() {
            if self.observed[n.index()] {
                return true;
            }
            for &succ in cc.fanouts(n) {
                if self.scratch_stamp[succ.index()] == epoch || cc.kind(succ) == GateKind::Dff {
                    continue;
                }
                // Blocked if the successor's good value is already definite
                // AND its faulty value is definite and equal (no room for a
                // difference to pass).
                let g = self.good[succ.index()];
                let f = self.faulty[succ.index()];
                if !g.is_x() && !f.is_x() && g == f {
                    continue;
                }
                self.scratch_stamp[succ.index()] = epoch;
                self.xpath.push(succ);
            }
        }
        false
    }

    /// PODEM objective: excite first, then extend a D-frontier gate.
    fn objective(&self, fault: &Fault) -> Option<(NodeId, bool)> {
        let stuck = fault.kind.faulty_value();
        match fault.pin {
            None => {
                if self.good[fault.node.index()].is_x() {
                    return Some((fault.node, !stuck));
                }
            }
            Some(pin) => {
                let src = self.cc.fanins(fault.node)[pin as usize];
                if self.good[src.index()].is_x() {
                    return Some((src, !stuck));
                }
                // Excited branch fault: the reading gate itself is the
                // initial D-frontier (the divergence lives on its pin, not
                // on any node value). Justify its remaining X inputs with
                // non-controlling values so the divergence shows at the
                // output.
                let gate = fault.node;
                if self.good[gate.index()].is_x() || self.faulty[gate.index()].is_x() {
                    let kind = self.cc.kind(gate);
                    let want = match controlling_value(kind) {
                        Some(cv) => !cv,
                        None => true,
                    };
                    for &f in self.cc.fanins(gate) {
                        if self.good[f.index()].is_x() {
                            return Some((f, want));
                        }
                    }
                }
            }
        }
        // D-frontier: a gate whose output is X but some input carries a D.
        // Only readers of D-carrying nodes (the list `status` just built)
        // qualify; among the candidates, extend the gate closest to an
        // observed node (the classic distance-to-PO guidance).
        let mut best: Option<(u32, NodeId, bool)> = None;
        for &d_node in &self.d_nodes {
            for &reader in self.cc.fanouts(d_node) {
                let i = reader.index();
                if !(self.good[i].is_x() || self.faulty[i].is_x()) {
                    continue;
                }
                let kind = self.cc.kind(reader);
                if kind == GateKind::Dff {
                    continue;
                }
                let dist = self.obs_distance[i];
                if let Some((bd, _, _)) = best {
                    if dist >= bd {
                        continue;
                    }
                }
                let mut has_d = false;
                let mut x_input = None;
                for &f in self.cc.fanins(reader) {
                    let g = self.good[f.index()];
                    if carries_d(g, self.faulty[f.index()]) {
                        has_d = true;
                    } else if g.is_x() && x_input.is_none() {
                        x_input = Some(f);
                    }
                }
                if has_d {
                    if let Some(xi) = x_input {
                        // Want the non-controlling value on the side input.
                        let want = match controlling_value(kind) {
                            Some(cv) => !cv,
                            None => true, // XOR-family: either value works
                        };
                        best = Some((dist, xi, want));
                    }
                }
            }
        }
        best.map(|(_, n, w)| (n, w))
    }

    /// Backtrace an objective to an unassigned PI, tracking inversions.
    fn backtrace(&self, mut node: NodeId, mut value: bool) -> Option<(NodeId, bool)> {
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > self.cc.num_nodes() + 8 {
                return None;
            }
            if self.assignable[node.index()] {
                if self.good[node.index()].is_x() {
                    return Some((node, value));
                }
                return None; // already assigned: objective unreachable here
            }
            let kind = self.cc.kind(node);
            let fanins = self.cc.fanins(node);
            if fanins.is_empty() {
                return None; // constant/X-source
            }
            let next_value = if inverts(kind) { !value } else { value };
            // Choose an X-valued fanin. Standard PODEM heuristic: when one
            // controlling input suffices, take the easiest (shallowest);
            // when every input must be justified, take the hardest
            // (deepest) so doomed branches fail fast.
            let one_input_suffices = match controlling_value(kind) {
                Some(cv) => {
                    // Output value achieved by a controlling input: cv for
                    // AND/OR (inverted kinds flip the output, which
                    // next_value already accounts for).
                    next_value == cv
                }
                None => false,
            };
            let candidate = match kind {
                GateKind::Mux2 => {
                    let sel = fanins[0];
                    match self.good[sel.index()] {
                        Logic::Zero => Some(fanins[1]),
                        Logic::One => Some(fanins[2]),
                        Logic::X => Some(sel),
                    }
                }
                _ => {
                    let xs = fanins.iter().copied().filter(|f| self.good[f.index()].is_x());
                    if one_input_suffices {
                        xs.min_by_key(|f| self.cc.level(*f))
                    } else {
                        xs.max_by_key(|f| self.cc.level(*f))
                    }
                }
            };
            let next = candidate?;
            // Through a MUX select we aim for 0 (choose input a).
            value = if kind == GateKind::Mux2 && next == fanins[0] {
                false
            } else if kind == GateKind::Mux2 {
                value
            } else {
                next_value
            };
            node = next;
        }
    }
}

/// A `(good, faulty)` pair carries a fault effect (`D` or `D̄`).
fn carries_d(good: Logic, faulty: Logic) -> bool {
    !good.is_x() && !faulty.is_x() && good != faulty
}

#[derive(Debug, PartialEq, Eq)]
enum Status {
    Detected,
    Conflict,
    Undecided,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_fault::FaultKind;
    use lbist_netlist::{DomainId, Netlist};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn observed(cc: &CompiledCircuit) -> Vec<NodeId> {
        lbist_fault::StuckAtSim::observe_all_captures(cc)
    }

    /// Validate a cube by fault simulation.
    fn cube_detects(cc: &CompiledCircuit, fault: &Fault, cube: &TestCube) -> bool {
        let mut rng = SmallRng::seed_from_u64(9);
        // Try several fills; every fill of a correct cube must detect.
        (0..4).all(|_| {
            let p = cube.fill(cc, &mut rng);
            let mut frame = cc.new_frame();
            p.load_into_lane(cc, &mut frame, 0);
            let mut sim = lbist_fault::StuckAtSim::new(cc, vec![*fault], observed(cc));
            sim.run_batch(&mut frame, 1);
            sim.detections()[0] > 0
        })
    }

    #[test]
    fn generates_tests_for_every_fault_of_a_cone() {
        let mut nl = Netlist::new("cone");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::And, &[a, b]);
        let g2 = nl.add_gate(GateKind::Or, &[g1, c]);
        let g3 = nl.add_gate(GateKind::Xor, &[g2, a]);
        nl.add_output("y", g3);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = lbist_fault::FaultUniverse::stuck_at(&nl);
        for fault in universe.representatives() {
            let mut podem = Podem::new(&cc, observed(&cc));
            match podem.generate(&fault) {
                AtpgOutcome::Test(cube) => {
                    assert!(cube_detects(&cc, &fault, &cube), "cube fails for {fault}");
                }
                other => panic!("{fault}: expected test, got {other:?}"),
            }
        }
    }

    #[test]
    fn proves_untestable_redundant_fault() {
        // y = OR(a, NOT(a)) is constant 1: y/SA1 is undetectable.
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Not, &[a]);
        let y = nl.add_gate(GateKind::Or, &[a, na]);
        nl.add_output("o", y);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut podem = Podem::new(&cc, observed(&cc));
        let outcome = podem.generate(&Fault::stem(y, FaultKind::StuckAt1));
        assert_eq!(outcome, AtpgOutcome::Untestable);
    }

    #[test]
    fn detects_through_pseudo_outputs() {
        // The only observation is a flip-flop D pin.
        let mut nl = Netlist::new("ff");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Nand, &[a, b]);
        let _ff = nl.add_dff(g, DomainId::new(0));
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut podem = Podem::new(&cc, observed(&cc));
        let fault = Fault::stem(g, FaultKind::StuckAt0);
        match podem.generate(&fault) {
            AtpgOutcome::Test(cube) => assert!(cube_detects(&cc, &fault, &cube)),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn hard_random_fault_is_found_deterministically() {
        // 12-input AND: random patterns almost never excite SA0 at the
        // output; PODEM must find the all-ones cube immediately.
        let mut nl = Netlist::new("wide");
        let ins: Vec<NodeId> = (0..12).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let g = nl.add_gate(GateKind::And, &ins);
        nl.add_output("y", g);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut podem = Podem::new(&cc, observed(&cc));
        match podem.generate(&Fault::stem(g, FaultKind::StuckAt0)) {
            AtpgOutcome::Test(cube) => {
                for &i in &ins {
                    assert_eq!(cube.value_of(i), Some(true));
                }
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn branch_faults_get_tests() {
        let mut nl = Netlist::new("br");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::Xor, &[a, b]);
        let g2 = nl.add_gate(GateKind::Xor, &[a, g1]);
        nl.add_output("y1", g1);
        nl.add_output("y2", g2);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let fault = Fault::branch(g2, 0, FaultKind::StuckAt1);
        let mut podem = Podem::new(&cc, observed(&cc));
        match podem.generate(&fault) {
            AtpgOutcome::Test(cube) => assert!(cube_detects(&cc, &fault, &cube)),
            other => panic!("expected test, got {other:?}"),
        }
    }
}
