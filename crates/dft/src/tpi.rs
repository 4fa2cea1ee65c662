//! Observation-point insertion (the paper's test points).
//!
//! The paper inserts **observation points only** — control points would add
//! gates into functional paths and violate the IP core's timing contract
//! (§1 problem 2, §2.1). What distinguishes the scheme from earlier logic
//! BIST is *how* the points are chosen: "based on the results of fault
//! simulation, instead of observability calculation" (§2.1).
//!
//! [`TestPointInsertion::fault_sim_guided`] implements that: grade the
//! random-pattern phase, take the faults that survived, propagate each one
//! and record every net its effect reaches but dies at; then greedily pick
//! the nets covering the most surviving faults. The COP baseline
//! ([`TestPointInsertion::cop_guided`]) ranks nets by calculated
//! observability instead.

use crate::cop::CopMeasures;
use lbist_netlist::{DomainId, Fanouts, GateKind, Netlist, NodeId};
use lbist_sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Minimum surviving faults per worker shard when profiling fault
/// propagation on the pool (per-fault event-driven propagation is
/// moderately heavy).
const MIN_SHARD_FAULTS: usize = 16;

/// Minimum candidate sites per worker shard when scoring the greedy
/// cover (a gain count is cheap, so shards must be wide to pay off).
const MIN_SHARD_CANDIDATES: usize = 64;

/// A selected observation-point plan: which nets to tap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestPointInsertion {
    /// Nets to observe, in selection order (best first).
    pub sites: Vec<NodeId>,
    /// Number of undetected faults whose effects reach at least one chosen
    /// site (only meaningful for the fault-sim-guided method; zero for
    /// COP).
    pub covered_faults: usize,
}

impl TestPointInsertion {
    /// Fault-simulation-guided selection (the paper's method).
    ///
    /// `undetected` are the representative faults that survived the random
    /// phase; `sample_batches` 64-pattern random batches are used to build
    /// each fault's propagation profile. Greedy set cover then picks up to
    /// `budget` sites.
    ///
    /// Both expensive stages run on the `lbist-exec` pool: per-batch
    /// fault propagation is sharded over the survivors (each fault's
    /// reach profile is owned by one worker), and each greedy round
    /// scores the candidate sites in parallel chunks reduced under a
    /// total order (max gain, then lowest node id) — so the selection
    /// is bit-identical at any worker count.
    ///
    /// Sites already observed (D pins, PO nets) are never selected — an
    /// observation point there would be redundant.
    pub fn fault_sim_guided(
        cc: &CompiledCircuit,
        undetected: &[lbist_fault::Fault],
        budget: usize,
        sample_batches: usize,
        seed: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let already = already_observed(cc);

        // fault -> set of candidate nodes its effect reaches.
        let mut reach: Vec<Vec<u32>> = vec![Vec::new(); undetected.len()];
        let mut frame = cc.new_frame();
        for _ in 0..sample_batches {
            for &pi in cc.inputs() {
                frame[pi.index()] = rng.gen();
            }
            for &ff in cc.dffs() {
                frame[ff.index()] = rng.gen();
            }
            for &x in cc.xsources() {
                frame[x.index()] = 0;
            }
            cc.eval2(&mut frame);
            let workers = lbist_exec::worker_budget(
                lbist_exec::current_num_threads(),
                undetected.len(),
                Some(MIN_SHARD_FAULTS),
            );
            let frame_ro: &[u64] = &frame;
            let mut no_scratch: Vec<()> = Vec::new();
            lbist_exec::parallel_chunks_with_scratch(
                undetected,
                &mut reach,
                workers,
                &mut no_scratch,
                || (),
                |faults, out, ()| {
                    for (fault, r) in faults.iter().zip(out.iter_mut()) {
                        lbist_fault::propagate_fault(cc, fault, frame_ro, |node, _diff| {
                            if !already[node.index()] && cc.kind(node) != GateKind::Output {
                                r.push(node.as_u32());
                            }
                        });
                    }
                },
            );
        }
        for r in &mut reach {
            r.sort_unstable();
            r.dedup();
        }

        // Invert to candidate -> fault indices, node-sorted so chunk
        // order (and thus the tie-break) is deterministic.
        let mut by_node: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for (fi, r) in reach.iter().enumerate() {
            for &node in r {
                by_node.entry(node).or_default().push(fi as u32);
            }
        }
        let mut cand: Vec<(u32, Vec<u32>)> = by_node.into_iter().collect();
        cand.sort_unstable_by_key(|&(node, _)| node);

        // Greedy cover with lazy re-evaluation; every round scores the
        // remaining candidates in parallel chunks.
        let mut covered = vec![false; undetected.len()];
        let mut sites = Vec::new();
        let mut covered_faults = 0usize;
        for _ in 0..budget {
            let Some((gain, node)) = best_candidate(&cand, &covered) else { break };
            sites.push(NodeId::from_index(node as usize));
            covered_faults += gain;
            let pos = cand.binary_search_by_key(&node, |&(n, _)| n).expect("chosen site exists");
            for &f in &cand[pos].1 {
                covered[f as usize] = true;
            }
            cand.remove(pos);
        }
        TestPointInsertion { sites, covered_faults }
    }

    /// COP-guided baseline: pick the `budget` hardest-to-observe nets
    /// (lowest calculated observability, tie-broken toward balanced
    /// controllability), skipping already-observed nets.
    pub fn cop_guided(netlist: &Netlist, budget: usize) -> Self {
        let cop = CopMeasures::compute(netlist);
        let cc = CompiledCircuit::compile(netlist).expect("validated netlist");
        let already = already_observed(&cc);
        let mut scored: Vec<(f64, NodeId)> = netlist
            .ids()
            .filter(|&id| {
                let k = netlist.kind(id);
                k.is_logic() && k != GateKind::Dff && !already[id.index()]
            })
            .map(|id| {
                // Low observability is bad; weight by how often the net
                // actually toggles (observing a constant net is useless).
                let toggle = cop.c1(id) * cop.c0(id);
                (cop.observability(id) - toggle * 1e-3, id)
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        TestPointInsertion {
            sites: scored.into_iter().take(budget).map(|(_, id)| id).collect(),
            covered_faults: 0,
        }
    }
}

/// The site with the highest uncovered-fault gain (ties broken toward
/// the lowest node id). Gains are scored per candidate in parallel
/// chunks on the pool and reduced serially under that total order —
/// worker count cannot change the winner. Returns `None` when no site
/// covers anything new.
fn best_candidate(cand: &[(u32, Vec<u32>)], covered: &[bool]) -> Option<(usize, u32)> {
    let workers = lbist_exec::worker_budget(
        lbist_exec::current_num_threads(),
        cand.len(),
        Some(MIN_SHARD_CANDIDATES),
    );
    let mut gains = vec![0usize; cand.len()];
    let mut no_scratch: Vec<()> = Vec::new();
    lbist_exec::parallel_chunks_with_scratch(
        cand,
        &mut gains,
        workers,
        &mut no_scratch,
        || (),
        |entries, out, ()| {
            for ((_, faults), gain) in entries.iter().zip(out.iter_mut()) {
                *gain = faults.iter().filter(|&&f| !covered[f as usize]).count();
            }
        },
    );
    let mut best: Option<(usize, u32)> = None;
    for (&(node, _), &gain) in cand.iter().zip(&gains) {
        if gain == 0 {
            continue;
        }
        best = match best {
            Some((bg, bn)) if gain < bg || (gain == bg && node >= bn) => Some((bg, bn)),
            _ => Some((gain, node)),
        };
    }
    best
}

fn already_observed(cc: &CompiledCircuit) -> Vec<bool> {
    let mut v = vec![false; cc.num_nodes()];
    for &ff in cc.dffs() {
        v[cc.fanins(ff)[0].index()] = true;
    }
    for &po in cc.outputs() {
        v[po.index()] = true;
        v[cc.fanins(po)[0].index()] = true;
    }
    v
}

/// Materialises an observation-point plan: adds one scan cell (flip-flop)
/// per site, clocked by the dominant domain of the site's fanout cone
/// (falling back to domain 0). Returns the new cells, parallel to
/// `sites`.
///
/// Observation points are pure taps — no gate is inserted into any
/// functional path, honouring the paper's no-control-point rule.
pub fn insert_observation_points(netlist: &mut Netlist, sites: &[NodeId]) -> Vec<NodeId> {
    let fanouts = Fanouts::compute(netlist);
    let mut cells = Vec::with_capacity(sites.len());
    for &site in sites {
        let domain = fanouts
            .readers(site)
            .iter()
            .find_map(|&r| netlist.domain(r))
            .unwrap_or(DomainId::new(0));
        let cell = netlist.add_dff(site, domain);
        cells.push(cell);
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_fault::{Fault, FaultKind, FaultUniverse, StuckAtSim};
    use lbist_netlist::{Netlist, NetlistStats};

    /// A circuit with a deliberately unobservable cone: an XOR tree whose
    /// only path to the output runs through an AND gated by a 12-input AND
    /// mask — sensitized by one random pattern in 4096, so a few hundred
    /// random patterns essentially never observe the cone.
    fn shadowed() -> (Netlist, NodeId) {
        let mut nl = Netlist::new("shadow");
        let ins: Vec<NodeId> = (0..16).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let x1 = nl.add_gate(GateKind::Xor, &[ins[0], ins[1]]);
        let x2 = nl.add_gate(GateKind::Xor, &[x1, ins[2]]);
        let hidden = nl.add_gate(GateKind::Xor, &[x2, ins[3]]);
        let mask = nl.add_gate(GateKind::And, &ins[4..16]);
        let out = nl.add_gate(GateKind::And, &[hidden, mask]);
        nl.add_output("y", out);
        (nl, hidden)
    }

    #[test]
    fn fault_sim_guided_finds_the_shadowed_cone() {
        let (nl, hidden) = shadowed();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let mut sim =
            StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
        // A few random batches: the masked cone stays undetected.
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..4 {
            let mut frame = cc.new_frame();
            for &pi in cc.inputs() {
                frame[pi.index()] = rng.gen();
            }
            sim.run_batch(&mut frame, 64);
        }
        let undetected = sim.undetected();
        assert!(!undetected.is_empty(), "the shadowed cone must resist random patterns");

        let plan = TestPointInsertion::fault_sim_guided(&cc, &undetected, 2, 4, 99);
        assert!(!plan.sites.is_empty());
        assert!(plan.covered_faults > 0);
        // The chosen site must lie in the shadowed cone (hidden or its
        // XOR ancestors), where the undetected effects die.
        let cone = [hidden];
        assert!(
            plan.sites.iter().any(|s| cone.contains(s))
                || plan.covered_faults >= undetected.len() / 2,
            "selection missed the shadowed cone: {:?}",
            plan.sites
        );
    }

    #[test]
    fn observation_points_lift_coverage() {
        let (nl, _) = shadowed();
        let run = |obs_budget: usize| -> f64 {
            let mut nl = nl.clone();
            let cc = CompiledCircuit::compile(&nl).unwrap();
            let universe = FaultUniverse::stuck_at(&nl);
            // Select sites on the pristine circuit.
            let mut sim = StuckAtSim::new(
                &cc,
                universe.representatives(),
                StuckAtSim::observe_all_captures(&cc),
            );
            let mut rng = SmallRng::seed_from_u64(5);
            let mut batches: Vec<Vec<u64>> = Vec::new();
            for _ in 0..4 {
                let mut frame = cc.new_frame();
                for &pi in cc.inputs() {
                    frame[pi.index()] = rng.gen();
                }
                batches.push(frame.clone());
                sim.run_batch(&mut frame, 64);
            }
            let plan =
                TestPointInsertion::fault_sim_guided(&cc, &sim.undetected(), obs_budget, 4, 7);
            insert_observation_points(&mut nl, &plan.sites);
            // Re-grade the same patterns on the instrumented core.
            let cc2 = CompiledCircuit::compile(&nl).unwrap();
            let u2 = FaultUniverse::stuck_at(&nl);
            let mut sim2 =
                StuckAtSim::new(&cc2, u2.representatives(), StuckAtSim::observe_all_captures(&cc2));
            for base in &batches {
                let mut frame = cc2.new_frame();
                frame[..base.len()].copy_from_slice(base);
                sim2.run_batch(&mut frame, 64);
            }
            sim2.coverage().fault_coverage()
        };
        let without = run(0);
        let with = run(3);
        assert!(
            with > without,
            "observation points must raise coverage: {without:.3} -> {with:.3}"
        );
    }

    #[test]
    fn cop_guided_prefers_low_observability() {
        let (nl, hidden) = shadowed();
        let plan = TestPointInsertion::cop_guided(&nl, 3);
        assert_eq!(plan.sites.len(), 3);
        let cop = CopMeasures::compute(&nl);
        // Every selected site is harder to observe than the PO driver.
        let po_src = nl.fanins(nl.outputs()[0])[0];
        for &s in &plan.sites {
            assert!(cop.observability(s) <= cop.observability(po_src));
        }
        // The shadowed XOR cone should rank among them.
        assert!(
            plan.sites.contains(&hidden) || plan.sites.iter().any(|&s| cop.observability(s) < 0.1)
        );
    }

    #[test]
    fn already_observed_nets_never_selected() {
        let (nl, _) = shadowed();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let po_src = nl.fanins(nl.outputs()[0])[0];
        let fake_faults = vec![Fault::stem(nl.inputs()[0], FaultKind::StuckAt0)];
        let plan = TestPointInsertion::fault_sim_guided(&cc, &fake_faults, 10, 2, 3);
        assert!(!plan.sites.contains(&po_src));
        let cop_plan = TestPointInsertion::cop_guided(&nl, 100);
        assert!(!cop_plan.sites.contains(&po_src));
    }

    #[test]
    fn inserted_cells_are_pure_taps() {
        let (mut nl, hidden) = shadowed();
        let before_readers = {
            let fo = Fanouts::compute(&nl);
            fo.readers(hidden).to_vec()
        };
        let cells = insert_observation_points(&mut nl, &[hidden]);
        assert_eq!(cells.len(), 1);
        let fo = Fanouts::compute(&nl);
        let after: Vec<NodeId> =
            fo.readers(hidden).iter().copied().filter(|&r| r != cells[0]).collect();
        assert_eq!(after, before_readers, "functional fanout must be untouched");
        assert_eq!(nl.fanins(cells[0]), &[hidden]);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn observation_points_add_no_functional_depth() {
        let (mut nl, hidden) = shadowed();
        let depth_before = NetlistStats::compute(&nl).depth;
        insert_observation_points(&mut nl, &[hidden]);
        assert_eq!(
            NetlistStats::compute(&nl).depth,
            depth_before,
            "observation points add no functional depth — the paper's point"
        );
    }
}
