//! The static analyses against their textbook definitions, on random
//! inputs drawn from fixed seeds:
//!
//! - the Cooper–Harvey–Kennedy dominators, immediate dominators and
//!   dominance frontiers against naive definitional algorithms on random
//!   digraphs;
//! - control dependence against its definition on structured programs;
//! - the converged [`Liveness`] and [`ReachingDefs`] solutions against
//!   their per-block equations on random assembly programs (straight-line
//!   and arbitrarily branchy, including irreducible loops), and solving
//!   against itself for determinism.
//!
//! The per-block recomputation here is an independent reimplementation of
//! the gen/kill transfer from the public `Instr::def`/`Instr::uses`
//! surface, so a solver bug and a test bug would have to coincide exactly
//! to slip through.

mod common;

use std::collections::BTreeSet;

use clfp::cfg::dom::{Digraph, DomTree};
use clfp::cfg::{BlockId, Cfg, ControlDeps, DefSite, Liveness, ReachingDefs};
use clfp::isa::{assemble, Program, Reg};
use common::{check_cases, Rng};

/// Random digraphs for the dominance test.
const GRAPH_CASES: usize = 200;

/// Random assembly programs for the dataflow test.
const PROGRAM_CASES: usize = 256;

/// Runs a digraph property on the stored failure case of the retired
/// property suite (a root with a self-loop), then on random digraphs of
/// 2 to 11 nodes: a chain from the root plus up to `3n` random edges.
fn check_digraphs(seed: u64, check: impl Fn(&Digraph) -> Result<(), String>) {
    let mut stored = Digraph::new(2);
    stored.add_edge(0, 1);
    stored.add_edge(0, 0);
    check(&stored).unwrap();
    let random = |rng: &mut Rng| {
        let n = 2 + rng.below(10);
        let mut graph = Digraph::new(n);
        for i in 1..n {
            graph.add_edge(i - 1, i);
        }
        for _ in 0..rng.below(n * 3) {
            graph.add_edge(rng.below(n), rng.below(n));
        }
        graph
    };
    check_cases(seed, GRAPH_CASES, random, check);
}

/// Whether `to` is reachable from node 0 without passing through
/// `removed`.
fn reachable_without(graph: &Digraph, to: usize, removed: Option<usize>) -> bool {
    let mut visited = vec![false; graph.len()];
    let mut stack = vec![0];
    while let Some(node) = stack.pop() {
        if Some(node) == removed || std::mem::replace(&mut visited[node], true) {
            continue;
        }
        stack.extend(graph.succs(node));
    }
    visited[to]
}

/// Naive dominance: `a` dominates a reachable `b` iff `a == b` or
/// removing `a` makes `b` unreachable from the root.
fn naive_dominates(graph: &Digraph, a: usize, b: usize) -> bool {
    a == b || !reachable_without(graph, b, Some(a))
}

/// The fast dominator tree against the naive definitions, over the nodes
/// reachable from the root: `is_reachable` and `dominates` agree with the
/// naive ones; every reachable non-root node's idom strictly dominates
/// it and is dominated by every other strict dominator, and unreachable
/// nodes have none; and `DF(n) = { f : n dominates a pred of f, n does
/// not strictly dominate f }`.
#[test]
fn dominance_matches_naive_definitions() {
    check_digraphs(0x1992_0519_0000_0010, |graph| {
        let dom = DomTree::compute(graph, 0);
        let nodes = 0..graph.len();
        let reached = |n: usize| reachable_without(graph, n, None);
        let reachable: Vec<usize> = nodes.clone().filter(|&n| reached(n)).collect();
        for b in nodes.clone() {
            if dom.is_reachable(b) != reached(b) {
                return Err(format!("is_reachable({b}) is {}", !reached(b)));
            }
        }
        for &b in &reachable {
            for a in nodes.clone() {
                let fast = dom.dominates(a, b);
                if fast != naive_dominates(graph, a, b) {
                    return Err(format!("dominates({a}, {b}) is {fast}, naively {}", !fast));
                }
            }
        }
        for node in 1..graph.len() {
            let closest = |idom: usize| {
                idom != node
                    && naive_dominates(graph, idom, node)
                    && nodes.clone().all(|other| {
                        [node, idom].contains(&other)
                            || !naive_dominates(graph, other, node)
                            || naive_dominates(graph, other, idom)
                    })
            };
            let idom = dom.idom(node);
            if reached(node) != idom.is_some() || idom.is_some_and(|i| !closest(i)) {
                return Err(format!("node {node} has idom {idom:?}"));
            }
        }
        let frontier = dom.dominance_frontier(graph);
        for &n in &reachable {
            for &f in &reachable {
                let dominates_a_pred = graph
                    .preds(f)
                    .iter()
                    .any(|&p| reached(p) && dom.dominates(n, p));
                let expected = dominates_a_pred && !(n != f && dom.dominates(n, f));
                if frontier[n].contains(&f) != expected {
                    return Err(format!("DF({n}) membership of {f} should be {expected}"));
                }
            }
        }
        Ok(())
    });
}

/// Control dependence on a structured program must match the textbook
/// definition: block B is control dependent on branch block A iff A has a
/// successor S such that B postdominates S (reflexively) but B does not
/// strictly postdominate A.
#[test]
fn control_dependence_matches_definition_on_programs() {
    let sources = [
        // Diamond in a loop, with break.
        "
        .text
        main: li r8, 4
        loop: beq r9, r0, odd
              addi r10, r10, 1
              j join
        odd:  addi r11, r11, 1
        join: addi r8, r8, -1
              bgt r8, r0, loop
              halt
        ",
        // Nested conditionals with early return shape.
        "
        .text
        main: bgt r8, r0, a
              halt
        a:    bgt r9, r0, b
              j c
        b:    addi r10, r10, 1
        c:    bgt r10, r0, d
              nop
        d:    halt
        ",
    ];
    for source in sources {
        let program = assemble(source).unwrap();
        let cfg = Cfg::build(&program);
        let deps = ControlDeps::compute(&cfg);
        assert!(deps.check(&cfg, &program.text));

        // The forward graph over blocks plus a virtual exit.
        let blocks = cfg.blocks();
        let exit = blocks.len();
        let mut graph = Digraph::new(exit + 1);
        for (bi, block) in blocks.iter().enumerate() {
            if block.succs.is_empty() {
                graph.add_edge(bi, exit);
            }
            for succ in &block.succs {
                graph.add_edge(bi, succ.index());
            }
        }
        let pdom = DomTree::compute(&graph.reversed(), exit);

        for b in 0..exit {
            // Only two-way branches are control-dependence sources.
            for a in (0..exit).filter(|&a| blocks[a].succs.len() == 2) {
                let expected = blocks[a].succs.iter().any(|s| pdom.dominates(b, s.index()))
                    && !(b != a && pdom.dominates(b, a));
                let branch_pc = blocks[a].terminator();
                let actual = deps.rdf_branches(BlockId(b as u32)).contains(&branch_pc);
                assert_eq!(
                    actual, expected,
                    "block {b} control-dependence on branch block {a} mismatch in:\n{source}"
                );
            }
        }
    }
}

/// A small register pool keeps collisions (kills) frequent.
const POOL: [u8; 5] = [8, 9, 10, 11, 12];

/// Runs a dataflow property on random assembly programs: 1 to 23 labelled
/// instructions and a final `halt` — `add` and `addi` over the pool, and
/// `beq` to any label, forward or backward, so the CFGs are arbitrary,
/// even irreducible.
fn check_asm(seed: u64, check: impl Fn(&Program, &Cfg) -> Result<(), String>) {
    let random = |rng: &mut Rng| {
        let lines = 1 + rng.below(23);
        let mut out = String::from(".text\nmain:\n");
        for i in 0..lines {
            let (d, s, t) = (rng.pick(&POOL), rng.pick(&POOL), rng.pick(&POOL));
            out.push_str(&match rng.below(8) {
                0..=2 => format!("L{i}:\n    add r{d}, r{s}, r{t}\n"),
                3..=5 => format!("L{i}:\n    addi r{d}, r{s}, {}\n", rng.range(-8, 8)),
                _ => format!("L{i}:\n    beq r{s}, r{t}, L{}\n", rng.below(lines + 1)),
            });
        }
        out + &format!("L{lines}:\n    halt\n")
    };
    check_cases(seed, PROGRAM_CASES, random, |source| {
        let program = assemble(source).map_err(|err| format!("generated assembly: {err}"))?;
        check(&program, &Cfg::build(&program))
    });
}

/// The converged [`Liveness`] and [`ReachingDefs`] solutions satisfy
/// their per-block equations, recomputed here by independent walks over
/// `Instr::def`/`Instr::uses`: backward `live_in = gen ∪ (live_out \
/// kill)` and forward `reach_out = gen ∪ (reach_in \ kill)`. Every
/// reaching definition is a real definition site, and solving is
/// deterministic.
#[test]
fn dataflow_solutions_satisfy_block_equations() {
    check_asm(0x1992_0519_0000_0020, |program, cfg| {
        let live = Liveness::compute(program, cfg);
        let reach = ReachingDefs::compute(program, cfg);
        let again = ReachingDefs::compute(program, cfg);
        let sites: BTreeSet<DefSite> = reach.sites().iter().copied().collect();
        for (index, block) in cfg.blocks().iter().enumerate() {
            let id = BlockId(index as u32);
            let text = &program.text[block.start as usize..block.end as usize];
            let mut live_in: BTreeSet<Reg> = live.live_out(id).collect();
            for instr in text.iter().rev() {
                if let Some(def) = instr.def() {
                    live_in.remove(&def);
                }
                live_in.extend(instr.uses());
            }
            let mut reach_out: BTreeSet<DefSite> = reach.reaching_in(id).collect();
            for (pc, instr) in (block.start..).zip(text) {
                if let Some(reg) = instr.def() {
                    reach_out.retain(|site| site.reg != reg);
                    reach_out.insert(DefSite { pc, reg });
                }
            }
            let want = (live_in, reach_out);
            let got = (live.live_in(id).collect(), reach.reaching_out(id).collect());
            if got != want {
                return Err(format!(
                    "b{index}: (live_in, reach_out) {got:?}, want {want:?}"
                ));
            }
            for site in reach.reaching_in(id) {
                if !sites.contains(&site) || program.text[site.pc as usize].def() != Some(site.reg)
                {
                    return Err(format!("b{index}: {site:?} is not a definition"));
                }
            }
            if !reach.reaching_in(id).eq(again.reaching_in(id)) {
                return Err(format!("b{index}: a second solve differs"));
            }
        }
        Ok(())
    });
}
