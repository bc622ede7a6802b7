//! The decoder-module micro-architecture (Figure 9) in ERSFQ hardware.
//!
//! Each mesh module contains five sub-circuits — grow, pair-request,
//! pair-grant, pair and reset — built from the ERSFQ cell library of
//! Table II.  This module constructs the gate-level netlists for each
//! sub-circuit, path-balances and characterises them with the synthesis flow
//! of `nisqplus-sfq`, and scales the single-module figures up to full decoder
//! meshes (Table III and the Section VIII refrigerator-budget analysis).
//!
//! The exact gate counts of the paper's circuits are not public; the netlists
//! here implement the documented behaviour of each sub-circuit, so the
//! resulting area / power / latency are of the same order as Table III rather
//! than identical to it.  The `table3_synthesis` binary prints both side by side.

use nisqplus_sfq::cell::CellLibrary;
use nisqplus_sfq::netlist::{NetId, Netlist, NetlistBuilder};
use nisqplus_sfq::report::{
    max_mesh_side, CircuitCharacterization, MeshReport, RefrigeratorBudget,
};
use nisqplus_sfq::synth::{synthesize, SynthesisReport};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The sub-circuits of one decoder module (Figure 9) plus the full module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleSubcircuit {
    /// Propagates grow pulses and emits them for hot-syndrome modules.
    Grow,
    /// Generates and forwards pair-request pulses at intermediate modules.
    PairRequest,
    /// Grants one pair request at hot-syndrome modules and forwards grants.
    PairGrant,
    /// Emits and forwards pair pulses; raises the global reset when a pair
    /// reaches a hot module.
    Pair,
    /// Stretches the global reset pulse over the pipeline depth.
    Reset,
    /// The combined pair-request + grow block reported in Table III.
    PairRequestGrow,
    /// The complete decoder module.
    FullModule,
}

impl ModuleSubcircuit {
    /// All sub-circuits, in Table III order.
    pub const ALL: [ModuleSubcircuit; 7] = [
        ModuleSubcircuit::Grow,
        ModuleSubcircuit::PairRequest,
        ModuleSubcircuit::PairGrant,
        ModuleSubcircuit::Pair,
        ModuleSubcircuit::Reset,
        ModuleSubcircuit::PairRequestGrow,
        ModuleSubcircuit::FullModule,
    ];
}

impl fmt::Display for ModuleSubcircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ModuleSubcircuit::Grow => "Grow Subcircuit",
            ModuleSubcircuit::PairRequest => "Pair Req. Subcircuit",
            ModuleSubcircuit::PairGrant => "Pair Grant Subcircuit",
            ModuleSubcircuit::Pair => "Pair Subcircuit",
            ModuleSubcircuit::Reset => "Reset Subcircuit",
            ModuleSubcircuit::PairRequestGrow => "Pair Req./Grow Subcircuit",
            ModuleSubcircuit::FullModule => "Full Circuit",
        };
        write!(f, "{name}")
    }
}

const DIRECTIONS: [&str; 4] = ["up", "down", "left", "right"];

fn opposite(dir: usize) -> usize {
    match dir {
        0 => 1,
        1 => 0,
        2 => 3,
        _ => 2,
    }
}

/// Nets shared by the sub-circuits of one module.
struct ModuleInputs {
    hot: NetId,
    block: NetId,
    grow_in: [NetId; 4],
    pair_req_in: [NetId; 4],
    pair_grant_in: [NetId; 4],
    pair_in: [NetId; 4],
}

fn declare_inputs(b: &mut NetlistBuilder, which: ModuleSubcircuit) -> ModuleInputs {
    let hot = b.input("hot_syndrome");
    let block = b.input("block");
    let mut named = |prefix: &str| -> [NetId; 4] {
        [0, 1, 2, 3].map(|d| b.input(format!("{prefix}_{}", DIRECTIONS[d])))
    };
    use ModuleSubcircuit as S;
    let grow_in = match which {
        S::Grow | S::PairRequest | S::PairRequestGrow | S::FullModule => named("grow_in"),
        _ => [hot; 4],
    };
    let pair_req_in = match which {
        S::PairRequest | S::PairGrant | S::PairRequestGrow | S::FullModule => named("pair_req_in"),
        _ => [hot; 4],
    };
    let pair_grant_in = match which {
        S::PairGrant | S::Pair | S::FullModule => named("pair_grant_in"),
        _ => [hot; 4],
    };
    let pair_in = match which {
        S::Pair | S::FullModule => named("pair_in"),
        _ => [hot; 4],
    };
    ModuleInputs {
        hot,
        block,
        grow_in,
        pair_req_in,
        pair_grant_in,
        pair_in,
    }
}

/// Grow logic: `grow_out[d] = (hot OR grow_in[opposite(d)]) AND NOT block`.
fn add_grow_logic(b: &mut NetlistBuilder, io: &ModuleInputs) -> [NetId; 4] {
    let not_block = b.not(io.block);
    [0, 1, 2, 3].map(|d| {
        let pass = b.or2(io.hot, io.grow_in[opposite(d)]);
        b.and2(pass, not_block)
    })
}

/// Pair-request logic: a module that sees grow pulses from two directions
/// sends requests back along them; requests passing through non-hot modules
/// continue straight.
fn add_pair_request_logic(b: &mut NetlistBuilder, io: &ModuleInputs) -> [NetId; 4] {
    let not_block = b.not(io.block);
    let not_hot = b.not(io.hot);
    [0, 1, 2, 3].map(|d| {
        // Intersection component for this output direction: a grow pulse came
        // from `d` and at least one other direction.
        let others: Vec<NetId> = (0..4).filter(|&o| o != d).map(|o| io.grow_in[o]).collect();
        let any_other = b.or_tree(&others);
        let intersect = b.and2(io.grow_in[d], any_other);
        // Pass-through component: forward a request travelling through us
        // unless we are a hot module (which answers with a grant instead).
        let incoming = io.pair_req_in[opposite(d)];
        let pass = b.and2(incoming, not_hot);
        let combined = b.or2(intersect, pass);
        b.and2(combined, not_block)
    })
}

/// Pair-grant logic: a hot module grants the highest-priority incoming
/// request; non-hot modules forward grants straight through.
fn add_pair_grant_logic(b: &mut NetlistBuilder, io: &ModuleInputs) -> [NetId; 4] {
    let not_block = b.not(io.block);
    let not_hot = b.not(io.hot);
    // Priority chain: direction d is granted only if no lower-indexed
    // direction is also requesting.
    let mut higher_pending: Option<NetId> = None;
    let mut grant_terms: Vec<NetId> = Vec::with_capacity(4);
    for d in 0..4 {
        let req = io.pair_req_in[d];
        let eligible = match higher_pending {
            Some(p) => {
                let not_p = b.not(p);
                b.and2(req, not_p)
            }
            None => req,
        };
        let grant = b.and2(eligible, io.hot);
        grant_terms.push(grant);
        higher_pending = Some(match higher_pending {
            Some(p) => b.or2(p, req),
            None => req,
        });
    }
    [0, 1, 2, 3].map(|d| {
        let pass = b.and2(io.pair_grant_in[opposite(d)], not_hot);
        let combined = b.or2(grant_terms[d], pass);
        b.and2(combined, not_block)
    })
}

/// Pair logic: two grants meeting produce pair pulses; pair pulses pass
/// through non-hot modules and raise the global reset at hot modules.
/// Returns the four pair outputs plus the reset-request output.
fn add_pair_logic(b: &mut NetlistBuilder, io: &ModuleInputs) -> ([NetId; 4], NetId) {
    let not_hot = b.not(io.hot);
    let outs = [0, 1, 2, 3].map(|d| {
        let others: Vec<NetId> = (0..4)
            .filter(|&o| o != d)
            .map(|o| io.pair_grant_in[o])
            .collect();
        let any_other = b.or_tree(&others);
        let meet = b.and2(io.pair_grant_in[d], any_other);
        let pass = b.and2(io.pair_in[opposite(d)], not_hot);
        b.or2(meet, pass)
    });
    let any_pair = b.or_tree(&io.pair_in);
    let reset_request = b.and2(any_pair, io.hot);
    (outs, reset_request)
}

/// Reset logic: stretch the global reset pulse over `depth` cycles using a
/// chain of DRO DFF buffers, and OR everything into the block signal.
fn add_reset_logic(b: &mut NetlistBuilder, reset_in: NetId, depth: usize) -> NetId {
    let mut taps = vec![reset_in];
    let mut stage = reset_in;
    for _ in 0..depth {
        stage = b.dff(stage);
        taps.push(stage);
    }
    b.or_tree(&taps)
}

/// Builds the netlist of one sub-circuit (or of the whole module).
#[must_use]
pub fn build_subcircuit(which: ModuleSubcircuit) -> Netlist {
    let mut b = NetlistBuilder::new(which.to_string());
    match which {
        ModuleSubcircuit::Grow => {
            let io = declare_inputs(&mut b, which);
            let outs = add_grow_logic(&mut b, &io);
            for (d, net) in outs.into_iter().enumerate() {
                b.output(format!("grow_out_{}", DIRECTIONS[d]), net);
            }
        }
        ModuleSubcircuit::PairRequest => {
            let io = declare_inputs(&mut b, which);
            let outs = add_pair_request_logic(&mut b, &io);
            for (d, net) in outs.into_iter().enumerate() {
                b.output(format!("pair_req_out_{}", DIRECTIONS[d]), net);
            }
        }
        ModuleSubcircuit::PairGrant => {
            let io = declare_inputs(&mut b, which);
            let outs = add_pair_grant_logic(&mut b, &io);
            for (d, net) in outs.into_iter().enumerate() {
                b.output(format!("pair_grant_out_{}", DIRECTIONS[d]), net);
            }
        }
        ModuleSubcircuit::Pair => {
            let io = declare_inputs(&mut b, which);
            let (outs, reset) = add_pair_logic(&mut b, &io);
            for (d, net) in outs.into_iter().enumerate() {
                b.output(format!("pair_out_{}", DIRECTIONS[d]), net);
            }
            b.output("reset_request", reset);
        }
        ModuleSubcircuit::Reset => {
            let reset_in = b.input("reset_global");
            let block = add_reset_logic(&mut b, reset_in, 5);
            b.output("block", block);
        }
        ModuleSubcircuit::PairRequestGrow => {
            let io = declare_inputs(&mut b, which);
            let grow = add_grow_logic(&mut b, &io);
            let req = add_pair_request_logic(&mut b, &io);
            for (d, net) in grow.into_iter().enumerate() {
                b.output(format!("grow_out_{}", DIRECTIONS[d]), net);
            }
            for (d, net) in req.into_iter().enumerate() {
                b.output(format!("pair_req_out_{}", DIRECTIONS[d]), net);
            }
        }
        ModuleSubcircuit::FullModule => {
            let reset_in = b.input("reset_global");
            let io = declare_inputs(&mut b, which);
            // The block signal produced by the reset sub-circuit replaces the
            // raw block input inside the full module.
            let block = add_reset_logic(&mut b, reset_in, 5);
            let io = ModuleInputs { block, ..io };
            let grow = add_grow_logic(&mut b, &io);
            let req = add_pair_request_logic(&mut b, &io);
            let grant = add_pair_grant_logic(&mut b, &io);
            let (pair, reset_req) = add_pair_logic(&mut b, &io);
            for (d, net) in grow.into_iter().enumerate() {
                b.output(format!("grow_out_{}", DIRECTIONS[d]), net);
            }
            for (d, net) in req.into_iter().enumerate() {
                b.output(format!("pair_req_out_{}", DIRECTIONS[d]), net);
            }
            for (d, net) in grant.into_iter().enumerate() {
                b.output(format!("pair_grant_out_{}", DIRECTIONS[d]), net);
            }
            for (d, net) in pair.into_iter().enumerate() {
                b.output(format!("pair_out_{}", DIRECTIONS[d]), net);
            }
            b.output("reset_request", reset_req);
            // The error output: this module is part of a correction chain
            // when any pair pulse reaches it.
            let any_pair = b.or_tree(&io.pair_in);
            b.output("error_output", any_pair);
        }
    }
    b.build()
        .expect("module sub-circuits are structurally valid by construction")
}

/// Synthesized characterisation of the decoder module and its sub-circuits.
#[derive(Debug, Clone)]
pub struct DecoderModuleHardware {
    library: CellLibrary,
    reports: Vec<(ModuleSubcircuit, SynthesisReport)>,
}

impl DecoderModuleHardware {
    /// Synthesizes every sub-circuit against the ERSFQ library of Table II.
    #[must_use]
    pub fn ersfq() -> Self {
        Self::with_library(CellLibrary::ersfq())
    }

    /// Synthesizes every sub-circuit against a custom library.
    #[must_use]
    pub fn with_library(library: CellLibrary) -> Self {
        let reports = ModuleSubcircuit::ALL
            .iter()
            .map(|&which| (which, synthesize(&build_subcircuit(which), &library)))
            .collect();
        DecoderModuleHardware { library, reports }
    }

    /// The cell library used for synthesis.
    #[must_use]
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// The synthesis report of one sub-circuit.
    ///
    /// # Panics
    ///
    /// Never panics: every sub-circuit is synthesized at construction.
    #[must_use]
    pub fn report(&self, which: ModuleSubcircuit) -> &SynthesisReport {
        &self
            .reports
            .iter()
            .find(|(w, _)| *w == which)
            .expect("all sub-circuits are synthesized at construction")
            .1
    }

    /// All reports in Table III order.
    #[must_use]
    pub fn reports(&self) -> &[(ModuleSubcircuit, SynthesisReport)] {
        &self.reports
    }

    /// The characterisation of the complete module.
    #[must_use]
    pub fn module(&self) -> CircuitCharacterization {
        CircuitCharacterization::from(self.report(ModuleSubcircuit::FullModule))
    }

    /// The mesh clock period in picoseconds: the latency of the full module,
    /// since every mesh cycle is one traversal of the module pipeline.
    #[must_use]
    pub fn cycle_time_ps(&self) -> f64 {
        self.report(ModuleSubcircuit::FullModule).latency_ps
    }

    /// Area/power report for the mesh protecting one distance-`d` patch.
    #[must_use]
    pub fn mesh_for_distance(&self, distance: usize) -> MeshReport {
        MeshReport::for_code_distance(self.module(), distance)
    }

    /// The largest square mesh that fits a refrigerator budget.
    #[must_use]
    pub fn max_mesh_side(&self, budget: &RefrigeratorBudget) -> usize {
        max_mesh_side(self.module(), budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_sfq::cell::CellType;
    use nisqplus_sfq::sim::NetlistSimulator;
    use nisqplus_sfq::synth::path_balance;
    use std::collections::HashMap;

    #[test]
    fn every_subcircuit_synthesizes_and_is_balanced() {
        let hw = DecoderModuleHardware::ersfq();
        for (which, report) in hw.reports() {
            assert!(report.logical_depth >= 1, "{which} has zero depth");
            assert!(report.area_um2 > 0.0);
            assert!(report.power_uw > 0.0);
            assert!(report.jj_count > 0);
            let balanced = path_balance(&build_subcircuit(*which));
            assert!(balanced.is_path_balanced(), "{which} is not path balanced");
        }
    }

    #[test]
    fn full_module_is_the_largest_block() {
        let hw = DecoderModuleHardware::ersfq();
        let full = hw.report(ModuleSubcircuit::FullModule);
        for (which, report) in hw.reports() {
            if *which != ModuleSubcircuit::FullModule {
                assert!(
                    full.area_um2 >= report.area_um2,
                    "{which} is larger than the full module"
                );
            }
        }
        // Same order of magnitude as the paper's 1.28 mm^2 / 13.08 uW module.
        assert!(
            full.area_um2 > 1e5 && full.area_um2 < 3e6,
            "area {}",
            full.area_um2
        );
        assert!(
            full.power_uw > 1.0 && full.power_uw < 40.0,
            "power {}",
            full.power_uw
        );
    }

    #[test]
    fn cycle_time_is_on_the_order_of_table_three() {
        let hw = DecoderModuleHardware::ersfq();
        let cycle = hw.cycle_time_ps();
        // Paper: 162.72 ps for a depth-6 module; our synthesized module lands
        // in the same range.
        assert!((60.0..=260.0).contains(&cycle), "cycle time {cycle} ps");
        assert!(hw.report(ModuleSubcircuit::FullModule).logical_depth >= 4);
    }

    #[test]
    fn reset_subcircuit_uses_five_dffs() {
        let netlist = build_subcircuit(ModuleSubcircuit::Reset);
        assert_eq!(netlist.count_cells(CellType::DroDff), 5);
        // Block must go high when the reset pulse arrives and stay high while
        // the pulse drains through the DFF chain.  The chain is deliberately
        // *unbalanced* (each tap adds one more cycle of delay), so this test
        // simulates the raw netlist rather than the path-balanced one.
        let mut sim = NetlistSimulator::new(&netlist);
        let pulse: HashMap<&str, bool> = [("reset_global", true)].into();
        let quiet: HashMap<&str, bool> = [("reset_global", false)].into();
        let depth = netlist.logical_depth();
        // Feed a single reset pulse, then watch the block output stay asserted
        // for several cycles as the pulse works through the buffer chain.
        let mut high_cycles = 0;
        sim.run(&pulse, 1);
        for _ in 0..depth + 6 {
            let out = sim.step(&quiet);
            if out["block"] {
                high_cycles += 1;
            }
        }
        assert!(
            high_cycles >= 3,
            "block was high for only {high_cycles} cycles"
        );
    }

    #[test]
    fn grow_subcircuit_logic_is_correct() {
        let netlist = build_subcircuit(ModuleSubcircuit::Grow);
        let balanced = path_balance(&netlist);
        let mut sim = NetlistSimulator::new(&balanced);
        let depth = balanced.logical_depth();
        // A hot module with no incoming pulses emits grow in all directions.
        let inputs: HashMap<&str, bool> = [
            ("hot_syndrome", true),
            ("block", false),
            ("grow_in_up", false),
            ("grow_in_down", false),
            ("grow_in_left", false),
            ("grow_in_right", false),
        ]
        .into();
        let out = sim.run(&inputs, depth);
        for dir in DIRECTIONS {
            assert!(
                out[&format!("grow_out_{dir}")],
                "hot module must grow {dir}"
            );
        }
        // A blocked module emits nothing even when hot.
        sim.reset();
        let blocked: HashMap<&str, bool> = [
            ("hot_syndrome", true),
            ("block", true),
            ("grow_in_up", false),
            ("grow_in_down", false),
            ("grow_in_left", false),
            ("grow_in_right", false),
        ]
        .into();
        let out = sim.run(&blocked, depth);
        for dir in DIRECTIONS {
            assert!(
                !out[&format!("grow_out_{dir}")],
                "blocked module must not grow {dir}"
            );
        }
        // A passing pulse continues straight: in from the left, out to the right.
        sim.reset();
        let passing: HashMap<&str, bool> = [
            ("hot_syndrome", false),
            ("block", false),
            ("grow_in_up", false),
            ("grow_in_down", false),
            ("grow_in_left", true),
            ("grow_in_right", false),
        ]
        .into();
        let out = sim.run(&passing, depth);
        assert!(out["grow_out_right"]);
        assert!(!out["grow_out_left"]);
        assert!(!out["grow_out_up"]);
    }

    #[test]
    fn pair_grant_grants_exactly_one_direction() {
        let netlist = build_subcircuit(ModuleSubcircuit::PairGrant);
        let balanced = path_balance(&netlist);
        let mut sim = NetlistSimulator::new(&balanced);
        let depth = balanced.logical_depth();
        // Requests arrive from up and left at a hot module simultaneously.
        let inputs: HashMap<&str, bool> = [
            ("hot_syndrome", true),
            ("block", false),
            ("pair_req_in_up", true),
            ("pair_req_in_down", false),
            ("pair_req_in_left", true),
            ("pair_req_in_right", false),
            ("pair_grant_in_up", false),
            ("pair_grant_in_down", false),
            ("pair_grant_in_left", false),
            ("pair_grant_in_right", false),
        ]
        .into();
        let out = sim.run(&inputs, depth);
        let grants: usize = DIRECTIONS
            .iter()
            .filter(|dir| out[&format!("pair_grant_out_{dir}")])
            .count();
        assert_eq!(
            grants, 1,
            "a hot module must grant exactly one request: {out:?}"
        );
        assert!(
            out["pair_grant_out_up"],
            "the priority encoder grants the first direction"
        );
    }

    #[test]
    fn mesh_reports_scale_with_distance() {
        let hw = DecoderModuleHardware::ersfq();
        let d3 = hw.mesh_for_distance(3);
        let d9 = hw.mesh_for_distance(9);
        assert_eq!(d3.modules, 25);
        assert_eq!(d9.modules, 289);
        assert!(d9.area_mm2 > d3.area_mm2);
        assert!(d9.power_mw > d3.power_mw);
        assert!(d9.fits(&RefrigeratorBudget::typical()));
        let side = hw.max_mesh_side(&RefrigeratorBudget::typical());
        assert!(
            side >= 50,
            "a 1 W budget should host a mesh of at least 50x50, got {side}"
        );
    }
}
