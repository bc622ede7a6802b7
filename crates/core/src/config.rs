//! Decoder design variants and mesh configuration.
//!
//! The paper builds its decoder incrementally (Section V-C and the top row of
//! Figure 10): a naive baseline, then a global reset mechanism, then boundary
//! modules, then the request/grant handshake that resolves equidistant ties.
//! Each step is a first-class configuration here so the ablation study can be
//! reproduced.

use nisqplus_qec::lattice::Lattice;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four incremental design points evaluated in Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecoderVariant {
    /// Grow/pair signalling only: no reset, no boundary modules, no
    /// equidistant handling.
    Baseline,
    /// Baseline plus the global reset mechanism.
    WithReset,
    /// Reset plus boundary modules that let chains terminate on the lattice
    /// edge.
    WithResetAndBoundary,
    /// The full design: reset, boundaries and the pair-request / pair-grant
    /// handshake (the design whose thresholds the paper reports).
    Final,
}

impl DecoderVariant {
    /// All variants in the order the paper introduces them.
    pub const ALL: [DecoderVariant; 4] = [
        DecoderVariant::Baseline,
        DecoderVariant::WithReset,
        DecoderVariant::WithResetAndBoundary,
        DecoderVariant::Final,
    ];

    /// The mesh configuration corresponding to this variant.
    #[must_use]
    pub fn config(self) -> MeshConfig {
        match self {
            DecoderVariant::Baseline => MeshConfig {
                reset: false,
                boundary: false,
                equidistant_handshake: false,
                ..MeshConfig::default()
            },
            DecoderVariant::WithReset => MeshConfig {
                reset: true,
                boundary: false,
                equidistant_handshake: false,
                ..MeshConfig::default()
            },
            DecoderVariant::WithResetAndBoundary => MeshConfig {
                reset: true,
                boundary: true,
                equidistant_handshake: false,
                ..MeshConfig::default()
            },
            DecoderVariant::Final => MeshConfig::default(),
        }
    }

    /// A short label used in reports and plots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DecoderVariant::Baseline => "baseline",
            DecoderVariant::WithReset => "reset",
            DecoderVariant::WithResetAndBoundary => "reset+boundary",
            DecoderVariant::Final => "final",
        }
    }
}

impl fmt::Display for DecoderVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Low-level mesh configuration.
///
/// [`DecoderVariant`] covers the paper's four design points; `MeshConfig`
/// additionally exposes the pipeline depth (which sets how long the global
/// reset blocks module inputs) and the simulation cycle cap, for ablation
/// studies beyond the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Enable the global reset wire that quiets the mesh after each pairing.
    pub reset: bool,
    /// Instantiate boundary modules around the lattice edges of the sector.
    pub boundary: bool,
    /// Use the pair-request / pair-grant handshake to break equidistant ties.
    pub equidistant_handshake: bool,
    /// Pipeline depth of one module; the reset signal blocks inputs for this
    /// many cycles (the paper's circuits have depth 5).
    pub module_depth: u8,
    /// Hard cap on simulated cycles per decode, expressed as a multiple of
    /// the mesh side length; decodes that hit the cap abandon the remaining
    /// hot syndromes (and are counted as failures downstream).
    pub max_cycles_per_side: usize,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            reset: true,
            boundary: true,
            equidistant_handshake: true,
            module_depth: 5,
            max_cycles_per_side: 24,
        }
    }
}

impl MeshConfig {
    /// The maximum number of cycles a decode may take on a mesh of the given
    /// side length before it is abandoned.
    #[must_use]
    pub fn max_cycles(&self, side: usize) -> usize {
        self.max_cycles_per_side * side.max(1)
    }

    /// The most cycles a decode on `lattice` takes: [`Self::max_cycles`] of
    /// its mesh, whose side is the lattice's plus a boundary module at
    /// either end.
    #[must_use]
    pub fn max_cycles_on(&self, lattice: &Lattice) -> usize {
        self.max_cycles(lattice.size() + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_variant_enables_everything() {
        let cfg = DecoderVariant::Final.config();
        assert!(cfg.reset && cfg.boundary && cfg.equidistant_handshake);
        assert_eq!(cfg.module_depth, 5);
    }

    #[test]
    fn baseline_disables_everything() {
        let cfg = DecoderVariant::Baseline.config();
        assert!(!cfg.reset && !cfg.boundary && !cfg.equidistant_handshake);
    }

    #[test]
    fn intermediate_variants_are_ordered() {
        let reset = DecoderVariant::WithReset.config();
        assert!(reset.reset && !reset.boundary && !reset.equidistant_handshake);
        let boundary = DecoderVariant::WithResetAndBoundary.config();
        assert!(boundary.reset && boundary.boundary && !boundary.equidistant_handshake);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(DecoderVariant::Final.to_string(), "final");
        assert_eq!(DecoderVariant::Baseline.label(), "baseline");
        assert_eq!(DecoderVariant::ALL.len(), 4);
    }

    #[test]
    fn max_cycles_scales_with_side() {
        let cfg = MeshConfig::default();
        assert_eq!(cfg.max_cycles(17), 24 * 17);
        assert!(cfg.max_cycles(0) > 0);
    }
}
