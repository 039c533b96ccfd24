//! Defect injection descriptors.
//!
//! An [`Injection`] tells the simulator how to perturb a cell's conduction
//! graph. The descriptors mirror the paper's defect universe (§IV):
//! intra-transistor terminal opens and terminal-terminal shorts, plus
//! inter-transistor net-net shorts (representable in the CA-matrix but not
//! evaluated in the paper's experiments).

use ca_netlist::{NetId, Terminal, TransistorId};
use std::fmt;

/// A single cell-internal defect to inject, or nothing (golden).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Injection {
    /// Defect-free simulation.
    None,
    /// Open on one terminal of a transistor.
    ///
    /// A drain/source open removes the channel edge; a gate open leaves the
    /// device permanently non-conducting (floating-gate devices are modelled
    /// as stuck open, the standard cell-aware abstraction).
    Open {
        /// Affected device.
        transistor: TransistorId,
        /// Opened terminal.
        terminal: Terminal,
    },
    /// Short between two terminals of one transistor.
    ///
    /// Drain-source shorts bridge the channel (stuck-on); gate-drain and
    /// gate-source shorts bridge the gate net into the channel graph.
    Short {
        /// Affected device.
        transistor: TransistorId,
        /// First shorted terminal.
        a: Terminal,
        /// Second shorted terminal.
        b: Terminal,
    },
    /// Short between two arbitrary nets (inter-transistor defect).
    NetShort {
        /// First net.
        a: NetId,
        /// Second net.
        b: NetId,
    },
}

impl Injection {
    /// Whether this is the defect-free case.
    pub fn is_none(self) -> bool {
        matches!(self, Injection::None)
    }
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Injection::None => write!(f, "free"),
            Injection::Open {
                transistor,
                terminal,
            } => write!(f, "open({transistor}.{terminal})"),
            Injection::Short { transistor, a, b } => {
                write!(f, "short({transistor}.{a}-{b})")
            }
            Injection::NetShort { a, b } => write!(f, "short({a}-{b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let open = Injection::Open {
            transistor: TransistorId(3),
            terminal: Terminal::Drain,
        };
        assert_eq!(open.to_string(), "open(mos#3.D)");
        assert_eq!(Injection::None.to_string(), "free");
        assert!(Injection::None.is_none());
        assert!(!open.is_none());
    }
}
