//! Logic values, waveforms and stimuli.
//!
//! Cell-aware test generation uses a four-valued algebra `{0, 1, R, F}` per
//! input pin ([`Wave`]): a *static* stimulus holds every pin constant, a
//! *dynamic* stimulus is an ordered two-pattern pair where at least one pin
//! rises (`R`) or falls (`F`). Internally the simulator computes per-phase
//! steady-state [`Value`]s which distinguish a *driven* unknown (a rail
//! fight, [`Value::Xd`]) from a *floating* unknown (an uncharged or
//! disturbed storage node, [`Value::Xf`]) — the distinction decides
//! detectability (see [`crate::simulator::DetectionPolicy`]).

use std::fmt;

/// Steady-state value of a net at the end of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Value {
    /// Driven to ground.
    Zero,
    /// Driven to power.
    One,
    /// Floating / unknown charge: the net is (or may be) disconnected from
    /// every driver.
    Xf,
    /// Driven conflict: paths to both rails (or uncertain drive) fight.
    Xd,
}

impl Value {
    /// Whether the value is a definite binary level.
    pub fn is_binary(self) -> bool {
        matches!(self, Value::Zero | Value::One)
    }

    /// Whether the value is unknown (either kind of X).
    pub fn is_x(self) -> bool {
        !self.is_binary()
    }

    /// The charge a net retains after holding this value (fights decay to
    /// an unknown charge).
    pub fn retained(self) -> Value {
        match self {
            Value::Zero => Value::Zero,
            Value::One => Value::One,
            Value::Xf | Value::Xd => Value::Xf,
        }
    }

    /// Converts a Boolean level.
    pub fn from_bool(b: bool) -> Value {
        if b {
            Value::One
        } else {
            Value::Zero
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Value::Zero => '0',
            Value::One => '1',
            Value::Xf => 'x',
            Value::Xd => 'X',
        };
        write!(f, "{c}")
    }
}

/// Per-pin waveform of a (possibly two-phase) stimulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Wave {
    /// Constant 0.
    Zero,
    /// Constant 1.
    One,
    /// Rising transition 0 → 1.
    Rise,
    /// Falling transition 1 → 0.
    Fall,
}

impl Wave {
    /// Value during the first phase.
    pub fn initial(self) -> bool {
        matches!(self, Wave::One | Wave::Fall)
    }

    /// Value during the second (final) phase.
    pub fn final_value(self) -> bool {
        matches!(self, Wave::One | Wave::Rise)
    }

    /// Whether the pin transitions.
    pub fn is_transition(self) -> bool {
        matches!(self, Wave::Rise | Wave::Fall)
    }

    /// Builds the wave from an initial/final value pair.
    pub fn from_pair(initial: bool, final_value: bool) -> Wave {
        match (initial, final_value) {
            (false, false) => Wave::Zero,
            (true, true) => Wave::One,
            (false, true) => Wave::Rise,
            (true, false) => Wave::Fall,
        }
    }

    /// Small-integer feature encoding used by the CA-matrix (0, 1, 2 = R,
    /// 3 = F).
    pub fn code(self) -> u8 {
        match self {
            Wave::Zero => 0,
            Wave::One => 1,
            Wave::Rise => 2,
            Wave::Fall => 3,
        }
    }
}

impl fmt::Display for Wave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Wave::Zero => '0',
            Wave::One => '1',
            Wave::Rise => 'R',
            Wave::Fall => 'F',
        };
        write!(f, "{c}")
    }
}

/// A complete input stimulus: one [`Wave`] per primary input pin.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Stimulus {
    waves: Vec<Wave>,
}

impl Stimulus {
    /// Creates a stimulus from per-pin waves.
    pub fn new(waves: Vec<Wave>) -> Stimulus {
        Stimulus { waves }
    }

    /// Builds a stimulus from an initial and final input pattern
    /// (bit `i` of a pattern drives pin `i`).
    pub fn from_patterns(n: usize, initial: u32, final_pattern: u32) -> Stimulus {
        let waves = (0..n)
            .map(|i| Wave::from_pair((initial >> i) & 1 == 1, (final_pattern >> i) & 1 == 1))
            .collect();
        Stimulus { waves }
    }

    /// A static stimulus holding `pattern`.
    pub fn static_pattern(n: usize, pattern: u32) -> Stimulus {
        Stimulus::from_patterns(n, pattern, pattern)
    }

    /// Per-pin waves.
    pub fn waves(&self) -> &[Wave] {
        &self.waves
    }

    /// Number of input pins.
    pub fn num_pins(&self) -> usize {
        self.waves.len()
    }

    /// Whether no pin transitions (single-phase stimulus).
    pub fn is_static(&self) -> bool {
        self.waves.iter().all(|w| !w.is_transition())
    }

    /// First-phase input pattern as a bit vector.
    pub fn initial_pattern(&self) -> u32 {
        self.waves
            .iter()
            .enumerate()
            .fold(0, |acc, (i, w)| acc | ((w.initial() as u32) << i))
    }

    /// Final-phase input pattern as a bit vector.
    pub fn final_pattern(&self) -> u32 {
        self.waves
            .iter()
            .enumerate()
            .fold(0, |acc, (i, w)| acc | ((w.final_value() as u32) << i))
    }

    /// Enumerates all `2^n` static stimuli in ascending pattern order.
    pub fn all_static(n: usize) -> Vec<Stimulus> {
        (0..(1u32 << n))
            .map(|p| Stimulus::static_pattern(n, p))
            .collect()
    }

    /// Enumerates the full CA stimulus set: `2^n` static stimuli followed
    /// by all `2^n (2^n - 1)` ordered dynamic pairs — `4^n` rows total
    /// (paper §III.A).
    pub fn all(n: usize) -> Vec<Stimulus> {
        let size = 1u32 << n;
        let mut out = Vec::with_capacity((size as usize) * (size as usize));
        out.extend(Stimulus::all_static(n));
        for initial in 0..size {
            for final_pattern in 0..size {
                if initial != final_pattern {
                    out.push(Stimulus::from_patterns(n, initial, final_pattern));
                }
            }
        }
        out
    }
}

impl fmt::Display for Stimulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for w in &self.waves {
            write!(f, "{w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_pair_round_trip() {
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let w = Wave::from_pair(a, b);
            assert_eq!(w.initial(), a);
            assert_eq!(w.final_value(), b);
        }
    }

    #[test]
    fn stimulus_count_is_4_pow_n() {
        for n in 1..=3 {
            let all = Stimulus::all(n);
            assert_eq!(all.len(), 4usize.pow(n as u32));
            let statics = all.iter().filter(|s| s.is_static()).count();
            assert_eq!(statics, 1 << n);
        }
    }

    #[test]
    fn stimulus_patterns() {
        let s = Stimulus::from_patterns(2, 0b01, 0b10);
        assert_eq!(s.waves()[0], Wave::Fall);
        assert_eq!(s.waves()[1], Wave::Rise);
        assert_eq!(s.initial_pattern(), 0b01);
        assert_eq!(s.final_pattern(), 0b10);
        assert!(!s.is_static());
        assert_eq!(s.to_string(), "FR");
    }

    #[test]
    fn retention_decays_fights() {
        assert_eq!(Value::Xd.retained(), Value::Xf);
        assert_eq!(Value::One.retained(), Value::One);
    }

    #[test]
    fn all_stimuli_are_distinct() {
        let all = Stimulus::all(2);
        let set: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }
}
