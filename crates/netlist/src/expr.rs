//! Boolean expressions used as functional references for cells.
//!
//! An [`Expr`] describes the logic function a synthesized cell is supposed
//! to implement. The simulator tests use it as ground truth: a defect-free
//! switch-level simulation of a synthesized cell must agree with
//! [`Expr::eval`] on every static input pattern.

use std::fmt;

/// A Boolean expression over input pins `0..n`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Expr {
    /// The value of input pin `i`.
    Var(u8),
    /// Logical negation.
    Not(Box<Expr>),
    /// Conjunction of all children.
    And(Vec<Expr>),
    /// Disjunction of all children.
    Or(Vec<Expr>),
}

impl Expr {
    /// Convenience constructor for a variable.
    pub fn var(i: u8) -> Expr {
        Expr::Var(i)
    }

    /// Convenience constructor for a negation.
    #[allow(
        clippy::should_implement_trait,
        reason = "a named constructor, not the `!` operator"
    )]
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// Convenience constructor for a conjunction.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two operands are supplied.
    pub fn and(es: Vec<Expr>) -> Expr {
        assert!(es.len() >= 2, "And requires at least two operands");
        Expr::And(es)
    }

    /// Convenience constructor for a disjunction.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two operands are supplied.
    pub fn or(es: Vec<Expr>) -> Expr {
        assert!(es.len() >= 2, "Or requires at least two operands");
        Expr::Or(es)
    }

    /// Evaluates the expression under `assignment` (index = pin number).
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range for `assignment`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        match self {
            Expr::Var(i) => assignment[*i as usize],
            Expr::Not(e) => !e.eval(assignment),
            Expr::And(es) => es.iter().all(|e| e.eval(assignment)),
            Expr::Or(es) => es.iter().any(|e| e.eval(assignment)),
        }
    }

    /// Highest variable index referenced, plus one (0 for constant-free
    /// expressions — impossible here since `Var` is the only leaf).
    pub fn num_vars(&self) -> usize {
        match self {
            Expr::Var(i) => *i as usize + 1,
            Expr::Not(e) => e.num_vars(),
            Expr::And(es) | Expr::Or(es) => es.iter().map(Expr::num_vars).max().unwrap_or(0),
        }
    }

    /// Parses an expression like `!(A&B)|C` (variables `A`-`Z`, `&`, `|`,
    /// `!`, parentheses; `&` binds tighter than `|`).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax error.
    pub fn parse(text: &str) -> Result<Expr, String> {
        let tokens: Vec<char> = text.chars().filter(|c| !c.is_whitespace()).collect();
        let mut parser = ExprParser { tokens, pos: 0 };
        let expr = parser.or_expr()?;
        if parser.pos != parser.tokens.len() {
            return Err(format!(
                "unexpected `{}` at position {}",
                parser.tokens[parser.pos], parser.pos
            ));
        }
        Ok(expr)
    }

    /// Truth table as a bit vector of length `2^n`, LSB = all-zero input.
    ///
    /// Input pattern `p` maps bit `i` of `p` to pin `i`.
    pub fn truth_table(&self, n: usize) -> Vec<bool> {
        let mut table = Vec::with_capacity(1 << n);
        let mut assignment = vec![false; n];
        for p in 0..(1u32 << n) {
            for (i, slot) in assignment.iter_mut().enumerate() {
                *slot = (p >> i) & 1 == 1;
            }
            table.push(self.eval(&assignment));
        }
        table
    }
}

struct ExprParser {
    tokens: Vec<char>,
    pos: usize,
}

impl ExprParser {
    fn peek(&self) -> Option<char> {
        self.tokens.get(self.pos).copied()
    }

    fn or_expr(&mut self) -> Result<Expr, String> {
        let mut terms = vec![self.and_expr()?];
        while self.peek() == Some('|') {
            self.pos += 1;
            terms.push(self.and_expr()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("non-empty")
        } else {
            Expr::Or(terms)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, String> {
        let mut terms = vec![self.atom()?];
        while self.peek() == Some('&') {
            self.pos += 1;
            terms.push(self.atom()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("non-empty")
        } else {
            Expr::And(terms)
        })
    }

    fn atom(&mut self) -> Result<Expr, String> {
        match self.peek() {
            Some('!') => {
                self.pos += 1;
                Ok(Expr::not(self.atom()?))
            }
            Some('(') => {
                self.pos += 1;
                let inner = self.or_expr()?;
                if self.peek() != Some(')') {
                    return Err(format!("expected `)` at position {}", self.pos));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(c) if c.is_ascii_uppercase() => {
                self.pos += 1;
                Ok(Expr::Var(c as u8 - b'A'))
            }
            other => Err(format!(
                "expected variable, `!` or `(`, found {other:?} at position {}",
                self.pos
            )),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(i) => write!(f, "{}", (b'A' + i) as char),
            Expr::Not(e) => write!(f, "!{e}"),
            Expr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, "&")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_nand2() {
        let nand = Expr::not(Expr::and(vec![Expr::var(0), Expr::var(1)]));
        assert!(nand.eval(&[false, false]));
        assert!(nand.eval(&[true, false]));
        assert!(!nand.eval(&[true, true]));
    }

    #[test]
    fn truth_table_xor() {
        let xor = Expr::or(vec![
            Expr::and(vec![Expr::var(0), Expr::not(Expr::var(1))]),
            Expr::and(vec![Expr::not(Expr::var(0)), Expr::var(1)]),
        ]);
        assert_eq!(xor.truth_table(2), vec![false, true, true, false]);
    }

    #[test]
    fn num_vars_counts_max_index() {
        let e = Expr::or(vec![Expr::var(0), Expr::var(3)]);
        assert_eq!(e.num_vars(), 4);
    }

    #[test]
    fn display_round_trips_structure() {
        let aoi = Expr::not(Expr::or(vec![
            Expr::and(vec![Expr::var(0), Expr::var(1)]),
            Expr::var(2),
        ]));
        assert_eq!(aoi.to_string(), "!((A&B)|C)");
    }

    #[test]
    fn parse_respects_precedence() {
        // & binds tighter than |.
        let e = Expr::parse("A&B|C").unwrap();
        assert_eq!(
            e.truth_table(3),
            Expr::parse("(A&B)|C").unwrap().truth_table(3)
        );
        assert_ne!(
            e.truth_table(3),
            Expr::parse("A&(B|C)").unwrap().truth_table(3)
        );
    }

    #[test]
    fn parse_display_round_trip() {
        for text in ["!((A&B)|C)", "(A|B)", "!A", "((A&B)&C)"] {
            let e = Expr::parse(text).unwrap();
            let again = Expr::parse(&e.to_string()).unwrap();
            let n = e.num_vars();
            assert_eq!(e.truth_table(n), again.truth_table(n), "{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "A&", "(A", "A)", "a", "A!B", "A &@ B"] {
            assert!(Expr::parse(bad).is_err(), "{bad:?}");
        }
    }

    mod fuzz {
        use super::super::Expr;
        use ca_rng::{Rng, SplitMix64};

        /// The expression parser never panics on random strings drawn
        /// from its own alphabet (seeded, fully deterministic).
        #[test]
        fn expr_parse_never_panics() {
            const ALPHABET: &[u8] = b"ABCD&|!() ";
            let mut rng = SplitMix64::new(0xE1F0);
            for _ in 0..512 {
                let len = rng.gen_index(41);
                let s: String = (0..len)
                    .map(|_| ALPHABET[rng.gen_index(ALPHABET.len())] as char)
                    .collect();
                let _ = Expr::parse(&s);
            }
        }
    }

    #[test]
    fn parse_handles_whitespace() {
        let e = Expr::parse("! ( A & B )").unwrap();
        assert_eq!(e.truth_table(2), vec![true, true, true, false]);
    }
}
