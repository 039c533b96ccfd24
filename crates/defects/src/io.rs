//! Textual CA model interchange format (`.cam`).
//!
//! Commercial CA flows exchange models in proprietary per-vendor formats;
//! this is our open equivalent: a line-oriented, diff-friendly text format
//! that round-trips [`CaModel`] exactly. It exists so characterized
//! libraries can be stored and reloaded without re-simulating (the "large
//! database of CA models" the paper trains from).
//!
//! ```text
//! CAM 1
//! cell NAND2 inputs 2 transistors 4 sims 384
//! degraded            (only present for budget-truncated models)
//! defect 0 open mos 0 D
//! defect 1 open mos 0 G
//! defect 12 short mos 2 D S
//! defect 23 netshort 3 7
//! row 0 0100...
//! row 1 0100...
//! end
//! ```

use crate::model::CaModel;
use crate::table::BitRow;
use crate::universe::{Defect, DefectId, DefectKind, DefectUniverse};
use ca_netlist::{Cell, NetId, Terminal, TransistorId};
use ca_sim::Injection;

/// Errors raised while parsing a `.cam` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCamError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseCamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cam parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCamError {}

fn terminal_letter(t: Terminal) -> char {
    t.letter()
}

fn parse_terminal(s: &str, line: usize) -> Result<Terminal, ParseCamError> {
    match s {
        "D" => Ok(Terminal::Drain),
        "G" => Ok(Terminal::Gate),
        "S" => Ok(Terminal::Source),
        "B" => Ok(Terminal::Bulk),
        _ => Err(ParseCamError {
            line,
            message: format!("unknown terminal `{s}`"),
        }),
    }
}

/// Parses a transistor index and bounds-checks it against `cell` — an
/// out-of-range index would otherwise build an injection the simulator
/// can only panic on.
fn parse_transistor(s: &str, cell: &Cell, line: usize) -> Result<TransistorId, ParseCamError> {
    let t: u32 = s.parse().map_err(|_| ParseCamError {
        line,
        message: format!("bad transistor index `{s}`"),
    })?;
    if t as usize >= cell.num_transistors() {
        return Err(ParseCamError {
            line,
            message: format!(
                "transistor index {t} out of range (cell has {})",
                cell.num_transistors()
            ),
        });
    }
    Ok(TransistorId(t))
}

/// Parses a net id and bounds-checks it against `cell`.
fn parse_net(s: &str, cell: &Cell, line: usize) -> Result<NetId, ParseCamError> {
    let n: u32 = s.parse().map_err(|_| ParseCamError {
        line,
        message: format!("bad net id `{s}`"),
    })?;
    if n as usize >= cell.nets().len() {
        return Err(ParseCamError {
            line,
            message: format!(
                "net id {n} out of range (cell has {} nets)",
                cell.nets().len()
            ),
        });
    }
    Ok(NetId(n))
}

/// `ROW_DIGITS[8 * b..8 * b + 8]` spells the byte `b` of a row word as
/// `.cam` row digits, least significant bit first.
const ROW_DIGITS: &str = {
    const DIGITS: [u8; 2048] = {
        let mut digits = [b'0'; 2048];
        let mut byte = 0;
        while byte < 256 {
            let mut bit = 0;
            while bit < 8 {
                if (byte >> bit) & 1 == 1 {
                    digits[8 * byte + bit] = b'1';
                }
                bit += 1;
            }
            byte += 1;
        }
        digits
    };
    match std::str::from_utf8(&DIGITS) {
        Ok(digits) => digits,
        Err(_) => panic!("row digits are ASCII"),
    }
};

/// Appends the decimal digits of `n`, as `{n}` formats them.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &digit in &digits[start..] {
        out.push(char::from(digit));
    }
}

/// The eight row digits of the byte `byte` of a row word.
fn byte_digits(byte: u8) -> &'static str {
    let at = 8 * usize::from(byte);
    &ROW_DIGITS[at..at + 8]
}

/// Appends the digits of `row`, bit 0 first, eight bits per lookup.
fn push_row_digits(out: &mut String, row: &BitRow) {
    let mut bytes = row.words().iter().flat_map(|word| word.to_le_bytes());
    for byte in bytes.by_ref().take(row.len() / 8) {
        out.push_str(byte_digits(byte));
    }
    if let Some(byte) = bytes.next().filter(|_| !row.len().is_multiple_of(8)) {
        out.push_str(&byte_digits(byte)[..row.len() % 8]);
    }
}

/// Serializes a model to the `.cam` text format.
pub fn to_cam(model: &CaModel) -> String {
    // About the final size, so the document is written without growing:
    // the header lines, up to 28 bytes per defect line, and each row's
    // digits behind `row <index> `.
    let rows: usize = model.rows.iter().map(|row| row.len() + 12).sum();
    let mut out =
        String::with_capacity(64 + model.cell_name.len() + 28 * model.universe.len() + rows);
    out.push_str("CAM 1\ncell ");
    out.push_str(&model.cell_name);
    out.push_str(" inputs ");
    push_decimal(&mut out, model.num_inputs as u64);
    out.push_str(" transistors ");
    push_decimal(&mut out, model.num_transistors as u64);
    out.push_str(" sims ");
    push_decimal(&mut out, model.defect_simulations as u64);
    out.push('\n');
    if model.degraded {
        out.push_str("degraded\n");
    }
    for defect in model.universe.defects() {
        let defect_line = |out: &mut String, kind: &str| {
            out.push_str("defect ");
            push_decimal(out, u64::from(defect.id.0));
            out.push_str(kind);
        };
        match defect.injection {
            Injection::None => continue,
            Injection::Open {
                transistor,
                terminal,
            } => {
                defect_line(&mut out, " open mos ");
                push_decimal(&mut out, u64::from(transistor.0));
                out.push(' ');
                out.push(terminal_letter(terminal));
            }
            Injection::Short { transistor, a, b } => {
                defect_line(&mut out, " short mos ");
                push_decimal(&mut out, u64::from(transistor.0));
                out.push(' ');
                out.push(terminal_letter(a));
                out.push(' ');
                out.push(terminal_letter(b));
            }
            Injection::NetShort { a, b } => {
                defect_line(&mut out, " netshort ");
                push_decimal(&mut out, u64::from(a.0));
                out.push(' ');
                push_decimal(&mut out, u64::from(b.0));
            }
        }
        out.push('\n');
    }
    for (i, row) in model.rows.iter().enumerate() {
        out.push_str("row ");
        push_decimal(&mut out, i as u64);
        out.push(' ');
        push_row_digits(&mut out, row);
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// The first eight whitespace-separated tokens of a line and how many it
/// has: all that the directives other than `row` read of
/// `split_whitespace`, without collecting it.
struct Tokens<'a> {
    first: [&'a str; 8],
    len: usize,
}

impl<'a> Tokens<'a> {
    fn of(line: &'a str) -> Tokens<'a> {
        let mut tokens = Tokens {
            first: [""; 8],
            len: 0,
        };
        for token in line.split_whitespace() {
            if let Some(slot) = tokens.first.get_mut(tokens.len) {
                *slot = token;
            }
            tokens.len += 1;
        }
        tokens
    }

    fn get(&self, i: usize) -> Option<&'a str> {
        self.first.get(i).copied().filter(|_| i < self.len)
    }
}

/// Splits `s`, which starts with a token, into that token and the rest.
fn split_token(s: &str) -> (&str, &str) {
    s.split_at(s.find(char::is_whitespace).unwrap_or(s.len()))
}

/// Parses the row-bit token at the start of `s` (the token ends at the
/// first whitespace character) straight into words, eight digits per
/// step while they last. Returns the first character that is neither a
/// digit nor whitespace as the error.
fn parse_row_bits(s: &str) -> Result<BitRow, char> {
    const ZEROS: u64 = u64::from_le_bytes([b'0'; 8]);
    const LOW_BITS: u64 = u64::from_le_bytes([1; 8]);
    // Moves bit 0 of byte `k` to bit `56 + k`; no two partial products
    // share a bit, so nothing carries.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let bytes = s.as_bytes();
    let mut words = Vec::with_capacity(bytes.len().div_ceil(64));
    let mut word = 0u64;
    let mut len = 0usize;
    for group in bytes.as_chunks::<8>().0 {
        let lanes = u64::from_le_bytes(*group);
        if lanes & !LOW_BITS != ZEROS {
            break; // not eight `0`/`1` digits: finish byte by byte
        }
        word |= ((lanes & LOW_BITS).wrapping_mul(GATHER) >> 56) << (len % 64);
        len += 8;
        if len.is_multiple_of(64) {
            words.push(word);
            word = 0;
        }
    }
    // Every byte read so far is an ASCII digit, so `len` is a boundary.
    for c in s[len..].chars() {
        match c {
            '0' => {}
            '1' => word |= 1 << (len % 64),
            c if c.is_whitespace() => break,
            c => return Err(c),
        }
        len += 1;
        if len.is_multiple_of(64) {
            words.push(word);
            word = 0;
        }
    }
    if !len.is_multiple_of(64) {
        words.push(word);
    }
    Ok(BitRow::from_words(words, len))
}

/// Parses a `.cam` document back into a model.
///
/// `cell` must be the netlist the model was generated from (classes are
/// rebuilt from the rows).
///
/// # Errors
///
/// Returns [`ParseCamError`] on any structural mismatch.
pub fn from_cam(text: &str, cell: &Cell) -> Result<CaModel, ParseCamError> {
    let mut defects: Vec<Defect> = Vec::new();
    let mut rows: Vec<(usize, BitRow, usize)> = Vec::new();
    let mut header: Option<(String, usize, usize, usize)> = None;
    let mut degraded = false;
    let mut saw_end = false;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| ParseCamError {
            line: line_no,
            message,
        };
        let (directive, rest) = split_token(line);
        if directive == "row" {
            // Rows are most of a document: their bits go straight into
            // words, never through a token list.
            let (index, rest) = split_token(rest.trim_start());
            let idx: usize = index.parse().map_err(|_| err("bad row index".into()))?;
            let bits = rest.trim_start();
            if bits.is_empty() {
                return Err(err("missing row bits".into()));
            }
            let row = parse_row_bits(bits).map_err(|c| err(format!("bad bit `{c}`")))?;
            rows.push((idx, row, line_no));
            continue;
        }
        let tokens = Tokens::of(line);
        match directive {
            "CAM" => {
                if tokens.get(1) != Some("1") {
                    return Err(err("unsupported CAM version".into()));
                }
            }
            "cell" => {
                let t = &tokens.first;
                if tokens.len != 8 || t[2] != "inputs" || t[4] != "transistors" {
                    return Err(err("malformed cell header".into()));
                }
                let parse = |s: &str| -> Result<usize, ParseCamError> {
                    s.parse().map_err(|_| ParseCamError {
                        line: line_no,
                        message: format!("bad number `{s}`"),
                    })
                };
                header = Some((t[1].to_string(), parse(t[3])?, parse(t[5])?, parse(t[7])?));
            }
            "defect" => {
                let t = &tokens.first;
                let id: u32 = tokens
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad defect id".into()))?;
                let (kind, injection) = match tokens.get(2) {
                    Some("open") => {
                        if tokens.len != 6 || t[3] != "mos" {
                            return Err(err("malformed open defect".into()));
                        }
                        let transistor = parse_transistor(t[4], cell, line_no)?;
                        (
                            DefectKind::Open,
                            Injection::Open {
                                transistor,
                                terminal: parse_terminal(t[5], line_no)?,
                            },
                        )
                    }
                    Some("short") => {
                        if tokens.len != 7 || t[3] != "mos" {
                            return Err(err("malformed short defect".into()));
                        }
                        let transistor = parse_transistor(t[4], cell, line_no)?;
                        let a = parse_terminal(t[5], line_no)?;
                        let b = parse_terminal(t[6], line_no)?;
                        if a == b {
                            return Err(err(format!("short of terminal {a} with itself")));
                        }
                        (DefectKind::Short, Injection::Short { transistor, a, b })
                    }
                    Some("netshort") => {
                        if tokens.len != 5 {
                            return Err(err("malformed net short".into()));
                        }
                        let a = parse_net(t[3], cell, line_no)?;
                        let b = parse_net(t[4], cell, line_no)?;
                        if a == b {
                            return Err(err(format!("net {} shorted to itself", a.0)));
                        }
                        (DefectKind::Short, Injection::NetShort { a, b })
                    }
                    other => return Err(err(format!("unknown defect kind {other:?}"))),
                };
                if id as usize != defects.len() {
                    return Err(err(format!(
                        "defect ids must be dense: expected {}, got {id}",
                        defects.len()
                    )));
                }
                defects.push(Defect {
                    id: DefectId(id),
                    kind,
                    injection,
                });
            }
            "degraded" => {
                if tokens.len != 1 {
                    return Err(err("malformed degraded directive".into()));
                }
                degraded = true;
            }
            "end" => {
                saw_end = true;
            }
            other => return Err(err(format!("unknown directive `{other}`"))),
        }
    }
    if !saw_end {
        return Err(ParseCamError {
            // 1-based even for an empty document.
            line: text.lines().count().max(1),
            message: "missing `end`".into(),
        });
    }
    let (name, inputs, transistors, sims) = header.ok_or(ParseCamError {
        line: 1,
        message: "missing cell header".into(),
    })?;
    if name != cell.name() || inputs != cell.num_inputs() || transistors != cell.num_transistors() {
        return Err(ParseCamError {
            line: 1,
            message: format!(
                "model is for `{name}` ({inputs} in, {transistors} T), got `{}` ({} in, {} T)",
                cell.name(),
                cell.num_inputs(),
                cell.num_transistors()
            ),
        });
    }
    rows.sort_by_key(|&(i, _, _)| i);
    if rows.iter().enumerate().any(|(i, &(j, _, _))| i != j) {
        return Err(ParseCamError {
            line: 1,
            message: "row indices must be dense".into(),
        });
    }
    if rows.len() != defects.len() {
        return Err(ParseCamError {
            line: 1,
            message: format!("{} rows for {} defects", rows.len(), defects.len()),
        });
    }
    // Every row must cover the same stimuli, and a non-degraded model
    // must cover the full 4^n stimulus set (2^n statics + transitions) —
    // a truncated or padded row line would otherwise round-trip into a
    // silently wrong detection dictionary.
    if let Some((_, first, first_line)) = rows.first() {
        let width = first.len();
        for (idx, row, line) in &rows {
            if row.len() != width {
                return Err(ParseCamError {
                    line: *line,
                    message: format!("row {idx} has {} bits, row 0 has {width}", row.len()),
                });
            }
        }
        let full = 1usize << (2 * inputs.min(usize::BITS as usize / 2 - 1));
        if !degraded && width != full {
            return Err(ParseCamError {
                line: *first_line,
                message: format!(
                    "complete model rows must cover all {full} stimuli, got {width} \
                     (budget-truncated models must carry the `degraded` directive)"
                ),
            });
        }
        if degraded && width > full {
            return Err(ParseCamError {
                line: *first_line,
                message: format!("rows cover {width} stimuli, cell has only {full}"),
            });
        }
    }
    let universe = DefectUniverse::from_defects(defects)
        .map_err(|message| ParseCamError { line: 1, message })?;
    let mut model = CaModel::from_rows(
        cell,
        universe,
        rows.into_iter().map(|(_, r, _)| r).collect(),
    );
    model.defect_simulations = sims;
    model.degraded = degraded;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GenerateOptions;
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::{spice, Technology};
    use std::fmt::Write as _;

    /// The renderer `to_cam` replaced (`writeln!` per line, a `String`
    /// collected per row): the oracle of its bytes.
    fn to_cam_reference(model: &CaModel) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "CAM 1");
        let _ = writeln!(
            out,
            "cell {} inputs {} transistors {} sims {}",
            model.cell_name, model.num_inputs, model.num_transistors, model.defect_simulations
        );
        if model.degraded {
            let _ = writeln!(out, "degraded");
        }
        for defect in model.universe.defects() {
            match defect.injection {
                Injection::None => {}
                Injection::Open {
                    transistor,
                    terminal,
                } => {
                    let _ = writeln!(
                        out,
                        "defect {} open mos {} {}",
                        defect.id.0,
                        transistor.0,
                        terminal_letter(terminal)
                    );
                }
                Injection::Short { transistor, a, b } => {
                    let _ = writeln!(
                        out,
                        "defect {} short mos {} {} {}",
                        defect.id.0,
                        transistor.0,
                        terminal_letter(a),
                        terminal_letter(b)
                    );
                }
                Injection::NetShort { a, b } => {
                    let _ = writeln!(out, "defect {} netshort {} {}", defect.id.0, a.0, b.0);
                }
            }
        }
        for (i, row) in model.rows.iter().enumerate() {
            let bits: String = (0..row.len())
                .map(|j| if row.get(j) { '1' } else { '0' })
                .collect();
            let _ = writeln!(out, "row {i} {bits}");
        }
        out.push_str("end\n");
        out
    }

    /// The parser `from_cam` replaced (a token `Vec` per line, a
    /// `BitRow::set` per bit): the oracle of what it accepts and rejects.
    fn from_cam_reference(text: &str, cell: &Cell) -> Result<CaModel, ParseCamError> {
        let mut defects: Vec<Defect> = Vec::new();
        let mut rows: Vec<(usize, BitRow, usize)> = Vec::new();
        let mut header: Option<(String, usize, usize, usize)> = None;
        let mut degraded = false;
        let mut saw_end = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let err = |message: String| ParseCamError {
                line: line_no,
                message,
            };
            match tokens[0] {
                "CAM" => {
                    if tokens.get(1) != Some(&"1") {
                        return Err(err("unsupported CAM version".into()));
                    }
                }
                "cell" => {
                    if tokens.len() != 8 || tokens[2] != "inputs" || tokens[4] != "transistors" {
                        return Err(err("malformed cell header".into()));
                    }
                    let parse = |s: &str| -> Result<usize, ParseCamError> {
                        s.parse().map_err(|_| ParseCamError {
                            line: line_no,
                            message: format!("bad number `{s}`"),
                        })
                    };
                    header = Some((
                        tokens[1].to_string(),
                        parse(tokens[3])?,
                        parse(tokens[5])?,
                        parse(tokens[7])?,
                    ));
                }
                "defect" => {
                    let id: u32 = tokens
                        .get(1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad defect id".into()))?;
                    let (kind, injection) = match tokens.get(2) {
                        Some(&"open") => {
                            if tokens.len() != 6 || tokens[3] != "mos" {
                                return Err(err("malformed open defect".into()));
                            }
                            let t = parse_transistor(tokens[4], cell, line_no)?;
                            (
                                DefectKind::Open,
                                Injection::Open {
                                    transistor: t,
                                    terminal: parse_terminal(tokens[5], line_no)?,
                                },
                            )
                        }
                        Some(&"short") => {
                            if tokens.len() != 7 || tokens[3] != "mos" {
                                return Err(err("malformed short defect".into()));
                            }
                            let t = parse_transistor(tokens[4], cell, line_no)?;
                            let a = parse_terminal(tokens[5], line_no)?;
                            let b = parse_terminal(tokens[6], line_no)?;
                            if a == b {
                                return Err(err(format!("short of terminal {a} with itself")));
                            }
                            (
                                DefectKind::Short,
                                Injection::Short {
                                    transistor: t,
                                    a,
                                    b,
                                },
                            )
                        }
                        Some(&"netshort") => {
                            if tokens.len() != 5 {
                                return Err(err("malformed net short".into()));
                            }
                            let a = parse_net(tokens[3], cell, line_no)?;
                            let b = parse_net(tokens[4], cell, line_no)?;
                            if a == b {
                                return Err(err(format!("net {} shorted to itself", a.0)));
                            }
                            (DefectKind::Short, Injection::NetShort { a, b })
                        }
                        other => return Err(err(format!("unknown defect kind {other:?}"))),
                    };
                    if id as usize != defects.len() {
                        return Err(err(format!(
                            "defect ids must be dense: expected {}, got {id}",
                            defects.len()
                        )));
                    }
                    defects.push(Defect {
                        id: DefectId(id),
                        kind,
                        injection,
                    });
                }
                "row" => {
                    let idx: usize = tokens
                        .get(1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad row index".into()))?;
                    let bits = tokens
                        .get(2)
                        .ok_or_else(|| err("missing row bits".into()))?;
                    let mut row = BitRow::zeros(bits.len());
                    for (j, c) in bits.chars().enumerate() {
                        match c {
                            '0' => {}
                            '1' => row.set(j, true),
                            _ => return Err(err(format!("bad bit `{c}`"))),
                        }
                    }
                    rows.push((idx, row, line_no));
                }
                "degraded" => {
                    if tokens.len() != 1 {
                        return Err(err("malformed degraded directive".into()));
                    }
                    degraded = true;
                }
                "end" => {
                    saw_end = true;
                }
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
        }
        if !saw_end {
            return Err(ParseCamError {
                // 1-based even for an empty document.
                line: text.lines().count().max(1),
                message: "missing `end`".into(),
            });
        }
        let (name, inputs, transistors, sims) = header.ok_or(ParseCamError {
            line: 1,
            message: "missing cell header".into(),
        })?;
        if name != cell.name()
            || inputs != cell.num_inputs()
            || transistors != cell.num_transistors()
        {
            return Err(ParseCamError {
                line: 1,
                message: format!(
                    "model is for `{name}` ({inputs} in, {transistors} T), got `{}` ({} in, {} T)",
                    cell.name(),
                    cell.num_inputs(),
                    cell.num_transistors()
                ),
            });
        }
        rows.sort_by_key(|&(i, _, _)| i);
        if rows.iter().enumerate().any(|(i, &(j, _, _))| i != j) {
            return Err(ParseCamError {
                line: 1,
                message: "row indices must be dense".into(),
            });
        }
        if rows.len() != defects.len() {
            return Err(ParseCamError {
                line: 1,
                message: format!("{} rows for {} defects", rows.len(), defects.len()),
            });
        }
        // Every row must cover the same stimuli, and a non-degraded model
        // must cover the full 4^n stimulus set (2^n statics + transitions) —
        // a truncated or padded row line would otherwise round-trip into a
        // silently wrong detection dictionary.
        if let Some((_, first, first_line)) = rows.first() {
            let width = first.len();
            for (idx, row, line) in &rows {
                if row.len() != width {
                    return Err(ParseCamError {
                        line: *line,
                        message: format!("row {idx} has {} bits, row 0 has {width}", row.len()),
                    });
                }
            }
            let full = 1usize << (2 * inputs.min(usize::BITS as usize / 2 - 1));
            if !degraded && width != full {
                return Err(ParseCamError {
                    line: *first_line,
                    message: format!(
                        "complete model rows must cover all {full} stimuli, got {width} \
                         (budget-truncated models must carry the `degraded` directive)"
                    ),
                });
            }
            if degraded && width > full {
                return Err(ParseCamError {
                    line: *first_line,
                    message: format!("rows cover {width} stimuli, cell has only {full}"),
                });
            }
        }
        let universe = DefectUniverse::from_defects(defects)
            .map_err(|message| ParseCamError { line: 1, message })?;
        let mut model = CaModel::from_rows(
            cell,
            universe,
            rows.into_iter().map(|(_, r, _)| r).collect(),
        );
        model.defect_simulations = sims;
        model.degraded = degraded;
        Ok(model)
    }

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    /// Four inputs: 256-bit rows, four words each.
    const AOI22: &str = "\
.SUBCKT AOI22 A B C D Z VDD VSS
MP0 net0 A VDD VDD pch
MP1 net0 B VDD VDD pch
MP2 Z C net0 VDD pch
MP3 Z D net0 VDD pch
MN0 Z A net1 VSS nch
MN1 net1 B VSS VSS nch
MN2 Z C net2 VSS nch
MN3 net2 D VSS VSS nch
.ENDS
";

    #[test]
    fn cam_round_trip() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        let text = to_cam(&model);
        let parsed = from_cam(&text, &cell).unwrap();
        assert_eq!(model, parsed);
    }

    #[test]
    fn cam_round_trip_with_net_shorts() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(
            &cell,
            GenerateOptions {
                inter_transistor: true,
                ..GenerateOptions::default()
            },
        );
        let text = to_cam(&model);
        let parsed = from_cam(&text, &cell).unwrap();
        assert_eq!(model, parsed);
    }

    #[test]
    fn degraded_flag_round_trips() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let budget = ca_sim::SimBudget {
            max_stimuli: Some(4),
            ..ca_sim::SimBudget::unlimited()
        };
        let model = CaModel::generate_budgeted(&cell, GenerateOptions::default(), &budget)
            .expect("truncation succeeds");
        assert!(model.degraded);
        let text = to_cam(&model);
        assert!(text.lines().any(|l| l == "degraded"), "{text}");
        let parsed = from_cam(&text, &cell).unwrap();
        assert!(parsed.degraded);
        assert_eq!(parsed.rows, model.rows);
    }

    #[test]
    fn wrong_cell_rejected() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        let text = to_cam(&model);
        let other = spice::parse_cell(
            ".SUBCKT INV A Z VDD VSS\nMP0 Z A VDD VDD pch\nMN0 Z A VSS VSS nch\n.ENDS",
        )
        .unwrap();
        assert!(from_cam(&text, &other).is_err());
    }

    #[test]
    fn malformed_documents_rejected() {
        let cell = spice::parse_cell(NAND2).unwrap();
        for bad in [
            "",
            "CAM 2\nend",
            "CAM 1\ncell NAND2 inputs 2 transistors 4 sims 0\nrow 0 01\nend",
            "CAM 1\ncell NAND2 inputs 2 transistors 4 sims 0\ndefect 5 open mos 0 D\nend",
            "CAM 1\ncell NAND2 inputs 2 transistors 4 sims 0\ndefect 0 open mos 0 Q\nend",
        ] {
            assert!(from_cam(bad, &cell).is_err(), "{bad:?}");
        }
    }

    /// Structural invariants any *accepted* document must satisfy — a
    /// parse that returns `Ok` with these violated is the "silently
    /// wrong model" failure mode the hardening exists to prevent.
    fn assert_well_formed(model: &CaModel, cell: &ca_netlist::Cell) {
        assert_eq!(model.rows.len(), model.universe.len());
        assert!(model.num_inputs == cell.num_inputs());
        let full = 1usize << (2 * cell.num_inputs());
        for row in &model.rows {
            assert_eq!(row.len(), model.rows[0].len());
            assert!(row.len() <= full);
            if !model.degraded {
                assert_eq!(row.len(), full);
            }
        }
    }

    #[test]
    fn truncated_documents_error_never_panic() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        let text = to_cam(&model);
        // Every byte-prefix of a valid document must error — or, where
        // only trailing newline bytes were cut, still parse to the very
        // same model. Never a panic, never a shortened model.
        for cut in 0..text.len() {
            match from_cam(&text[..cut], &cell) {
                Ok(parsed) => {
                    assert_eq!(parsed, model, "prefix of {cut} bytes changed the model");
                    assert!(text[cut..].trim().is_empty());
                }
                Err(e) => assert!(e.line >= 1),
            }
        }
        assert_eq!(from_cam(&text, &cell).unwrap(), model);
    }

    #[test]
    fn bit_flipped_documents_never_panic_or_yield_malformed_models() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        let text = to_cam(&model);
        let bytes = text.as_bytes();
        let mut rng = ca_rng::SplitMix64::new(0xF1A5);
        for _ in 0..500 {
            let mut mutated = bytes.to_vec();
            let at = (rng.next_u64() as usize) % mutated.len();
            let bit = (rng.next_u64() % 8) as u32;
            mutated[at] ^= 1 << bit;
            let Ok(mutated) = String::from_utf8(mutated) else {
                continue; // a non-UTF-8 flip can't even reach the parser
            };
            // A flip inside a row's 0/1 bits is undetectable in a
            // checksum-less text format (that integrity layer is the
            // session store's CRC framing); everything *structural* must
            // either still parse to a well-formed model or error with a
            // real line number.
            match from_cam(&mutated, &cell) {
                Ok(parsed) => assert_well_formed(&parsed, &cell),
                Err(e) => {
                    assert!(
                        e.line >= 1 && e.line <= mutated.lines().count().max(1),
                        "{e}"
                    )
                }
            }
        }
    }

    #[test]
    fn line_shuffled_documents_parse_identically_or_error() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(
            &cell,
            GenerateOptions {
                inter_transistor: true,
                ..GenerateOptions::default()
            },
        );
        let text = to_cam(&model);
        let mut rng = ca_rng::SplitMix64::new(0x5_4FF1);
        for _ in 0..100 {
            let mut lines: Vec<&str> = text.lines().collect();
            // Fisher–Yates with the in-tree rng.
            for i in (1..lines.len()).rev() {
                let j = (rng.next_u64() as usize) % (i + 1);
                lines.swap(i, j);
            }
            let shuffled = lines.join("\n");
            // The format is declaration-order-insensitive, so a shuffle
            // either still reconstructs the *same* model or is rejected
            // (e.g. defect ids no longer dense in file order) — it can
            // never quietly produce a different one.
            match from_cam(&shuffled, &cell) {
                Ok(parsed) => assert_eq!(parsed, model),
                Err(e) => assert!(e.line >= 1),
            }
        }
    }

    #[test]
    fn row_width_violations_are_rejected_with_line_numbers() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        let text = to_cam(&model);
        // Truncate the bits of the *second* row line.
        let mutated: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let second_row_line = mutated
            .iter()
            .position(|l| l.starts_with("row 1 "))
            .expect("document has rows");
        let mut truncated = mutated.clone();
        truncated[second_row_line].truncate("row 1 ".len() + 3);
        let err = from_cam(&truncated.join("\n"), &cell).unwrap_err();
        assert_eq!(err.line, second_row_line + 1, "{err}");
        assert!(err.message.contains("row 1 has 3 bits"), "{err}");

        // Truncate *every* row uniformly: widths agree, but a complete
        // model no longer covers the stimulus set.
        let uniformly_cut: Vec<String> = mutated
            .iter()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("row ") {
                    let (idx, bits) = rest.split_once(' ').expect("row syntax");
                    format!("row {idx} {}", &bits[..4])
                } else {
                    l.clone()
                }
            })
            .collect();
        let err = from_cam(&uniformly_cut.join("\n"), &cell).unwrap_err();
        assert!(err.message.contains("degraded"), "{err}");
    }

    #[test]
    fn out_of_range_injections_are_rejected_with_line_numbers() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let header = "CAM 1\ncell NAND2 inputs 2 transistors 4 sims 0\n";
        for (body, fragment) in [
            (
                "defect 0 open mos 9 D\nend\n",
                "transistor index 9 out of range",
            ),
            (
                "defect 0 short mos 4 D S\nend\n",
                "transistor index 4 out of range",
            ),
            ("defect 0 short mos 0 D D\nend\n", "with itself"),
            ("defect 0 netshort 0 99\nend\n", "net id 99 out of range"),
            ("defect 0 netshort 3 3\nend\n", "shorted to itself"),
        ] {
            let doc = format!("{header}{body}");
            let err = from_cam(&doc, &cell).unwrap_err();
            assert_eq!(err.line, 3, "{err}");
            assert!(err.message.contains(fragment), "{err}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        let mut text = String::from("# stored model\n\n");
        text.push_str(&to_cam(&model));
        assert_eq!(from_cam(&text, &cell).unwrap(), model);
    }

    fn with_net_shorts() -> GenerateOptions {
        GenerateOptions {
            inter_transistor: true,
            ..GenerateOptions::default()
        }
    }

    fn truncated(cell: &Cell, max_stimuli: usize) -> CaModel {
        let budget = ca_sim::SimBudget {
            max_stimuli: Some(max_stimuli),
            ..ca_sim::SimBudget::unlimited()
        };
        let model = CaModel::generate_budgeted(cell, GenerateOptions::default(), &budget)
            .expect("truncation succeeds");
        assert!(model.degraded && model.rows[0].len() == max_stimuli);
        model
    }

    /// The renderer writes the reference renderer's bytes, and the
    /// parser reads them back to the same model.
    fn assert_codec_exact(model: &CaModel, cell: &Cell) {
        let text = to_cam(model);
        assert_eq!(text, to_cam_reference(model), "{}", cell.name());
        assert_eq!(from_cam(&text, cell).as_ref(), Ok(model), "{}", cell.name());
    }

    #[test]
    fn codec_matches_reference_on_every_quick_library_model() {
        let mut widths = std::collections::BTreeSet::new();
        for tech in Technology::ALL {
            for lc in generate_library(&LibraryConfig::quick(tech)).cells {
                let model = CaModel::generate(&lc.cell, GenerateOptions::default());
                widths.extend(model.rows.first().map(BitRow::len));
                assert_codec_exact(&model, &lc.cell);
            }
        }
        // 1-, 2- and 3-input cells: rows of half a byte, two bytes and
        // one whole word.
        assert_eq!(widths.into_iter().collect::<Vec<_>>(), [4, 16, 64]);
    }

    #[test]
    fn codec_matches_reference_with_net_shorts_and_mid_word_rows() {
        let nand2 = spice::parse_cell(NAND2).unwrap();
        let aoi22 = spice::parse_cell(AOI22).unwrap();
        for cell in [&nand2, &aoi22] {
            let model = CaModel::generate(cell, with_net_shorts());
            assert!(model
                .universe
                .defects()
                .iter()
                .any(|d| matches!(d.injection, Injection::NetShort { .. })));
            assert_codec_exact(&model, cell);
        }
        // Degraded rows that stop inside a byte, inside the first word,
        // just past it and inside the fourth.
        for (cell, max_stimuli) in [(&nand2, 3), (&nand2, 13), (&aoi22, 65), (&aoi22, 230)] {
            assert_codec_exact(&truncated(cell, max_stimuli), cell);
        }
    }

    /// Whitespace of every kind, non-ASCII characters and stray tokens,
    /// spliced into real documents at random and on purpose: the parser
    /// returns what the reference parser returns, error messages and
    /// line numbers included.
    #[test]
    fn parser_accepts_and_rejects_exactly_what_the_reference_does() {
        let nand2 = spice::parse_cell(NAND2).unwrap();
        let aoi22 = spice::parse_cell(AOI22).unwrap();
        let plain = to_cam(&CaModel::generate(&nand2, GenerateOptions::default()));
        let check = |doc: &str, cell: &Cell| {
            assert_eq!(
                from_cam(doc, cell),
                from_cam_reference(doc, cell),
                "{doc:?}"
            );
        };

        let row0 = plain.lines().find(|l| l.starts_with("row 0 ")).unwrap();
        let bits = &row0["row 0 ".len()..];
        let long = "01".repeat(40);
        for line in [
            format!("row 0 {bits} extra"),
            format!("row\t0\t{bits}"),
            format!("row 0 {}\u{A0}{}", &bits[..8], &bits[8..]),
            format!("row 0 {bits}\u{2003}junk"),
            format!("row 0 \u{3000}{bits}"),
            format!("row +0 {bits}"),
            format!("row 0 {bits}x"),
            format!("row 0 {bits}\u{e9}"),
            format!("row 0 \u{e9}{bits}"),
            format!("row 0 {long}"),
            format!("row 0 {long}2"),
            format!("row 0 {}\x0B{}", &long[..64], &long[64..]),
            format!("rowx 0 {bits}"),
            "row 0".to_string(),
            "row".to_string(),
            "CAM 1 extra".to_string(),
            "CAM\t1".to_string(),
            "degraded x".to_string(),
            "degraded".to_string(),
            "end junk".to_string(),
        ] {
            check(&plain.replace(row0, &line), &nand2);
        }

        const SPLICES: [&str; 18] = [
            " ", "\t", "\x0B", "\x0C", "\r", "\r\n", "\n", "\u{A0}", "\u{2003}", "\u{3000}",
            "\u{e9}", "0", "1", "x", "#", "+", "-", "row 9 ",
        ];
        let docs = [
            (&nand2, plain.clone()),
            (
                &aoi22,
                to_cam(&CaModel::generate(&aoi22, with_net_shorts())),
            ),
            (&aoi22, to_cam(&truncated(&aoi22, 100))),
        ];
        let mut rng = ca_rng::SplitMix64::new(0xCA_D1FF);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        for (cell, text) in &docs {
            for _ in 0..300 {
                let mut doc = text.clone();
                for _ in 0..1 + pick(3) {
                    let mut at = pick(doc.len() + 1);
                    while !doc.is_char_boundary(at) {
                        at -= 1;
                    }
                    let splice = SPLICES[pick(SPLICES.len())];
                    let cut = doc[at..].chars().next().map_or(0, char::len_utf8);
                    match pick(3) {
                        0 => doc.insert_str(at, splice),
                        1 => doc.replace_range(at..at + cut, ""),
                        _ => doc.replace_range(at..at + cut, splice),
                    }
                }
                check(&doc, cell);
            }
        }
    }
}
