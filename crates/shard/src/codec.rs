//! Lossless library codec for the worker process boundary.
//!
//! Workers receive their shard as a file. SPICE would be the obvious
//! format, but the SPICE parser *infers* pin roles from channel
//! connectivity — which is exactly what a deliberately broken cell
//! (floating output, dangling gate) does not preserve, and broken
//! cells are the robustness pipeline's reason to exist. This codec
//! instead serializes the netlist model itself: net kinds are explicit
//! and net/transistor order is exact, so `decode(encode(cell))` equals
//! the original cell for everything [`ca_netlist::CellBuilder`]
//! accepts. Library-cell metadata (function, template, drive) is *not*
//! carried: the robust driver and the journal records depend only on
//! the netlist, so workers run with placeholder metadata and the
//! supervisor keeps the real metadata for the final pass.
//!
//! Grammar (one token-separated record per line):
//!
//! ```text
//! calib/1
//! tech <name>
//! cells <count>
//! cell <name> <num_nets> <num_transistors>
//! net <name> <input|output|internal|power|ground>
//! mos <name> <n|p> <drain> <gate> <source> <bulk> <w_nm> <l_nm>
//! endcell
//! end
//! ```
//!
//! Net references are indices into the cell's net list, preserving ids
//! exactly. Names containing whitespace cannot be framed; such cells
//! fail [`round_trips`] and stay on the supervisor's in-process path.

use ca_netlist::library::{Library, LibraryCell, Technology};
use ca_netlist::{Cell, CellBuilder, Expr, MosKind, NetId, NetKind};
use std::fmt;

/// Format tag of the first line; bump on any grammar change.
const MAGIC: &str = "calib/1";

/// A malformed document (or one this version cannot read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn kind_token(kind: NetKind) -> &'static str {
    match kind {
        NetKind::Input => "input",
        NetKind::Output => "output",
        NetKind::Internal => "internal",
        NetKind::Power => "power",
        NetKind::Ground => "ground",
    }
}

fn parse_kind(token: &str) -> Result<NetKind, CodecError> {
    match token {
        "input" => Ok(NetKind::Input),
        "output" => Ok(NetKind::Output),
        "internal" => Ok(NetKind::Internal),
        "power" => Ok(NetKind::Power),
        "ground" => Ok(NetKind::Ground),
        other => Err(CodecError(format!("unknown net kind `{other}`"))),
    }
}

fn parse_tech(token: &str) -> Result<Technology, CodecError> {
    Technology::ALL
        .into_iter()
        .find(|t| t.name() == token)
        .ok_or_else(|| CodecError(format!("unknown technology `{token}`")))
}

/// Encodes `library` (netlists and technology only; see module docs).
pub fn encode_library(library: &Library) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "tech {}", library.technology.name());
    let _ = writeln!(out, "cells {}", library.cells.len());
    for lc in &library.cells {
        encode_cell(&mut out, &lc.cell);
    }
    out.push_str("end\n");
    out
}

fn encode_cell(out: &mut String, cell: &Cell) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "cell {} {} {}",
        cell.name(),
        cell.nets().len(),
        cell.num_transistors()
    );
    for net in cell.nets() {
        let _ = writeln!(out, "net {} {}", net.name(), kind_token(net.kind()));
    }
    for t in cell.transistors() {
        let _ = writeln!(
            out,
            "mos {} {} {} {} {} {} {} {}",
            t.name(),
            t.kind().letter(),
            t.drain().index(),
            t.gate().index(),
            t.source().index(),
            t.bulk().index(),
            t.width_nm(),
            t.length_nm()
        );
    }
    out.push_str("endcell\n");
}

/// Decodes a [`encode_library`] document. Worker-side metadata is a
/// placeholder (see module docs): only `cell` and `technology` are
/// meaningful in the returned library.
///
/// # Errors
///
/// [`CodecError`] on any framing, reference or validation failure —
/// including cells the [`CellBuilder`] rejects (e.g. transistor-less
/// cells, which only the corruption harness can construct).
pub fn decode_library(text: &str) -> Result<Library, CodecError> {
    let mut lines = text.lines().enumerate();
    let mut next = |want: &str| -> Result<(usize, Vec<String>), CodecError> {
        for (no, raw) in lines.by_ref() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            return Ok((no + 1, tokens));
        }
        Err(CodecError(format!("unexpected end of document ({want})")))
    };

    let (_, magic) = next("magic")?;
    if magic != [MAGIC] {
        return Err(CodecError(format!("bad magic {magic:?}")));
    }
    let (no, tech) = next("tech")?;
    let [ref kw, ref name] = tech[..] else {
        return Err(CodecError(format!("line {no}: malformed tech line")));
    };
    if kw != "tech" {
        return Err(CodecError(format!("line {no}: expected `tech`")));
    }
    let technology = parse_tech(name)?;
    let (no, count) = next("cells")?;
    let [ref kw, ref n] = count[..] else {
        return Err(CodecError(format!("line {no}: malformed cells line")));
    };
    if kw != "cells" {
        return Err(CodecError(format!("line {no}: expected `cells`")));
    }
    let count: usize = n
        .parse()
        .map_err(|_| CodecError(format!("line {no}: bad cell count `{n}`")))?;

    let mut cells = Vec::with_capacity(count);
    for _ in 0..count {
        let (no, header) = next("cell header")?;
        let [ref kw, ref name, ref nets, ref mos] = header[..] else {
            return Err(CodecError(format!("line {no}: malformed cell header")));
        };
        if kw != "cell" {
            return Err(CodecError(format!("line {no}: expected `cell`")));
        }
        let num_nets: usize = nets
            .parse()
            .map_err(|_| CodecError(format!("line {no}: bad net count")))?;
        let num_mos: usize = mos
            .parse()
            .map_err(|_| CodecError(format!("line {no}: bad transistor count")))?;
        let mut builder = CellBuilder::new(name.clone());
        for _ in 0..num_nets {
            let (no, line) = next("net")?;
            let [ref kw, ref name, ref kind] = line[..] else {
                return Err(CodecError(format!("line {no}: malformed net line")));
            };
            if kw != "net" {
                return Err(CodecError(format!("line {no}: expected `net`")));
            }
            let before = builder.num_nets();
            builder.add_net(name.clone(), parse_kind(kind)?);
            if builder.num_nets() == before {
                return Err(CodecError(format!("line {no}: duplicate net `{name}`")));
            }
        }
        let net_id = |token: &str, no: usize| -> Result<NetId, CodecError> {
            let idx: u32 = token
                .parse()
                .map_err(|_| CodecError(format!("line {no}: bad net index `{token}`")))?;
            if (idx as usize) >= num_nets {
                return Err(CodecError(format!(
                    "line {no}: net index {idx} out of range"
                )));
            }
            Ok(NetId(idx))
        };
        for _ in 0..num_mos {
            let (no, line) = next("mos")?;
            let [ref kw, ref name, ref kind, ref d, ref g, ref s, ref b, ref w, ref l] = line[..]
            else {
                return Err(CodecError(format!("line {no}: malformed mos line")));
            };
            if kw != "mos" {
                return Err(CodecError(format!("line {no}: expected `mos`")));
            }
            let kind = match kind.as_str() {
                "n" => MosKind::Nmos,
                "p" => MosKind::Pmos,
                other => return Err(CodecError(format!("line {no}: bad mos kind `{other}`"))),
            };
            let w: u32 = w
                .parse()
                .map_err(|_| CodecError(format!("line {no}: bad width")))?;
            let l: u32 = l
                .parse()
                .map_err(|_| CodecError(format!("line {no}: bad length")))?;
            builder
                .add_transistor(
                    name.clone(),
                    kind,
                    net_id(d, no)?,
                    net_id(g, no)?,
                    net_id(s, no)?,
                    net_id(b, no)?,
                    w,
                    l,
                )
                .map_err(|e| CodecError(format!("line {no}: {e}")))?;
        }
        let (no, end) = next("endcell")?;
        if end != ["endcell"] {
            return Err(CodecError(format!("line {no}: expected `endcell`")));
        }
        let cell = builder
            .build()
            .map_err(|e| CodecError(format!("cell rejected: {e}")))?;
        cells.push(LibraryCell {
            cell,
            // Placeholder metadata: the robust driver and the journal
            // records depend only on the netlist (see module docs).
            function: Expr::var(0),
            template: String::new(),
            drive: 1,
            style: Default::default(),
        });
    }
    let (no, end) = next("end")?;
    if end != ["end"] {
        return Err(CodecError(format!("line {no}: expected `end`")));
    }
    Ok(Library { technology, cells })
}

/// Whether `cell` survives the process boundary bit-for-bit. Cells
/// that do not (names with whitespace, builder-rejected structures)
/// are characterized in-process by the supervisor instead of being
/// shipped to a worker.
pub fn round_trips(cell: &Cell) -> bool {
    let mut doc = String::from("calib/1\ntech C40\ncells 1\n");
    encode_cell(&mut doc, cell);
    doc.push_str("end\n");
    match decode_library(&doc) {
        Ok(lib) => matches!(lib.cells.as_slice(), [only] if only.cell == *cell),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::corrupt::{corrupt_cell, Corruption};
    use ca_netlist::library::{generate_library, LibraryConfig};

    fn strip_meta(lib: &Library) -> Vec<&Cell> {
        lib.cells.iter().map(|lc| &lc.cell).collect()
    }

    #[test]
    fn generated_libraries_round_trip_exactly() {
        for tech in Technology::ALL {
            let lib = generate_library(&LibraryConfig::quick(tech));
            let decoded = decode_library(&encode_library(&lib)).expect("decode");
            assert_eq!(decoded.technology, tech);
            assert_eq!(strip_meta(&decoded), strip_meta(&lib), "{tech}");
            for lc in &lib.cells {
                assert!(round_trips(&lc.cell), "{}", lc.cell.name());
            }
        }
    }

    #[test]
    fn corrupted_cells_round_trip_too() {
        // The whole point of the codec: damage that SPICE role
        // inference would mangle survives the process boundary.
        let lib = generate_library(&LibraryConfig::quick(Technology::C40));
        for corruption in [
            Corruption::FloatingOutput,
            Corruption::DanglingGate,
            Corruption::OscillatorLoop,
        ] {
            let bad = corrupt_cell(&lib.cells[1].cell, corruption, 7).expect("corrupt");
            assert!(round_trips(&bad), "{corruption:?}");
        }
    }

    #[test]
    fn transistor_less_cells_are_rejected_not_mangled() {
        let lib = generate_library(&LibraryConfig::quick(Technology::C40));
        let bad = corrupt_cell(&lib.cells[0].cell, Corruption::ZeroTransistor, 5).expect("corrupt");
        assert!(!round_trips(&bad));
    }

    #[test]
    fn encoding_is_deterministic() {
        let lib = generate_library(&LibraryConfig::quick(Technology::Soi28));
        assert_eq!(encode_library(&lib), encode_library(&lib));
    }

    #[test]
    fn malformed_documents_error_cleanly() {
        for doc in [
            "",
            "calib/9\n",
            "calib/1\ntech Q99\ncells 0\nend\n",
            "calib/1\ntech C40\ncells 1\nend\n",
            "calib/1\ntech C40\ncells 1\ncell X 1 0\nnet a input\nendcell\nend\n",
            "calib/1\ntech C40\ncells 0\n",
        ] {
            assert!(decode_library(doc).is_err(), "{doc:?}");
        }
    }
}
