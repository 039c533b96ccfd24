//! Synthetic standard-cell library generation.
//!
//! Stands in for the paper's proprietary C40 / 28SOI / C28 libraries: a
//! catalog of ~45 combinational functions is rendered per technology with
//! that technology's netlist conventions (device/net naming, sizing,
//! device ordering) and expanded into drive-strength and skew variants.
//! Each technology also owns a few *exclusive* functions that no other
//! technology has — these are the paper's poorly-predicted "new logic
//! function" cells (§V.B).
//!
//! Everything is deterministic given the [`LibraryConfig`] seed.

use crate::expr::Expr;
use crate::model::Cell;
use crate::synth::{synthesize, DriveStyle, NetlistStyle, Stage, StageExpr, StagePlan};
use std::fmt;

/// The three synthetic technologies mirroring the paper's dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Technology {
    /// 40 nm bulk technology (paper: 446 cells).
    C40,
    /// 28 nm SOI technology (paper: 825 cells) — the training corpus.
    Soi28,
    /// 28 nm bulk technology (paper: 441 cells).
    C28,
}

impl Technology {
    /// All technologies, in paper order.
    pub const ALL: [Technology; 3] = [Technology::C40, Technology::Soi28, Technology::C28];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Technology::C40 => "C40",
            Technology::Soi28 => "28SOI",
            Technology::C28 => "C28",
        }
    }

    /// Approximate number of cells the paper reports for this technology.
    pub fn paper_cell_count(self) -> usize {
        match self {
            Technology::C40 => 446,
            Technology::Soi28 => 825,
            Technology::C28 => 441,
        }
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Netlist conventions of one technology.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TechStyle {
    /// The technology this style renders.
    pub tech: Technology,
    /// Base netlist style (prefixes, rails, sizes).
    pub base: NetlistStyle,
    /// Per-technology seed mixed into each cell's device-order shuffle.
    pub order_seed: u64,
}

impl TechStyle {
    /// The default conventions for `tech`.
    pub fn for_tech(tech: Technology) -> TechStyle {
        let base = match tech {
            Technology::C40 => NetlistStyle {
                nmos_prefix: "MN".into(),
                pmos_prefix: "MP".into(),
                net_prefix: "net".into(),
                vdd_name: "VDD".into(),
                gnd_name: "VSS".into(),
                nmos_width_nm: 300,
                pmos_width_nm: 450,
                length_nm: 40,
                ..NetlistStyle::default()
            },
            Technology::Soi28 => NetlistStyle {
                nmos_prefix: "M".into(),
                pmos_prefix: "MP".into(),
                net_prefix: "n".into(),
                vdd_name: "VDD".into(),
                gnd_name: "GND".into(),
                nmos_width_nm: 200,
                pmos_width_nm: 260,
                length_nm: 28,
                ..NetlistStyle::default()
            },
            Technology::C28 => NetlistStyle {
                nmos_prefix: "XMN".into(),
                pmos_prefix: "XMP".into(),
                net_prefix: "int".into(),
                vdd_name: "VPWR".into(),
                gnd_name: "VGND".into(),
                nmos_width_nm: 220,
                pmos_width_nm: 300,
                length_nm: 28,
                ..NetlistStyle::default()
            },
        };
        let order_seed = match tech {
            Technology::C40 => 0x0C40,
            Technology::Soi28 => 0x2850,
            Technology::C28 => 0x0C28,
        };
        TechStyle {
            tech,
            base,
            order_seed,
        }
    }
}

/// A catalog entry: a named function with its gate plan.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CellTemplate {
    /// Function name (e.g. `AOI21`).
    pub name: String,
    /// The multi-stage plan implementing the function.
    pub plan: StagePlan,
}

impl CellTemplate {
    fn new(name: &str, plan: StagePlan) -> CellTemplate {
        CellTemplate {
            name: name.into(),
            plan,
        }
    }
}

fn lit(i: u8) -> StageExpr {
    StageExpr::pin(i)
}

fn and_of(pins: &[u8]) -> StageExpr {
    StageExpr::And(pins.iter().map(|&i| lit(i)).collect())
}

fn or_of(pins: &[u8]) -> StageExpr {
    StageExpr::Or(pins.iter().map(|&i| lit(i)).collect())
}

/// `AOI` pull-down: OR of AND groups. Groups of size 1 collapse to literals.
fn aoi_expr(groups: &[&[u8]]) -> StageExpr {
    let terms: Vec<StageExpr> = groups
        .iter()
        .map(|g| if g.len() == 1 { lit(g[0]) } else { and_of(g) })
        .collect();
    if terms.len() == 1 {
        terms.into_iter().next().expect("non-empty group list")
    } else {
        StageExpr::Or(terms)
    }
}

/// `OAI` pull-down: AND of OR groups.
fn oai_expr(groups: &[&[u8]]) -> StageExpr {
    let terms: Vec<StageExpr> = groups
        .iter()
        .map(|g| if g.len() == 1 { lit(g[0]) } else { or_of(g) })
        .collect();
    if terms.len() == 1 {
        terms.into_iter().next().expect("non-empty group list")
    } else {
        StageExpr::And(terms)
    }
}

fn single(n: u8, expr: StageExpr) -> StagePlan {
    StagePlan::single(n, expr).expect("catalog plan is valid")
}

fn plan(n: u8, stages: Vec<Stage>) -> StagePlan {
    StagePlan::new(n, stages).expect("catalog plan is valid")
}

fn inverting_plus_buffer(n: u8, expr: StageExpr) -> StagePlan {
    plan(n, vec![Stage::new(expr), Stage::new(StageExpr::stage(0))])
}

/// XOR2 plan: input inverters + AOI22-style stage (12 transistors).
fn xor2_plan() -> StagePlan {
    plan(
        2,
        vec![
            Stage::new(lit(0)), // s0 = !A
            Stage::new(lit(1)), // s1 = !B
            Stage::new(StageExpr::Or(vec![
                StageExpr::And(vec![lit(0), lit(1)]),
                StageExpr::And(vec![StageExpr::stage(0), StageExpr::stage(1)]),
            ])), // Z = !(AB | !A!B) = XOR
        ],
    )
}

/// XNOR2 plan (12 transistors).
fn xnor2_plan() -> StagePlan {
    plan(
        2,
        vec![
            Stage::new(lit(0)),
            Stage::new(lit(1)),
            Stage::new(StageExpr::Or(vec![
                StageExpr::And(vec![lit(0), StageExpr::stage(1)]),
                StageExpr::And(vec![StageExpr::stage(0), lit(1)]),
            ])), // Z = !(A!B | !AB) = XNOR
        ],
    )
}

/// XOR3 plan (24 transistors).
fn xor3_plan() -> StagePlan {
    plan(
        3,
        vec![
            Stage::new(lit(0)), // s0 = !A
            Stage::new(lit(1)), // s1 = !B
            Stage::new(StageExpr::Or(vec![
                StageExpr::And(vec![lit(0), StageExpr::stage(1)]),
                StageExpr::And(vec![StageExpr::stage(0), lit(1)]),
            ])), // s2 = XNOR(A,B)
            Stage::new(StageExpr::stage(2)), // s3 = XOR(A,B)
            Stage::new(lit(2)), // s4 = !C
            Stage::new(StageExpr::Or(vec![
                StageExpr::And(vec![StageExpr::stage(3), lit(2)]),
                StageExpr::And(vec![StageExpr::stage(2), StageExpr::stage(4)]),
            ])), // s5 = !(xC | !x!C) = XOR(x, C)
        ],
    )
}

/// MUX2 plan: Z = S ? B : A (select inverter + AOI + output inverter).
fn mux2_plan(inverted: bool) -> StagePlan {
    let core = vec![
        Stage::new(lit(2)), // s0 = !S
        Stage::new(StageExpr::Or(vec![
            StageExpr::And(vec![lit(1), lit(2)]),              // B & S
            StageExpr::And(vec![lit(0), StageExpr::stage(0)]), // A & !S
        ])), // s1 = !(BS | A!S) = MUXI
    ];
    if inverted {
        plan(3, core)
    } else {
        let mut stages = core;
        stages.push(Stage::new(StageExpr::stage(1)));
        plan(3, stages)
    }
}

/// Majority-of-three pull-down.
fn maj3_expr() -> StageExpr {
    StageExpr::Or(vec![
        StageExpr::And(vec![lit(0), lit(1)]),
        StageExpr::And(vec![lit(0), lit(2)]),
        StageExpr::And(vec![lit(1), lit(2)]),
    ])
}

/// The shared function catalog (available in every technology).
pub fn base_catalog() -> Vec<CellTemplate> {
    let mut out = Vec::new();
    out.push(CellTemplate::new("INV", single(1, lit(0))));
    out.push(CellTemplate::new("BUF", inverting_plus_buffer(1, lit(0))));
    for k in 2..=5u8 {
        let pins: Vec<u8> = (0..k).collect();
        out.push(CellTemplate::new(
            &format!("NAND{k}"),
            single(k, and_of(&pins)),
        ));
        out.push(CellTemplate::new(
            &format!("NOR{k}"),
            single(k, or_of(&pins)),
        ));
        out.push(CellTemplate::new(
            &format!("AND{k}"),
            inverting_plus_buffer(k, and_of(&pins)),
        ));
        out.push(CellTemplate::new(
            &format!("OR{k}"),
            inverting_plus_buffer(k, or_of(&pins)),
        ));
    }
    // AOI / OAI family.
    let aoi_cases: [(&str, &[&[u8]], u8); 10] = [
        ("21", &[&[0, 1], &[2]], 3),
        ("22", &[&[0, 1], &[2, 3]], 4),
        ("211", &[&[0, 1], &[2], &[3]], 4),
        ("221", &[&[0, 1], &[2, 3], &[4]], 5),
        ("222", &[&[0, 1], &[2, 3], &[4, 5]], 6),
        ("31", &[&[0, 1, 2], &[3]], 4),
        ("32", &[&[0, 1, 2], &[3, 4]], 5),
        ("33", &[&[0, 1, 2], &[3, 4, 5]], 6),
        ("311", &[&[0, 1, 2], &[3], &[4]], 5),
        ("41", &[&[0, 1, 2, 3], &[4]], 5),
    ];
    for (tag, groups, n) in aoi_cases {
        out.push(CellTemplate::new(
            &format!("AOI{tag}"),
            single(n, aoi_expr(groups)),
        ));
        out.push(CellTemplate::new(
            &format!("OAI{tag}"),
            single(n, oai_expr(groups)),
        ));
        out.push(CellTemplate::new(
            &format!("AO{tag}"),
            inverting_plus_buffer(n, aoi_expr(groups)),
        ));
        out.push(CellTemplate::new(
            &format!("OA{tag}"),
            inverting_plus_buffer(n, oai_expr(groups)),
        ));
    }
    out.push(CellTemplate::new("XOR2", xor2_plan()));
    out.push(CellTemplate::new("XNOR2", xnor2_plan()));
    out.push(CellTemplate::new("MUX2", mux2_plan(false)));
    out.push(CellTemplate::new("MUX2I", mux2_plan(true)));
    out
}

/// Technology-exclusive functions (the "new logic function" cells of §V.B).
pub fn exclusive_catalog(tech: Technology) -> Vec<CellTemplate> {
    match tech {
        Technology::Soi28 => vec![
            CellTemplate::new("MAJ3I", single(3, maj3_expr())),
            CellTemplate::new(
                "NAND2B",
                plan(
                    2,
                    vec![
                        Stage::new(lit(0)),
                        Stage::new(StageExpr::And(vec![StageExpr::stage(0), lit(1)])),
                    ],
                ),
            ),
        ],
        Technology::C28 => vec![
            CellTemplate::new("XOR3", xor3_plan()),
            CellTemplate::new("MAJ3", inverting_plus_buffer(3, maj3_expr())),
            CellTemplate::new(
                "NOR2B",
                plan(
                    2,
                    vec![
                        Stage::new(lit(0)),
                        Stage::new(StageExpr::Or(vec![StageExpr::stage(0), lit(1)])),
                    ],
                ),
            ),
            CellTemplate::new(
                "AOI2BB1",
                plan(
                    3,
                    vec![
                        Stage::new(lit(0)),
                        Stage::new(lit(1)),
                        Stage::new(StageExpr::Or(vec![
                            StageExpr::And(vec![StageExpr::stage(0), StageExpr::stage(1)]),
                            lit(2),
                        ])),
                    ],
                ),
            ),
        ],
        Technology::C40 => vec![
            CellTemplate::new(
                "MUX2B",
                plan(
                    3,
                    vec![
                        Stage::new(lit(2)),
                        Stage::new(lit(0)),
                        Stage::new(StageExpr::Or(vec![
                            StageExpr::And(vec![lit(1), lit(2)]),
                            StageExpr::And(vec![StageExpr::stage(1), StageExpr::stage(0)]),
                        ])),
                    ],
                ),
            ),
            CellTemplate::new(
                "NAND3B",
                plan(
                    3,
                    vec![
                        Stage::new(lit(0)),
                        Stage::new(StageExpr::And(vec![StageExpr::stage(0), lit(1), lit(2)])),
                    ],
                ),
            ),
        ],
    }
}

/// A generated library cell with provenance metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LibraryCell {
    /// The transistor netlist.
    pub cell: Cell,
    /// Functional reference.
    pub function: Expr,
    /// Catalog template the cell came from.
    pub template: String,
    /// Drive factor.
    pub drive: u8,
    /// Replication style (meaningful for drive > 1).
    pub style: DriveStyle,
}

/// A generated standard-cell library.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Library {
    /// The technology the library belongs to.
    pub technology: Technology,
    /// All cells.
    pub cells: Vec<LibraryCell>,
}

impl Library {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterator over the raw [`Cell`]s.
    pub fn iter_cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().map(|c| &c.cell)
    }
}

/// Parameters of library generation.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LibraryConfig {
    /// Technology to render.
    pub tech: Technology,
    /// Skip catalog entries with more inputs than this (runtime control:
    /// the CA-matrix has `4^n` rows).
    pub max_inputs: u8,
    /// Skip variants that exceed this transistor count.
    pub max_transistors: usize,
    /// Drive factors to expand in [`DriveStyle::SharedNets`].
    pub shared_drives: Vec<u8>,
    /// Drive factors to also expand in [`DriveStyle::SplitFingers`].
    pub split_drives: Vec<u8>,
    /// Generate a 25%-wider "skew" sizing variant of every cell.
    pub skew_variants: bool,
    /// Threshold-flavor variants as `(suffix, width scale)` pairs, e.g.
    /// `("LVT", 0.9)` / `("HVT", 1.1)`. Real libraries ship every cell in
    /// several VT flavors that differ only in sizing/implant, never in
    /// topology. Empty (the default constructors) generates none.
    pub vt_variants: Vec<(String, f32)>,
    /// Include the technology-exclusive functions.
    pub include_exclusive: bool,
    /// Fraction of the shared catalog each technology keeps; the kept
    /// subset is a deterministic per-technology selection, so different
    /// technologies drop *different* templates. `1.0` keeps everything.
    pub template_keep_fraction: f64,
}

impl LibraryConfig {
    /// Full-size configuration approximating the paper's library scale.
    pub fn full(tech: Technology) -> LibraryConfig {
        LibraryConfig {
            tech,
            max_inputs: 6,
            max_transistors: 48,
            shared_drives: vec![1, 2, 3, 4],
            split_drives: vec![2, 4],
            skew_variants: true,
            vt_variants: Vec::new(),
            include_exclusive: true,
            template_keep_fraction: 1.0,
        }
    }

    /// Small configuration for unit tests and quick experiments.
    pub fn quick(tech: Technology) -> LibraryConfig {
        LibraryConfig {
            tech,
            max_inputs: 3,
            max_transistors: 16,
            shared_drives: vec![1, 2],
            split_drives: vec![2],
            skew_variants: false,
            vt_variants: Vec::new(),
            include_exclusive: true,
            template_keep_fraction: 1.0,
        }
    }
}

/// Generates the synthetic library for `config`.
///
/// The result is fully deterministic: per-cell device ordering is shuffled
/// with a seed derived from the technology and the cell name.
pub fn generate_library(config: &LibraryConfig) -> Library {
    let style = TechStyle::for_tech(config.tech);
    let mut templates = base_catalog();
    if config.include_exclusive {
        templates.extend(exclusive_catalog(config.tech));
    }
    let mut cells = Vec::new();
    let keep_threshold = (config.template_keep_fraction.clamp(0.0, 1.0) * 1000.0) as u64;
    let is_exclusive: std::collections::BTreeSet<String> = exclusive_catalog(config.tech)
        .into_iter()
        .map(|t| t.name)
        .collect();
    for template in &templates {
        if template.plan.n_inputs > config.max_inputs {
            continue;
        }
        // Per-technology catalog subset: drop a deterministic selection
        // of shared templates (exclusive ones always stay).
        if !is_exclusive.contains(&template.name) {
            let tag = format!("{}:{}", config.tech.name(), template.name);
            let h = mix_seed(0x009E_3717, &tag);
            if h % 1000 >= keep_threshold {
                continue;
            }
        }
        let mut variants: Vec<(u8, DriveStyle)> = config
            .shared_drives
            .iter()
            .map(|&d| (d, DriveStyle::SharedNets))
            .collect();
        variants.extend(
            config
                .split_drives
                .iter()
                .filter(|&&d| d > 1)
                .map(|&d| (d, DriveStyle::SplitFingers)),
        );
        for (drive, drive_style) in variants {
            let count = template.plan.num_transistors() * drive as usize;
            if count > config.max_transistors {
                continue;
            }
            let skews: &[(&str, f32)] = if config.skew_variants {
                &[("", 1.0), ("S", 1.25)]
            } else {
                &[("", 1.0)]
            };
            // VT flavors compose with skews: every (skew, flavor) pair is
            // its own catalog entry, like SVT/LVT/HVT rows in a real
            // library. The base flavor (empty suffix, scale 1.0) is
            // always generated.
            let mut flavors: Vec<(String, f32)> = vec![(String::new(), 1.0)];
            flavors.extend(config.vt_variants.iter().cloned());
            for (skew_tag, skew) in skews {
                for (vt_tag, vt_scale) in &flavors {
                    let suffix = match drive_style {
                        DriveStyle::SharedNets => String::new(),
                        DriveStyle::SplitFingers => "F".to_string(),
                    };
                    let name = format!(
                        "{}_{}X{}{}{}{}",
                        config.tech.name(),
                        template.name,
                        drive,
                        suffix,
                        skew_tag,
                        vt_tag
                    );
                    let scale = skew * vt_scale;
                    let mut netlist_style = style.base.clone();
                    netlist_style.nmos_width_nm =
                        (netlist_style.nmos_width_nm as f32 * scale) as u32;
                    netlist_style.pmos_width_nm =
                        (netlist_style.pmos_width_nm as f32 * scale) as u32;
                    netlist_style.shuffle_seed = Some(mix_seed(style.order_seed, &name));
                    let synth =
                        synthesize(&name, &template.plan, drive, drive_style, &netlist_style)
                            .expect("catalog synthesis cannot fail");
                    cells.push(LibraryCell {
                        cell: synth.cell,
                        function: synth.function,
                        template: template.name.clone(),
                        drive,
                        style: drive_style,
                    });
                }
            }
        }
    }
    Library {
        technology: config.tech,
        cells,
    }
}

fn mix_seed(seed: u64, name: &str) -> u64 {
    let mut h = seed ^ 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_plans_are_valid_and_sized() {
        for t in base_catalog() {
            assert!(t.plan.num_transistors() >= 2, "{}", t.name);
            assert!(t.plan.n_inputs >= 1);
        }
    }

    #[test]
    fn quick_library_generates_deterministically() {
        let config = LibraryConfig::quick(Technology::Soi28);
        let a = generate_library(&config);
        let b = generate_library(&config);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.cells.iter().all(|c| c.cell.num_transistors() <= 16));
    }

    #[test]
    fn technologies_share_functions_but_not_netlist_text() {
        let soi = generate_library(&LibraryConfig::quick(Technology::Soi28));
        let c28 = generate_library(&LibraryConfig::quick(Technology::C28));
        let soi_nand2 = soi
            .cells
            .iter()
            .find(|c| c.template == "NAND2" && c.drive == 1)
            .unwrap();
        let c28_nand2 = c28
            .cells
            .iter()
            .find(|c| c.template == "NAND2" && c.drive == 1)
            .unwrap();
        assert_eq!(
            soi_nand2.function.truth_table(2),
            c28_nand2.function.truth_table(2)
        );
        // Same structure, different netlist conventions.
        let soi_text = crate::writer::to_spice(&soi_nand2.cell);
        let c28_text = crate::writer::to_spice(&c28_nand2.cell);
        assert_ne!(soi_text, c28_text);
    }

    #[test]
    fn exclusive_functions_do_not_overlap() {
        let soi: Vec<String> = exclusive_catalog(Technology::Soi28)
            .into_iter()
            .map(|t| t.name)
            .collect();
        let c28: Vec<String> = exclusive_catalog(Technology::C28)
            .into_iter()
            .map(|t| t.name)
            .collect();
        for name in &soi {
            assert!(!c28.contains(name));
        }
    }

    #[test]
    fn vt_variants_multiply_cells_without_changing_topology() {
        let base = generate_library(&LibraryConfig::quick(Technology::C40));
        let flavored = generate_library(&LibraryConfig {
            vt_variants: vec![("LVT".into(), 0.9), ("HVT".into(), 1.1)],
            ..LibraryConfig::quick(Technology::C40)
        });
        assert_eq!(flavored.len(), 3 * base.len());
        let lvt = flavored
            .cells
            .iter()
            .find(|c| c.cell.name().ends_with("LVT"))
            .unwrap();
        let svt = flavored
            .cells
            .iter()
            .find(|c| {
                c.template == lvt.template
                    && c.drive == lvt.drive
                    && c.style == lvt.style
                    && !c.cell.name().ends_with("VT")
            })
            .unwrap();
        // Same device count and function, different sizing flavor.
        assert_eq!(lvt.cell.num_transistors(), svt.cell.num_transistors());
        assert_eq!(
            lvt.function.truth_table(lvt.cell.num_inputs()),
            svt.function.truth_table(svt.cell.num_inputs())
        );
    }

    #[test]
    fn full_config_reaches_realistic_scale() {
        let lib = generate_library(&LibraryConfig::full(Technology::Soi28));
        assert!(lib.len() >= 200, "got {}", lib.len());
        assert!(lib.cells.iter().all(|c| c.cell.num_transistors() <= 48));
    }

    #[test]
    fn xor3_truth_table() {
        let x = xor3_plan().to_expr();
        let tt = x.truth_table(3);
        #[allow(clippy::needless_range_loop, reason = "p is the input pattern")]
        for p in 0..8usize {
            let ones = p.count_ones() % 2 == 1;
            assert_eq!(tt[p], ones, "pattern {p}");
        }
    }

    #[test]
    fn mux2_truth_table() {
        // Z = S ? B : A with pins (A=0, B=1, S=2).
        let m = mux2_plan(false).to_expr();
        let tt = m.truth_table(3);
        #[allow(clippy::needless_range_loop, reason = "p is the input pattern")]
        for p in 0..8usize {
            let a = p & 1 == 1;
            let b = p & 2 == 2;
            let s = p & 4 == 4;
            assert_eq!(tt[p], if s { b } else { a }, "pattern {p}");
        }
    }

    #[test]
    fn maj3_truth_table() {
        let m = inverting_plus_buffer(3, maj3_expr()).to_expr();
        let tt = m.truth_table(3);
        #[allow(clippy::needless_range_loop, reason = "p is the input pattern")]
        for p in 0..8usize {
            assert_eq!(tt[p], (p as u32).count_ones() >= 2, "pattern {p}");
        }
    }
}
