//! Integration of the ML pipeline: canonicalization across technologies,
//! grouped training, cross-technology prediction quality.

use cell_aware::core::{
    Activation, CanonicalCell, MlFlow, MlFlowParams, PreparedCell, StructureIndex,
};
use cell_aware::defects::{to_cam, GenerateOptions};
use cell_aware::netlist::library::{generate_library, LibraryConfig};
use cell_aware::netlist::Technology;

fn characterize_lib(tech: Technology) -> &'static Vec<(String, PreparedCell)> {
    use std::sync::OnceLock;
    // Characterizing a library is the expensive part of these tests; the
    // corpora are immutable, so build each one once per test binary.
    static SOI: OnceLock<Vec<(String, PreparedCell)>> = OnceLock::new();
    static C28: OnceLock<Vec<(String, PreparedCell)>> = OnceLock::new();
    static C40: OnceLock<Vec<(String, PreparedCell)>> = OnceLock::new();
    let slot = match tech {
        Technology::Soi28 => &SOI,
        Technology::C28 => &C28,
        Technology::C40 => &C40,
    };
    slot.get_or_init(|| {
        generate_library(&LibraryConfig::quick(tech))
            .cells
            .into_iter()
            .map(|lc| {
                let p = PreparedCell::characterize(lc.cell, GenerateOptions::default())
                    .expect("synthesized cells characterize");
                (lc.template, p)
            })
            .collect()
    })
}

/// Shared templates canonize to the same wiring hash in every technology,
/// despite different naming/order/sizing conventions.
#[test]
fn canonical_hashes_are_technology_independent() {
    let soi = characterize_lib(Technology::Soi28);
    let c28 = characterize_lib(Technology::C28);
    // Cell names are `<TECH>_<TEMPLATE>X<drive><variant>`; the part after
    // the first underscore identifies the exact structural variant.
    let variant = |name: &str| name.split_once('_').map(|(_, v)| v.to_string());
    let mut compared = 0;
    for (template, p_soi) in soi.iter() {
        let v_soi = variant(p_soi.cell.name());
        if let Some((_, p_c28)) = c28.iter().find(|(_, p)| variant(p.cell.name()) == v_soi) {
            assert_eq!(
                p_soi.canonical.wiring_hash(),
                p_c28.canonical.wiring_hash(),
                "template {template} variant {v_soi:?}"
            );
            compared += 1;
        }
    }
    assert!(compared >= 10, "only {compared} templates compared");
}

/// FNV-1a digest of named documents: each name and body, length-prefixed,
/// in name order.
fn digest_docs(docs: &std::collections::BTreeMap<String, String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, body) in docs {
        for part in [name.as_bytes(), body.as_bytes()] {
            for &b in (part.len() as u64).to_le_bytes().iter().chain(part) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Digest of the `.cam` text of every C28 model the SOI28-trained flow
/// predicts, pinned across commits: a change to the forest trainer that
/// moves any predicted bit changes it.
const C28_PREDICTED_CAM: u64 = 0xdabf_ad4f_162a_3524;

/// Cross-technology prediction: most shared-structure cells predict above
/// 95%, and the overall mean clears 90% (shape of Tables IV.b/IV.c). The
/// predicted models are pinned by digest across commits.
#[test]
fn cross_technology_prediction_quality() {
    let soi: Vec<PreparedCell> = characterize_lib(Technology::Soi28)
        .iter()
        .map(|(_, p)| p.clone())
        .collect();
    let flow = MlFlow::train(&soi, MlFlowParams::quick()).expect("corpus non-empty");
    let index = StructureIndex::from_corpus(&soi);
    let c28 = characterize_lib(Technology::C28);
    let mut identical_accs = Vec::new();
    let mut all_accs = Vec::new();
    let mut cams = std::collections::BTreeMap::new();
    for (_, prepared) in c28.iter() {
        if !flow.covers(prepared) {
            continue;
        }
        let predicted = flow.predict(prepared).expect("covered");
        cams.insert(prepared.cell.name().to_string(), to_cam(&predicted));
        let acc = prepared.accuracy_of(&predicted);
        all_accs.push(acc);
        if index.classify(&prepared.canonical) == cell_aware::core::StructuralMatch::Identical {
            identical_accs.push(acc);
        }
    }
    assert!(all_accs.len() >= 20, "evaluated {}", all_accs.len());
    let mean = all_accs.iter().sum::<f64>() / all_accs.len() as f64;
    assert!(mean > 0.90, "mean cross-tech accuracy {mean}");
    // Identical-structure cells predict better than the population —
    // the §V.B correlation.
    let id_mean = identical_accs.iter().sum::<f64>() / identical_accs.len().max(1) as f64;
    assert!(
        id_mean >= mean - 1e-9,
        "identical {id_mean} should be >= population {mean}"
    );
    let digest = digest_docs(&cams);
    assert_eq!(
        digest,
        C28_PREDICTED_CAM,
        "predicted C28 models changed: digest {digest:#018x} over {} cells",
        cams.len()
    );
}

/// The canonical builder works on every generated cell of all three
/// technologies, and positions form a permutation.
#[test]
fn canonicalization_covers_all_technologies() {
    for tech in Technology::ALL {
        let lib = generate_library(&LibraryConfig::quick(tech));
        for lc in &lib.cells {
            let activation = Activation::extract(&lc.cell).expect("valid");
            let canonical = CanonicalCell::build(&lc.cell, &activation).expect("canonizable");
            assert_eq!(canonical.order().len(), lc.cell.num_transistors());
        }
    }
}
