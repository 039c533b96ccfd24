//! Micro-bench: one leave-one-out evaluation step of Table IV.a —
//! train a group forest and predict the held-out cell's full CA model.

use ca_bench::corpus::{build_corpus, Profile};
use ca_bench::microbench::BenchGroup;
use ca_core::{train_group_forest, PreparedCell};
use ca_netlist::Technology;
use std::collections::BTreeMap;

fn main() {
    let corpus = build_corpus(Technology::Soi28, Profile::Quick);
    let mut by_key: BTreeMap<(usize, usize), Vec<&PreparedCell>> = BTreeMap::new();
    for cc in corpus.iter() {
        by_key
            .entry(cc.prepared.group_key())
            .or_default()
            .push(&cc.prepared);
    }
    // A mid-size group keeps the bench representative but affordable.
    let (key, cells) = by_key
        .into_iter()
        .filter(|(_, v)| v.len() >= 3)
        .min_by_key(|&((inputs, transistors), _)| (inputs, transistors))
        .expect("a group with >= 3 cells exists");
    let params = Profile::Quick.ml_params();
    let mut group = BenchGroup::new("table_iv_loo_step");
    group.sample_size(5);
    group.bench(&format!("group_{}in_{}t", key.0, key.1), || {
        let train: Vec<&PreparedCell> = cells[1..].to_vec();
        let (forest, _) = train_group_forest(&train, &params).expect("trains");
        let target = cells[0];
        let predicted = target.predict_model(&forest);
        target.accuracy_of(&predicted)
    });
    group.finish();
}
