//! Micro-bench: the byte codecs every journal record, `ca-serve`
//! response and export passes through, in ns/byte over the
//! full-profile C40 benchmark library (942 `.cam` documents).
//!
//! - `crc32` over a 28 KB slice (about a median `ca-serve` response
//!   frame) and over the whole export concatenated;
//! - `to_cam` rendering every model of the export;
//! - `from_cam` parsing every document of the export back.

use ca_bench::microbench::{black_box, BenchGroup};
use ca_bench::perf::bench_library;
use ca_bench::Profile;
use ca_core::{characterize_library_with, CharCache, Executor};
use ca_defects::{from_cam, to_cam, CaModel, GenerateOptions};
use ca_netlist::Cell;
use ca_store::crc32;

/// A frame about the size of a median `serve_c40` response.
const FRAME_BYTES: usize = 28 * 1000;

fn main() {
    let library = bench_library(Profile::Full);
    let (prepared, _) = characterize_library_with(
        &library,
        GenerateOptions::default(),
        &Executor::from_env(),
        &CharCache::new(),
    )
    .expect("synthesized cells characterize");
    let models: Vec<(&Cell, &CaModel)> = prepared
        .iter()
        .filter_map(|p| p.model.as_ref().map(|m| (&p.cell, m)))
        .collect();
    let docs: Vec<String> = models.iter().map(|(_, m)| to_cam(m)).collect();
    let export: Vec<u8> = docs.iter().flat_map(|d| d.bytes()).collect();

    let mut group = BenchGroup::new("codec");
    group.sample_size(9);
    let frame = &export[..FRAME_BYTES.min(export.len())];
    group.throughput_bytes(frame.len());
    group.bench("crc32_frame", || crc32(black_box(frame)));
    group.throughput_bytes(export.len());
    group.bench(&format!("crc32_export_{}_docs", docs.len()), || {
        crc32(black_box(&export))
    });
    group.bench("to_cam_export", || {
        models.iter().map(|(_, m)| to_cam(m).len()).sum::<usize>()
    });
    group.bench("from_cam_export", || {
        models
            .iter()
            .zip(&docs)
            .map(|((cell, _), doc)| from_cam(doc, cell).expect("export parses").rows.len())
            .sum::<usize>()
    });
    group.finish();
}
