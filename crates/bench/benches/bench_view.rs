//! Zero-copy navigation benchmark: a deep zoom chain over a wide table.
//!
//! Blaeu's dominant interaction is recursive zooming. This bench drives a
//! 6-level zoom chain over a deliberately *wide* table (48 float columns),
//! ending with one single-column scan at the deepest level. Each level is
//! `TableView::select` (index re-map, payloads shared), so cost scales
//! with the selection size, not the table width; the regression gate
//! guards that zero-copy fast path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use blaeu_store::{Column, Table, TableBuilder, TableView};

/// Table shape: wide enough that copying payloads per zoom would dominate.
const COLS: usize = 48;
const ROWS: usize = 50_000;
/// Zoom-chain depth (the paper's sessions drill several levels deep).
const DEPTH: usize = 6;

fn wide_table() -> Table {
    let mut builder = TableBuilder::new("wide");
    for c in 0..COLS {
        let data: Vec<f64> = (0..ROWS)
            .map(|r| ((r * 31 + c * 17) % 1009) as f64)
            .collect();
        builder = builder
            .column(format!("c{c}"), Column::dense_f64(data))
            .expect("fresh name");
    }
    builder.build().expect("consistent")
}

/// The rows each zoom level keeps: every other row of the selection.
fn half(n: usize) -> Vec<u32> {
    (0..n as u32).step_by(2).collect()
}

/// Terminal work: scan one column at the deepest level (what a
/// highlight would do after the zooms).
fn scan<C: blaeu_store::ColumnRead>(col: &C) -> f64 {
    let mut acc = 0.0;
    for i in 0..col.len() {
        acc += col.numeric_at(i).unwrap_or(0.0);
    }
    acc
}

fn bench_zoom_chain(c: &mut Criterion) {
    let view = TableView::from(wide_table());
    let mut group = c.benchmark_group("view_zoom");
    group.sample_size(10);

    group.bench_function("deep6/view", |b| {
        b.iter(|| {
            let mut v = view.clone();
            for _ in 0..DEPTH {
                v = v.select(&half(v.nrows())).expect("in bounds");
            }
            let col = v.col_by_name("c0").expect("exists");
            black_box(scan(&col))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_zoom_chain);
criterion_main!(benches);
