//! Pinned digests of every sketch op family, run as a session command
//! (`Explorer::execute(&Command::Sketch(op))`) over the small Countries &
//! Work table.
//!
//! Sketch commands are session commands, so their `Response::digest`
//! values are persisted in journals and checked on recovery. The
//! constants below are the digests sketch commands produced while they
//! still ran through a shard plan/partial/merge layer; they now call the
//! analysis kernels directly. Any change to a kernel, or to how a sketch
//! op calls it, that moves one of them has changed an answer.

use blaeu::core::{Command, Explorer, ExplorerConfig, SketchOp};
use blaeu_bench::oecd_small;

const PINNED: [(&str, u64); 5] = [
    ("dep_matrix", 0x0330785b16cc4710),
    ("describe_numeric", 0x23473c809a45607a),
    ("describe_categorical", 0x4ef33f581e016c6d),
    ("histogram", 0xe3fae239144ff97e),
    ("clara_assign", 0xd284dbdb07cbaa0d),
];

/// One op per mergeable analysis family. The CLARA medoids are fixed,
/// evenly spaced row indices.
fn ops() -> Vec<(&'static str, SketchOp)> {
    let numeric: Vec<String> = [
        "unemployment_rate",
        "long_term_unemployment",
        "female_unemployment",
        "pct_health_insurance",
        "life_expectancy",
        "health_spending_pct_gdp",
    ]
    .iter()
    .map(|c| (*c).to_owned())
    .collect();
    vec![
        (
            "dep_matrix",
            SketchOp::DepMatrix {
                columns: numeric.clone(),
            },
        ),
        (
            "describe_numeric",
            SketchOp::Describe {
                column: "life_expectancy".to_owned(),
                top_k: 5,
            },
        ),
        (
            "describe_categorical",
            SketchOp::Describe {
                column: "country".to_owned(),
                top_k: 5,
            },
        ),
        (
            "histogram",
            SketchOp::Histogram {
                column: "unemployment_rate".to_owned(),
                bins: 16,
            },
        ),
        (
            "clara_assign",
            SketchOp::ClaraAssign {
                columns: numeric,
                medoids: vec![5, 400, 800, 1100],
            },
        ),
    ]
}

#[test]
fn sketch_commands_are_pinned() {
    let mut explorer = Explorer::open(oecd_small().0, ExplorerConfig::default()).unwrap();
    let got: Vec<(&str, u64)> = ops()
        .into_iter()
        .map(|(name, op)| {
            let response = explorer.execute(&Command::Sketch(op)).unwrap();
            (name, response.digest())
        })
        .collect();
    assert_eq!(got, PINNED);
}
