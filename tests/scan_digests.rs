//! Pinned digests of every scan response (`highlight`, `scatter`,
//! `region_detail`) over the small Countries & Work table, with and
//! without NULLs, at a map, after a zoom, and on a preview rung.
//!
//! `Response::digest` values are persisted in session journals and
//! checked on recovery, so a scan kernel may get faster but never change
//! a single response bit. The constants below were captured before the
//! scan kernels were rewritten; an optimisation that moves any of them
//! has changed an answer.

use blaeu_bench::{oecd_small, oecd_small_nulls, scan_digests};

const DENSE: [(&str, u64); 9] = [
    ("map/highlight", 0x69e151c9dde55523),
    ("map/scatter", 0x616b7afc48ebb49b),
    ("map/region_detail", 0x4cdb176714145a74),
    ("zoom/highlight", 0xb7a4a7b731e9545b),
    ("zoom/scatter", 0x440ef62b22c82371),
    ("zoom/region_detail", 0x869a3ff469e3efe8),
    ("preview/highlight", 0x8dc136671e41da54),
    ("preview/scatter", 0xb10c89432a995df7),
    ("preview/region_detail", 0xa7f26399c9eacfcf),
];

const NULLS: [(&str, u64); 9] = [
    ("map/highlight", 0xfb866e6c3008fa43),
    ("map/scatter", 0x4f57819d546adf6e),
    ("map/region_detail", 0x34a374005a6d13c4),
    ("zoom/highlight", 0xa83245e2e449a7dc),
    ("zoom/scatter", 0x47e6f363601c1058),
    ("zoom/region_detail", 0x4a0087e03b04e7b5),
    ("preview/highlight", 0x81f26d3641ae2a57),
    ("preview/scatter", 0x357b173bfbdd7dbb),
    ("preview/region_detail", 0xe32e3ce577e8aad5),
];

fn check(got: Vec<(String, u64)>, pinned: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = got.iter().map(|(l, d)| (l.as_str(), *d)).collect();
    assert_eq!(got, pinned);
}

#[test]
fn dense_table_scans_are_pinned() {
    check(scan_digests(oecd_small().0), &DENSE);
}

#[test]
fn null_table_scans_are_pinned() {
    check(scan_digests(oecd_small_nulls()), &NULLS);
}
