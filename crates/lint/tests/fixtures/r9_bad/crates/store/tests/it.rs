//! The defining crate's own integration test does not keep an item live.
#[test]
fn calls_it() {
    assert_eq!(store::tested_only(), 4);
}
