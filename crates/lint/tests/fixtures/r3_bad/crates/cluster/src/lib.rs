//! Fixture: an analysis fn taking Table by value must trip R3.
pub struct Table;

fn analyze(table: Table, k: usize) -> usize {
    let _ = table;
    k
}
