//! Analysis fns borrow tables.
pub mod command;

pub struct Table;

fn analyze(table: &Table, k: usize) -> usize {
    let _ = table;
    k
}

/// Calls into another crate, which keeps `pub fn sum` there live.
fn total(counts: &std::collections::BTreeMap<u32, u32>) -> u32 {
    store::sum(counts)
}
