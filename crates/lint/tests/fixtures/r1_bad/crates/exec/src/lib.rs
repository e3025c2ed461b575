//! Fixture: two budget call sites must trip the exactly-one check.
fn budget_a() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
fn budget_b() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
