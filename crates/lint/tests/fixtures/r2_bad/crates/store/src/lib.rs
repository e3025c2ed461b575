//! Fixture: nondeterminism in a digest-bearing crate must trip R2.
use std::collections::HashMap;
use std::time::Instant;

fn timed() -> u128 {
    let start = Instant::now();
    start.elapsed().as_nanos()
}

fn sum(m: &HashMap<u32, u32>) -> u32 {
    let copy: HashMap<u32, u32> = m.clone();
    let mut total = 0;
    for v in copy.values() {
        total += v;
    }
    total
}
