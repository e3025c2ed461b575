//! Digest crate: BTreeMap iteration is deterministic and fine; a
//! justified waiver covers the one sorted hash-drain.
use std::collections::{BTreeMap, HashSet};

pub fn sum(m: &BTreeMap<u32, u32>) -> u32 {
    m.values().sum()
}

fn sorted_ids(raw: &[u32]) -> Vec<u32> {
    let set: HashSet<u32> = raw.iter().copied().collect();
    // lint: allow(digest-determinism) — hash order cannot leak: sorted on the next line
    let mut ids: Vec<u32> = set.into_iter().collect();
    ids.sort_unstable();
    ids
}
