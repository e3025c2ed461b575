//! Fixture: defective waivers are themselves findings.

// lint: allow(panic-hygiene) — suppresses nothing on the next line
fn fine() {}

// lint: allow(made-up-rule) — no such rule exists
fn also_fine() {}

fn reasonless() {} // lint: allow(exec-parallelism)
