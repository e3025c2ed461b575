//! Fixture: an unsafe block without a SAFETY comment must trip R7.
fn deref(p: *const u8) -> u8 {
    unsafe { *p }
}
