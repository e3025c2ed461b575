//! unsafe carries its proof.
fn first(bytes: &[u8]) -> u8 {
    debug_assert!(!bytes.is_empty());
    // SAFETY: the caller guarantees `bytes` is non-empty, so index 0
    // is in bounds; checked by the debug_assert above in debug builds.
    unsafe { *bytes.as_ptr() }
}
