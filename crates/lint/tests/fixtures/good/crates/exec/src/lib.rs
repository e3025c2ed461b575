//! The exec crate owns the thread budget and may spawn.
fn budget() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run() {
    std::thread::spawn(|| {}).join().ok();
}
