//! Fault-crate roots reaching environment and thread sinks through a
//! helper (R003, R004).
pub fn apply() {
    configure();
}

fn configure() {
    let _v = std::env::var("PSC_FIXTURE");
    std::thread::spawn(|| {});
}
