//! Detects the kernels that have no production caller and may be
//! deleted from the simulator (`BerLut`, the `HeapQueue` oracle and the
//! `EventQueue` trait), so the benchmark keeps building after they go.
//! Their probes then read 0.

use std::path::Path;

fn main() {
    let root =
        Path::new(&std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets the manifest dir"))
            .join("..");
    for (cfg, file, needle) in [
        ("nomc_ber_lut", "crates/phy/src/lut.rs", "pub struct BerLut"),
        (
            "nomc_heap_queue",
            "crates/sim/src/events.rs",
            "pub struct HeapQueue",
        ),
        (
            "nomc_event_queue_trait",
            "crates/sim/src/events.rs",
            "pub trait EventQueue",
        ),
    ] {
        let path = root.join(file);
        println!("cargo:rerun-if-changed={}", path.display());
        println!("cargo:rustc-check-cfg=cfg({cfg})");
        let source = std::fs::read_to_string(&path).unwrap_or_default();
        if source.contains(needle) {
            println!("cargo:rustc-cfg={cfg}");
        }
    }
}
