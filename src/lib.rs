//! # spectral — simulation sampling with live-points
//!
//! Umbrella crate re-exporting the Spectral workspace: a full
//! reproduction of *Simulation Sampling with Live-points* (Wenisch,
//! Wunderlich, Falsafi, Hoe — ISPASS 2006) in Rust, including every
//! substrate the paper depends on (functional emulator, synthetic
//! benchmark suite, cache/TLB models, an out-of-order superscalar timing
//! model, warming strategies, and the live-point sampling framework).
//!
//! See the individual crates for focused documentation:
//!
//! * [`isa`] — SRISC ISA and functional emulator
//! * [`workloads`] — synthetic SPEC2K-like benchmark suite
//! * [`cache`] — caches, TLBs, CSR/MTR reconstructable warm state
//! * [`uarch`] — cycle-level out-of-order timing model
//! * [`stats`] — sampling statistics and confidence machinery
//! * [`codec`] — DER subset + LZSS compression for live-point storage
//! * [`warming`] — full (SMARTS), detailed, and adaptive (MRRL) warming
//! * [`core`] — live-points: creation, libraries, runners, matched pairs
//! * [`telemetry`] — metrics, span tracing, and run manifests
//!
//! ## Quickstart
//!
//! ```no_run
//! use spectral::core::{LivePointLibrary, CreationConfig, OnlineRunner, RunPolicy};
//! use spectral::uarch::MachineConfig;
//! use spectral::workloads::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = &suite()[0];
//! let program = bench.build();
//! let library = LivePointLibrary::create(&program, &CreationConfig::default())?;
//! let estimate = OnlineRunner::new(&library, MachineConfig::eight_way())
//!     .run(&program, &RunPolicy::default())?;
//! println!("CPI = {:.3} ± {:.3}", estimate.mean(), estimate.half_width());
//! # Ok(())
//! # }
//! ```

// Compile the README's Rust snippets as doc-tests, so a snippet that
// calls a removed API fails `cargo test --doc`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use spectral_cache as cache;
pub use spectral_codec as codec;
pub use spectral_core as core;
pub use spectral_isa as isa;
pub use spectral_stats as stats;
pub use spectral_telemetry as telemetry;
pub use spectral_uarch as uarch;
pub use spectral_warming as warming;
pub use spectral_workloads as workloads;
