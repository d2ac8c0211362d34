//! Fixture crate: each module reproduces one retired burstcap-lint fixture
//! under clippy. Findings are pinned in `expected.txt`.

// The library-root deny list; `crates/lint/tests/self_check.rs` asserts
// that every workspace library root carries exactly this list.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

pub mod bare_allow;
pub mod panic_in_lib;
pub mod raw_rng;
pub mod stray_print;
pub mod unordered_iter;
pub mod unscoped_parallelism;
pub mod wallclock;
