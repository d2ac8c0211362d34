//! Analytic queueing-network solvers for the `burstcap` workspace.
//!
//! Two model families cover the paper's needs:
//!
//! * [`mva`] — classical **Mean Value Analysis** of closed product-form
//!   networks (the paper's Section 3.4 baseline, whose failure under
//!   bottleneck switch motivates the whole methodology), plus the Schweitzer
//!   approximation and asymptotic [`bounds`];
//! * [`mapqn`] — the paper's model (Section 4): a closed network of two
//!   queues with **MAP(2) service processes** and an exponential think stage,
//!   solved *exactly* by building the underlying CTMC and computing its
//!   stationary distribution with the sparse BiCGSTAB solver in [`ctmc`],
//!   which runs on the compressed-sparse-row substrate in [`csr`] — or, past
//!   the CSR memory wall, with the matrix-free parallel Jacobi engine in
//!   [`matfree`], which applies the generator straight from the MAP(2)
//!   factors without ever assembling it.
//!
//! # Example: MVA vs the MAP-aware model
//!
//! ```
//! use burstcap_qn::mva::ClosedMva;
//! use burstcap_qn::mapqn::MapNetwork;
//! use burstcap_map::Map2;
//!
//! // Two exponential servers: the MAP model must agree with MVA.
//! let mva = ClosedMva::new(vec![0.01, 0.02], 0.5)?.solve(20)?;
//! let net = MapNetwork::new(
//!     20,
//!     0.5,
//!     Map2::poisson(100.0)?, // 10 ms front
//!     Map2::poisson(50.0)?,  // 20 ms database
//! )?;
//! let exact = net.solve()?;
//! assert!((mva.throughput - exact.throughput).abs() / mva.throughput < 0.01);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns typed errors and owns no console; test code is exempt
// through clippy.toml (ARCHITECTURE.md, "Static analysis").
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

pub mod bounds;
pub mod csr;
pub mod ctmc;
mod error;
pub mod mapqn;
pub mod matfree;
pub mod mva;

pub use error::QnError;
