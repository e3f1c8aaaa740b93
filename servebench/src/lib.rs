//! # servebench — the repository's serving benchmark
//!
//! Drives [`mp_serve::Server`] in-process over three workloads and
//! reports end-to-end metrics (capacity, open-loop latency, answer
//! correctness, set-up time, memory) and, in a separate traced run, a
//! per-layer table built from spans the benchmark records around calls
//! into each layer's public functions. See `README.md` beside this
//! crate for the metric definitions and the layer → metric mapping.

pub mod layers;
pub mod load;
pub mod quantile;
pub mod replay;
pub mod rng;
pub mod spans;
pub mod sys;
pub mod workload;
