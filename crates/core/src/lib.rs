//! # gdcm-core — generalizable DNN cost models
//!
//! The paper's primary contribution, as a library:
//!
//! * [`encoding`] — the layer-wise network representation (§III-B):
//!   operator one-hot + hyper-parameters + shapes, concatenated per layer
//!   and masked (zero-padded) to the longest network.
//! * [`hardware`] — hardware representations (§III-C): the static-spec
//!   baseline (CPU one-hot + frequency + DRAM) and the signature-set
//!   representation (measured latencies of a small chosen network set).
//! * [`signature`] — the three signature-selection algorithms: random
//!   sampling (RS), mutual-information selection (MIS, Alg. 1) and
//!   Spearman-correlation selection (SCCS, Alg. 2).
//! * [`pipeline`] — the §IV-A experimental protocol: 70/30 device split,
//!   signature chosen on training devices only, signature networks
//!   dropped from both sides, XGBoost-style regression, R² on unseen
//!   devices.
//! * [`gate`] — the opt-in post-training audit hook: an auditor (e.g.
//!   `gdcm-audit`) installs a process-global gate that inspects every
//!   freshly fitted model when `GDCM_AUDIT=warn|deny` is set.
//! * [`collaborative`] — the §V collaborative-characterization
//!   simulation and the isolated-vs-collaborative comparison.
//! * [`repository`] — a user-facing collaborative repository API: devices
//!   join by measuring the signature set, contribute a few extra
//!   measurements, and everyone gets a cost model for every device.
//!
//! ## Quickstart
//!
//! ```no_run
//! use gdcm_core::{CostDataset, CostModelPipeline, PipelineConfig};
//! use gdcm_core::signature::MutualInfoSelector;
//!
//! let data = CostDataset::paper(42);
//! let pipeline = CostModelPipeline::new(&data, PipelineConfig::default());
//! let report = pipeline.run_signature(&MutualInfoSelector::default());
//! println!("test R² = {:.3}", report.r2);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod collaborative;
mod dataset;
pub mod encoding;
pub mod gate;
pub mod hardware;
pub mod pipeline;
pub mod repository;
pub mod signature;

pub use dataset::CostDataset;
pub use encoding::{EncoderConfig, NetworkEncoder};
pub use gate::{
    audit_mode, force_audit_mode, install_audit_gate, AuditContext, AuditGate, AuditMode,
};
pub use hardware::{HardwareRepr, StaticSpecEncoder};
pub use pipeline::{CostModelPipeline, EvalReport, PipelineConfig, TrainedArtifacts};
pub use repository::{
    CollaborativeRepository, RepositoryConfig, RepositoryError, RepositoryParts, RepositoryPartsV1,
    TrainingSet,
};
pub use signature::{MutualInfoSelector, RandomSelector, SignatureSelector, SpearmanSelector};
