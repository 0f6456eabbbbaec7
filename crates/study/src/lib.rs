//! # wtq-study
//!
//! The user-study substrate of the reproduction (§6.3, §7): a simulated
//! non-expert user, a work-time model, the interactive deployment loop and
//! the feedback-collection / retraining pipeline.
//!
//! The paper's evaluation is driven by Amazon Mechanical Turk workers; this
//! crate replaces them with a calibrated simulation (the `wtq-study` row of
//! README.md's *Workspace layout*; the study itself is summarized in
//! PAPER.md) so every experiment runs offline and deterministically:
//!
//! * [`user`] — a simulated worker who inspects the explanations of the
//!   parser's top-k candidates and marks the correct one (or *None*), with
//!   per-judgment error rates depending on the explanation mode,
//! * [`worktime`] — the per-candidate inspection-time model reproducing the
//!   Table 5 observation that provenance highlights cut work time by roughly
//!   a third relative to utterance-only explanations,
//! * [`deploy`] — the deployment experiment of §7.2: parser vs. user vs.
//!   hybrid correctness, the top-k correctness bound, and the k-sweep,
//! * [`feedback`] — annotation collection with 2-of-3 agreement and parser
//!   retraining (§7.3, Table 9),
//! * [`metrics`] — the χ² significance test used in Table 6.

pub mod deploy;
pub mod feedback;
pub mod metrics;
pub mod user;
pub mod worktime;

pub use deploy::{DeploymentExperiment, DeploymentResult, StudyExample};
pub use feedback::{collect_annotations, FeedbackExperiment, FeedbackResult};
pub use metrics::chi_square_2x2;
pub use user::{ExplanationMode, SimulatedUser, UserDecision};
pub use worktime::WorkTimeModel;
