//! # dio-feedback
//!
//! The expert-feedback loop (paper §3.4).
//!
//! "Upon receiving a response, the user can optionally request expert
//! assistance by clicking a designated raised-hand button, which will
//! create a GitHub repository issue. … The expert data obtained through
//! this process is then added to the domain-specific database and
//! attributed to the relevant expert as its source." GitHub is an
//! external service, so this crate embeds the equivalent tracker:
//!
//! * [`IssueTracker`] — issues with question/context/response bodies,
//!   comments, labels, and lifecycle;
//! * the expert registry — "only a select few pre-identified experts can
//!   resolve these issues";
//! * [`Contribution`] — metric docs, function definitions, exemplars,
//!   and free-form notes that resolution merges into the
//!   [`dio_catalog::DomainDb`], with attribution.
//!
//! The tracker lives in memory. The Stack-Overflow-style voting
//! mechanism §3.4 leaves as future work is future work here too.

mod contribution;
mod experts;
mod issue;
mod tracker;

pub use contribution::Contribution;
pub use experts::Expert;
pub use issue::{IssueId, IssueState};
pub use tracker::{IssueTracker, TrackerError};
