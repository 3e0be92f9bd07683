//! # dio-sandbox
//!
//! Sandboxed query execution (paper §3.3: "The generated code is
//! executed on the database in a sandboxed environment", citing the
//! classic Janus confinement paper; §5.4 raises "the risk of
//! unintentional execution of harmful code and controlling access to
//! sensitive data").
//!
//! Model-generated PromQL is untrusted input. The sandbox:
//!
//! * statically **vets** the parsed expression against a
//!   [`SafetyPolicy`] — function allowlist, range-window ceiling,
//!   sensitive-metric deny patterns, expression-size bound;
//! * **executes** with hard resource limits (per-query sample budget
//!   enforced inside the engine);
//! * **counts** every attempt by outcome, allowed or refused.

mod executor;
mod policy;

pub use executor::{Sandbox, SandboxError, StoreResolver};
pub use policy::SafetyPolicy;
